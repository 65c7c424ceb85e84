#include "sparql/lexer.h"

#include <cctype>

#include "util/string_util.h"

namespace sparqlog::sparql {

bool Token::IsKeyword(std::string_view kw) const {
  return kind == TokenKind::kName && AsciiEqualsIgnoreCase(text, kw);
}

namespace {

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> out;
    while (true) {
      SkipWs();
      if (AtEnd()) {
        out.push_back(Token{TokenKind::kEof, "", line_, pos_});
        return out;
      }
      const size_t start = pos_;
      SPARQLOG_ASSIGN_OR_RETURN(Token tok, Next());
      tok.offset = start;
      out.push_back(std::move(tok));
    }
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek(size_t k = 0) const {
    return pos_ + k < text_.size() ? text_[pos_ + k] : '\0';
  }
  void Advance() {
    if (text_[pos_] == '\n') ++line_;
    ++pos_;
  }

  void SkipWs() {
    while (!AtEnd()) {
      char c = Peek();
      if (std::isspace(static_cast<unsigned char>(c))) {
        Advance();
      } else if (c == '#') {
        while (!AtEnd() && Peek() != '\n') Advance();
      } else {
        return;
      }
    }
  }

  Status Err(const std::string& what) {
    return Status::ParseError("sparql line " + std::to_string(line_) + ": " +
                              what);
  }

  static bool IsNameStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  }
  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-';
  }

  Result<Token> Next() {
    int line = line_;
    char c = Peek();

    // IRI reference.
    if (c == '<') {
      // Distinguish from '<' / '<=' comparison: an IRI has no whitespace
      // before the closing '>' and parsers only see '<' in expression
      // position for comparisons. Heuristic: scan ahead for '>' before any
      // whitespace.
      size_t k = pos_ + 1;
      bool is_iri = false;
      while (k < text_.size()) {
        char d = text_[k];
        if (d == '>') {
          is_iri = true;
          break;
        }
        if (std::isspace(static_cast<unsigned char>(d)) || d == '"') break;
        ++k;
      }
      if (is_iri) {
        Advance();
        std::string iri;
        while (!AtEnd() && Peek() != '>') {
          iri += Peek();
          Advance();
        }
        if (AtEnd()) return Err("unterminated IRI");
        Advance();
        return Token{TokenKind::kIri, std::move(iri), line};
      }
      Advance();
      if (Peek() == '=') {
        Advance();
        return Token{TokenKind::kOp, "<=", line};
      }
      return Token{TokenKind::kPunct, "<", line};
    }

    // Variables.
    if (c == '?' || c == '$') {
      if (IsNameStart(Peek(1)) || std::isdigit(static_cast<unsigned char>(Peek(1)))) {
        Advance();
        std::string name;
        while (!AtEnd() && IsNameChar(Peek())) {
          name += Peek();
          Advance();
        }
        return Token{TokenKind::kVar, std::move(name), line};
      }
      Advance();
      return Token{TokenKind::kPunct, std::string(1, c), line};
    }

    // Blank nodes.
    if (c == '_' && Peek(1) == ':') {
      Advance();
      Advance();
      std::string label;
      while (!AtEnd() && IsNameChar(Peek())) {
        label += Peek();
        Advance();
      }
      return Token{TokenKind::kBlank, std::move(label), line};
    }

    // Strings.
    if (c == '"' || c == '\'') {
      char quote = c;
      Advance();
      bool long_string = false;
      if (Peek() == quote && Peek(1) == quote) {
        long_string = true;
        Advance();
        Advance();
      }
      std::string body;
      while (!AtEnd()) {
        char d = Peek();
        if (d == '\\') {
          Advance();
          char e = Peek();
          Advance();
          switch (e) {
            case 'n': body += '\n'; break;
            case 't': body += '\t'; break;
            case 'r': body += '\r'; break;
            case '\\': body += '\\'; break;
            case '"': body += '"'; break;
            case '\'': body += '\''; break;
            default: body += e;
          }
          continue;
        }
        if (!long_string && d == quote) {
          Advance();
          return Token{TokenKind::kString, std::move(body), line};
        }
        if (long_string && d == quote && Peek(1) == quote &&
            Peek(2) == quote) {
          Advance();
          Advance();
          Advance();
          return Token{TokenKind::kString, std::move(body), line};
        }
        if (!long_string && d == '\n') return Err("newline in string");
        body += d;
        Advance();
      }
      return Err("unterminated string");
    }

    // Language tags.
    if (c == '@') {
      Advance();
      std::string tag;
      while (!AtEnd() && (std::isalnum(static_cast<unsigned char>(Peek())) ||
                          Peek() == '-')) {
        tag += Peek();
        Advance();
      }
      if (tag.empty()) return Err("empty language tag");
      return Token{TokenKind::kLangTag, std::move(tag), line};
    }

    // Numbers.
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        ((c == '+' || c == '-') &&
         std::isdigit(static_cast<unsigned char>(Peek(1))))) {
      std::string num;
      if (c == '+' || c == '-') {
        num += c;
        Advance();
      }
      bool has_dot = false, has_exp = false;
      while (!AtEnd()) {
        char d = Peek();
        if (std::isdigit(static_cast<unsigned char>(d))) {
          num += d;
          Advance();
        } else if (d == '.' && !has_dot && !has_exp &&
                   std::isdigit(static_cast<unsigned char>(Peek(1)))) {
          has_dot = true;
          num += d;
          Advance();
        } else if ((d == 'e' || d == 'E') && !has_exp) {
          has_exp = true;
          num += d;
          Advance();
          if (Peek() == '+' || Peek() == '-') {
            num += Peek();
            Advance();
          }
        } else {
          break;
        }
      }
      TokenKind kind = has_exp ? TokenKind::kDouble
                     : has_dot ? TokenKind::kDecimal
                               : TokenKind::kInteger;
      return Token{kind, std::move(num), line};
    }

    // Names and prefixed names.
    if (IsNameStart(c)) {
      std::string name;
      while (!AtEnd() && IsNameChar(Peek())) {
        name += Peek();
        Advance();
      }
      if (Peek() == ':') {
        Advance();
        std::string local;
        while (!AtEnd() && (IsNameChar(Peek()) || Peek() == '.')) {
          if (Peek() == '.') {
            char next = Peek(1);
            if (!(IsNameChar(next))) break;
          }
          local += Peek();
          Advance();
        }
        return Token{TokenKind::kPName, name + ":" + local, line};
      }
      return Token{TokenKind::kName, std::move(name), line};
    }
    // Default-prefix pname ":local".
    if (c == ':') {
      Advance();
      std::string local;
      while (!AtEnd() && (IsNameChar(Peek()))) {
        local += Peek();
        Advance();
      }
      return Token{TokenKind::kPName, ":" + local, line};
    }

    // Multi-char operators.
    if (c == '!' && Peek(1) == '=') {
      Advance();
      Advance();
      return Token{TokenKind::kOp, "!=", line};
    }
    if (c == '>' && Peek(1) == '=') {
      Advance();
      Advance();
      return Token{TokenKind::kOp, ">=", line};
    }
    if (c == '&' && Peek(1) == '&') {
      Advance();
      Advance();
      return Token{TokenKind::kOp, "&&", line};
    }
    if (c == '|' && Peek(1) == '|') {
      Advance();
      Advance();
      return Token{TokenKind::kOp, "||", line};
    }
    if (c == '^' && Peek(1) == '^') {
      Advance();
      Advance();
      return Token{TokenKind::kOp, "^^", line};
    }

    // Single punctuation.
    static constexpr std::string_view kPunct = "{}()[],;.*+?/|^!=-<>";
    if (kPunct.find(c) != std::string_view::npos) {
      Advance();
      return Token{TokenKind::kPunct, std::string(1, c), line};
    }
    return Err(std::string("unexpected character '") + c + "'");
  }

  std::string_view text_;
  size_t pos_ = 0;
  int line_ = 1;
};

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view text) {
  return Lexer(text).Run();
}

}  // namespace sparqlog::sparql
