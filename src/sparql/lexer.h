#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

/// \file lexer.h
/// SPARQL tokenizer. Produces a flat token stream the recursive-descent
/// parser consumes; prefixed names are resolved by the parser (prefixes
/// are declared in the prologue).

namespace sparqlog::sparql {

enum class TokenKind : uint8_t {
  kEof,
  kName,      ///< bare word: keywords (SELECT, WHERE, a, true, ...)
  kIri,       ///< <...> with brackets stripped
  kPName,     ///< prefix:local (text keeps the colon)
  kVar,       ///< ?x or $x, text is the bare name
  kBlank,     ///< _:label, text is the label
  kString,    ///< quoted string, text is the unescaped body
  kLangTag,   ///< @tag
  kInteger,
  kDecimal,
  kDouble,
  kPunct,     ///< one of: { } ( ) [ ] , ; . * + ? / | ^ ! = - < >
  kOp,        ///< multi-char operator: != <= >= && || ^^
};

struct Token {
  TokenKind kind = TokenKind::kEof;
  std::string text;
  int line = 0;
  size_t offset = 0;  ///< byte offset of the token's first character

  bool IsPunct(char c) const {
    return kind == TokenKind::kPunct && text.size() == 1 && text[0] == c;
  }
  bool IsOp(std::string_view op) const {
    return kind == TokenKind::kOp && text == op;
  }
  /// Case-insensitive keyword check on a kName token.
  bool IsKeyword(std::string_view kw) const;
};

/// Tokenizes a full query string.
Result<std::vector<Token>> Tokenize(std::string_view text);

}  // namespace sparqlog::sparql
