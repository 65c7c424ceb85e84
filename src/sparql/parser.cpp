#include "sparql/parser.h"

#include <map>

#include "rdf/term.h"
#include "sparql/lexer.h"
#include "util/string_util.h"

namespace sparqlog::sparql {

namespace {

class Parser {
 public:
  Parser(std::vector<Token> tokens, rdf::TermDictionary* dict,
         ParserOptions options)
      : tokens_(std::move(tokens)), dict_(dict), options_(options) {}

  Result<Query> Run() {
    SPARQLOG_RETURN_NOT_OK(Prologue());
    Query q;
    if (PeekKeyword("SELECT")) {
      SPARQLOG_RETURN_NOT_OK(SelectQuery(&q));
    } else if (PeekKeyword("ASK")) {
      SPARQLOG_RETURN_NOT_OK(AskQuery(&q));
    } else if (PeekKeyword("CONSTRUCT") || PeekKeyword("DESCRIBE")) {
      return Status::NotSupported("query form " + Peek().text +
                                  " is not supported (Table 1)");
    } else {
      return Err("expected SELECT or ASK");
    }
    if (!Peek().IsKeyword("") && Peek().kind != TokenKind::kEof) {
      return Err("trailing input after query: '" + Peek().text + "'");
    }
    return q;
  }

 private:
  // --- token helpers -------------------------------------------------------

  const Token& Peek(size_t k = 0) const {
    size_t i = pos_ + k;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Take() {
    const Token& t = Peek();
    if (pos_ + 1 < tokens_.size()) ++pos_;
    return t;
  }
  bool PeekKeyword(std::string_view kw) const { return Peek().IsKeyword(kw); }
  bool ConsumeKeyword(std::string_view kw) {
    if (!PeekKeyword(kw)) return false;
    Take();
    return true;
  }
  bool ConsumePunct(char c) {
    if (!Peek().IsPunct(c)) return false;
    Take();
    return true;
  }
  bool ConsumeOp(std::string_view op) {
    if (!Peek().IsOp(op)) return false;
    Take();
    return true;
  }
  Status ExpectPunct(char c) {
    if (!ConsumePunct(c)) {
      return Err(std::string("expected '") + c + "', got '" + Peek().text +
                 "'");
    }
    return Status::OK();
  }
  Status Err(const std::string& what) const {
    return Status::ParseError("sparql line " + std::to_string(Peek().line) +
                              ": " + what);
  }

  /// One nesting level of the recursive descent, held for its scope.
  /// `ok()` is false once the level lies past kMaxNestingDepth.
  class Level {
   public:
    explicit Level(uint32_t* depth) : depth_(depth) { ++*depth_; }
    ~Level() { --*depth_; }
    Level(const Level&) = delete;
    Level& operator=(const Level&) = delete;
    bool ok() const { return *depth_ <= kMaxNestingDepth; }

   private:
    uint32_t* depth_;
  };
  Status TooDeep() const {
    return Status::InvalidArgument(
        "sparql: nesting deeper than " + std::to_string(kMaxNestingDepth) +
        " levels at byte " + std::to_string(Peek().offset));
  }

  // --- prologue ------------------------------------------------------------

  Status Prologue() {
    while (true) {
      if (ConsumeKeyword("PREFIX")) {
        if (Peek().kind != TokenKind::kPName) return Err("expected pname:");
        std::string pname = Take().text;
        // The lexer keeps "prefix:"+local; in a declaration local is empty.
        size_t colon = pname.find(':');
        std::string prefix = pname.substr(0, colon);
        if (Peek().kind != TokenKind::kIri) return Err("expected <IRI>");
        prefixes_[prefix] = Take().text;
      } else if (ConsumeKeyword("BASE")) {
        if (Peek().kind != TokenKind::kIri) return Err("expected <IRI>");
        base_ = Take().text;
      } else {
        return Status::OK();
      }
    }
  }

  Result<rdf::TermId> ResolvePName(const std::string& pname) {
    size_t colon = pname.find(':');
    std::string prefix = pname.substr(0, colon);
    std::string local = pname.substr(colon + 1);
    auto it = prefixes_.find(prefix);
    if (it == prefixes_.end()) {
      return Err("unknown prefix '" + prefix + ":'");
    }
    return dict_->InternIri(it->second + local);
  }

  Result<rdf::TermId> ResolveIri(const std::string& iri) {
    if (!base_.empty() && iri.find("://") == std::string::npos &&
        !StartsWith(iri, "urn:")) {
      return dict_->InternIri(base_ + iri);
    }
    return dict_->InternIri(iri);
  }

  // --- query forms ---------------------------------------------------------

  Status SelectQuery(Query* q) {
    Take();  // SELECT
    q->form = QueryForm::kSelect;
    if (ConsumeKeyword("DISTINCT")) {
      q->distinct = true;
    } else if (ConsumeKeyword("REDUCED")) {
      // REDUCED permits (but does not require) duplicate elimination; we
      // evaluate it as plain bag semantics, which is standard-conformant.
    }
    if (ConsumePunct('*')) {
      q->select_all = true;
    } else {
      while (true) {
        if (Peek().kind == TokenKind::kVar) {
          SelectItem item;
          item.var = Take().text;
          q->select.push_back(std::move(item));
        } else if (Peek().IsPunct('(')) {
          Take();
          SPARQLOG_ASSIGN_OR_RETURN(SelectItem item, AggregateItem());
          q->select.push_back(std::move(item));
        } else {
          break;
        }
      }
      if (q->select.empty()) return Err("empty SELECT clause");
    }
    SPARQLOG_RETURN_NOT_OK(DatasetClauses(q));
    ConsumeKeyword("WHERE");
    SPARQLOG_ASSIGN_OR_RETURN(q->where, GroupGraphPattern());
    return SolutionModifiers(q);
  }

  Status AskQuery(Query* q) {
    Take();  // ASK
    q->form = QueryForm::kAsk;
    SPARQLOG_RETURN_NOT_OK(DatasetClauses(q));
    ConsumeKeyword("WHERE");
    SPARQLOG_ASSIGN_OR_RETURN(q->where, GroupGraphPattern());
    return Status::OK();
  }

  Result<SelectItem> AggregateItem() {
    SelectItem item;
    item.is_aggregate = true;
    if (ConsumeKeyword("COUNT")) {
      item.fn = AggregateFn::kCount;
    } else if (ConsumeKeyword("SUM")) {
      item.fn = AggregateFn::kSum;
    } else if (ConsumeKeyword("MIN")) {
      item.fn = AggregateFn::kMin;
    } else if (ConsumeKeyword("MAX")) {
      item.fn = AggregateFn::kMax;
    } else if (ConsumeKeyword("AVG")) {
      item.fn = AggregateFn::kAvg;
    } else if (PeekKeyword("GROUP_CONCAT") || PeekKeyword("SAMPLE")) {
      return Status::NotSupported("aggregate " + Peek().text);
    } else {
      return Err("expected aggregate function");
    }
    SPARQLOG_RETURN_NOT_OK(ExpectPunct('('));
    if (ConsumeKeyword("DISTINCT")) item.agg_distinct = true;
    if (ConsumePunct('*')) {
      if (item.fn != AggregateFn::kCount) return Err("only COUNT(*) allowed");
      item.count_star = true;
    } else if (Peek().kind == TokenKind::kVar) {
      item.var = Take().text;
    } else {
      return Status::NotSupported(
          "complex expressions in aggregates are not supported");
    }
    SPARQLOG_RETURN_NOT_OK(ExpectPunct(')'));
    if (!ConsumeKeyword("AS")) return Err("expected AS in aggregate");
    if (Peek().kind != TokenKind::kVar) return Err("expected ?alias");
    item.alias = Take().text;
    SPARQLOG_RETURN_NOT_OK(ExpectPunct(')'));
    return item;
  }

  Status DatasetClauses(Query* q) {
    while (ConsumeKeyword("FROM")) {
      bool named = ConsumeKeyword("NAMED");
      rdf::TermId g;
      if (Peek().kind == TokenKind::kIri) {
        SPARQLOG_ASSIGN_OR_RETURN(g, ResolveIri(Take().text));
      } else if (Peek().kind == TokenKind::kPName) {
        SPARQLOG_ASSIGN_OR_RETURN(g, ResolvePName(Take().text));
      } else {
        return Err("expected graph IRI after FROM");
      }
      (named ? q->from_named : q->from).push_back(g);
    }
    return Status::OK();
  }

  Status SolutionModifiers(Query* q) {
    if (ConsumeKeyword("GROUP")) {
      if (!ConsumeKeyword("BY")) return Err("expected BY after GROUP");
      while (Peek().kind == TokenKind::kVar) q->group_by.push_back(Take().text);
      if (q->group_by.empty()) {
        return Status::NotSupported("GROUP BY requires simple variables");
      }
    }
    if (PeekKeyword("HAVING")) {
      return Status::NotSupported("HAVING is not supported (Table 1)");
    }
    if (ConsumeKeyword("ORDER")) {
      if (!ConsumeKeyword("BY")) return Err("expected BY after ORDER");
      while (true) {
        OrderKey key;
        if (ConsumeKeyword("ASC")) {
          SPARQLOG_RETURN_NOT_OK(ExpectPunct('('));
          SPARQLOG_ASSIGN_OR_RETURN(key.expr, Expression());
          SPARQLOG_RETURN_NOT_OK(ExpectPunct(')'));
        } else if (ConsumeKeyword("DESC")) {
          key.descending = true;
          SPARQLOG_RETURN_NOT_OK(ExpectPunct('('));
          SPARQLOG_ASSIGN_OR_RETURN(key.expr, Expression());
          SPARQLOG_RETURN_NOT_OK(ExpectPunct(')'));
        } else if (Peek().kind == TokenKind::kVar) {
          key.expr = Expr::MakeVar(Take().text);
        } else if (Peek().IsPunct('(')) {
          Take();
          SPARQLOG_ASSIGN_OR_RETURN(key.expr, Expression());
          SPARQLOG_RETURN_NOT_OK(ExpectPunct(')'));
        } else if (Peek().IsPunct('!') || IsBuiltinStart()) {
          SPARQLOG_ASSIGN_OR_RETURN(key.expr, UnaryExpression());
        } else {
          break;
        }
        q->order_by.push_back(std::move(key));
      }
      if (q->order_by.empty()) return Err("empty ORDER BY");
    }
    for (int i = 0; i < 2; ++i) {
      if (ConsumeKeyword("LIMIT")) {
        if (Peek().kind != TokenKind::kInteger) return Err("expected integer");
        q->limit = static_cast<uint64_t>(*ParseInt64(Take().text));
      } else if (ConsumeKeyword("OFFSET")) {
        if (Peek().kind != TokenKind::kInteger) return Err("expected integer");
        q->offset = static_cast<uint64_t>(*ParseInt64(Take().text));
      }
    }
    return Status::OK();
  }

  // --- graph patterns ------------------------------------------------------

  Result<PatternPtr> GroupGraphPattern() {
    Level level(&depth_);
    if (!level.ok()) return TooDeep();
    SPARQLOG_RETURN_NOT_OK(ExpectPunct('{'));
    if (PeekKeyword("SELECT")) {
      return Status::NotSupported("sub-SELECT is not supported (Table 1)");
    }
    PatternPtr current = Pattern::Empty();
    std::vector<ExprPtr> filters;
    std::vector<std::pair<bool, PatternPtr>> exists_filters;
    bool first = true;
    while (!Peek().IsPunct('}')) {
      if (Peek().kind == TokenKind::kEof) return Err("unterminated group");
      if (PeekKeyword("OPTIONAL")) {
        Take();
        SPARQLOG_ASSIGN_OR_RETURN(PatternPtr rhs, GroupGraphPattern());
        current = Pattern::Optional(std::move(current), std::move(rhs));
      } else if (PeekKeyword("MINUS")) {
        Take();
        SPARQLOG_ASSIGN_OR_RETURN(PatternPtr rhs, GroupGraphPattern());
        current = Pattern::Minus(std::move(current), std::move(rhs));
      } else if (PeekKeyword("GRAPH")) {
        Take();
        TermOrVar g;
        if (Peek().kind == TokenKind::kVar) {
          g = TermOrVar::Var(Take().text);
        } else {
          SPARQLOG_ASSIGN_OR_RETURN(rdf::TermId id, IriOrPName());
          g = TermOrVar::Const(id);
        }
        SPARQLOG_ASSIGN_OR_RETURN(PatternPtr inner, GroupGraphPattern());
        current = JoinInto(std::move(current),
                           Pattern::GraphPattern(std::move(g), std::move(inner)));
      } else if (PeekKeyword("FILTER")) {
        Take();
        bool exists = false, negated = false;
        if (PeekKeyword("EXISTS")) {
          exists = true;
        } else if (PeekKeyword("NOT") && Peek(1).IsKeyword("EXISTS")) {
          exists = true;
          negated = true;
        }
        if (exists) {
          if (!options_.extensions) {
            return Status::NotSupported(
                "FILTER (NOT) EXISTS is not supported (Table 1)");
          }
          if (negated) Take();  // NOT
          Take();               // EXISTS
          SPARQLOG_ASSIGN_OR_RETURN(PatternPtr inner, GroupGraphPattern());
          exists_filters.emplace_back(negated, std::move(inner));
        } else {
          SPARQLOG_ASSIGN_OR_RETURN(ExprPtr cond, Constraint());
          filters.push_back(std::move(cond));
        }
      } else if (PeekKeyword("BIND")) {
        if (!options_.extensions) {
          return Status::NotSupported("BIND is not supported (Table 1)");
        }
        Take();
        SPARQLOG_RETURN_NOT_OK(ExpectPunct('('));
        SPARQLOG_ASSIGN_OR_RETURN(ExprPtr expr, Expression());
        if (!ConsumeKeyword("AS")) return Err("expected AS in BIND");
        if (Peek().kind != TokenKind::kVar) return Err("expected ?var");
        std::string var = Take().text;
        SPARQLOG_RETURN_NOT_OK(ExpectPunct(')'));
        current = Pattern::Bind(std::move(current), std::move(expr),
                                std::move(var));
      } else if (PeekKeyword("VALUES")) {
        if (!options_.extensions) {
          return Status::NotSupported("VALUES is not supported (Table 1)");
        }
        Take();
        SPARQLOG_ASSIGN_OR_RETURN(PatternPtr values, ValuesBlock());
        current = JoinInto(std::move(current), std::move(values));
      } else if (PeekKeyword("SERVICE")) {
        return Status::NotSupported("SERVICE / federation is out of scope");
      } else if (Peek().IsPunct('{')) {
        // Group or UNION chain.
        SPARQLOG_ASSIGN_OR_RETURN(PatternPtr grp, GroupGraphPattern());
        while (ConsumeKeyword("UNION")) {
          SPARQLOG_ASSIGN_OR_RETURN(PatternPtr rhs, GroupGraphPattern());
          grp = Pattern::Union(std::move(grp), std::move(rhs));
        }
        current = JoinInto(std::move(current), std::move(grp));
      } else if (Peek().IsPunct('.')) {
        Take();
      } else {
        SPARQLOG_ASSIGN_OR_RETURN(PatternPtr triples, TriplesBlock());
        current = JoinInto(std::move(current), std::move(triples));
      }
      first = false;
    }
    Take();  // '}'
    (void)first;
    for (auto& f : filters) {
      current = Pattern::Filter(std::move(current), std::move(f));
    }
    for (auto& [negated, inner] : exists_filters) {
      current = Pattern::ExistsFilter(std::move(current), std::move(inner),
                                      negated);
    }
    return current;
  }

  /// VALUES ?x { v ... }  or  VALUES (?x ?y) { (v v) (UNDEF v) ... }.
  Result<PatternPtr> ValuesBlock() {
    std::vector<std::string> vars;
    if (Peek().kind == TokenKind::kVar) {
      vars.push_back(Take().text);
    } else if (ConsumePunct('(')) {
      while (Peek().kind == TokenKind::kVar) vars.push_back(Take().text);
      SPARQLOG_RETURN_NOT_OK(ExpectPunct(')'));
    } else {
      return Err("expected variable(s) after VALUES");
    }
    if (vars.empty()) return Err("VALUES with no variables");
    SPARQLOG_RETURN_NOT_OK(ExpectPunct('{'));
    std::vector<std::vector<rdf::TermId>> rows;
    bool single = vars.size() == 1 && !Peek().IsPunct('(');
    while (!Peek().IsPunct('}')) {
      if (Peek().kind == TokenKind::kEof) return Err("unterminated VALUES");
      std::vector<rdf::TermId> row;
      if (single) {
        SPARQLOG_ASSIGN_OR_RETURN(rdf::TermId v, DataValue());
        row.push_back(v);
      } else {
        SPARQLOG_RETURN_NOT_OK(ExpectPunct('('));
        for (size_t i = 0; i < vars.size(); ++i) {
          SPARQLOG_ASSIGN_OR_RETURN(rdf::TermId v, DataValue());
          row.push_back(v);
        }
        SPARQLOG_RETURN_NOT_OK(ExpectPunct(')'));
      }
      rows.push_back(std::move(row));
    }
    Take();  // '}'
    return Pattern::Values(std::move(vars), std::move(rows));
  }

  /// One VALUES cell: an RDF term or the UNDEF keyword.
  Result<rdf::TermId> DataValue() {
    if (ConsumeKeyword("UNDEF")) return rdf::TermDictionary::kUndef;
    SPARQLOG_ASSIGN_OR_RETURN(TermOrVar tv, VarOrTerm());
    if (tv.is_var) return Err("variables are not allowed in VALUES data");
    return tv.term;
  }

  static PatternPtr JoinInto(PatternPtr current, PatternPtr next) {
    if (current->kind == PatternKind::kEmpty) return next;
    return Pattern::Join(std::move(current), std::move(next));
  }

  Result<PatternPtr> TriplesBlock() {
    PatternPtr block = Pattern::Empty();
    while (true) {
      SPARQLOG_ASSIGN_OR_RETURN(TermOrVar subject, VarOrTerm());
      // Property list.
      while (true) {
        // Verb: variable or property path.
        bool verb_is_var = Peek().kind == TokenKind::kVar;
        TermOrVar verb_var;
        PathPtr path;
        if (verb_is_var) {
          verb_var = TermOrVar::Var(Take().text);
        } else {
          SPARQLOG_ASSIGN_OR_RETURN(path, ParsePath());
        }
        // Object list.
        while (true) {
          SPARQLOG_ASSIGN_OR_RETURN(TermOrVar object, VarOrTerm());
          PatternPtr triple;
          if (verb_is_var) {
            triple = Pattern::Triple(subject, verb_var, object);
          } else if (path->IsSimpleLink()) {
            triple = Pattern::Triple(subject, TermOrVar::Const(path->iri),
                                     object);
          } else {
            triple = Pattern::PathPattern(subject, path, object);
          }
          block = JoinInto(std::move(block), std::move(triple));
          if (!ConsumePunct(',')) break;
        }
        if (!ConsumePunct(';')) break;
        // Allow trailing ';' before '.' or '}'.
        if (Peek().IsPunct('.') || Peek().IsPunct('}')) break;
      }
      if (!ConsumePunct('.')) break;
      // A '.' may terminate the block.
      if (Peek().IsPunct('}') || Peek().kind == TokenKind::kEof ||
          PeekKeyword("OPTIONAL") || PeekKeyword("MINUS") ||
          PeekKeyword("FILTER") || PeekKeyword("GRAPH") ||
          PeekKeyword("BIND") || PeekKeyword("VALUES") ||
          Peek().IsPunct('{')) {
        break;
      }
    }
    return block;
  }

  Result<TermOrVar> VarOrTerm() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kVar:
        return TermOrVar::Var(Take().text);
      case TokenKind::kIri: {
        SPARQLOG_ASSIGN_OR_RETURN(rdf::TermId id, ResolveIri(Take().text));
        return TermOrVar::Const(id);
      }
      case TokenKind::kPName: {
        SPARQLOG_ASSIGN_OR_RETURN(rdf::TermId id, ResolvePName(Take().text));
        return TermOrVar::Const(id);
      }
      case TokenKind::kBlank:
        return TermOrVar::Const(dict_->InternBlank(Take().text));
      case TokenKind::kString: {
        SPARQLOG_ASSIGN_OR_RETURN(rdf::TermId id, LiteralTerm());
        return TermOrVar::Const(id);
      }
      case TokenKind::kInteger:
        return TermOrVar::Const(
            dict_->InternLiteral(Take().text, rdf::xsd::kInteger));
      case TokenKind::kDecimal:
        return TermOrVar::Const(
            dict_->InternLiteral(Take().text, rdf::xsd::kDecimal));
      case TokenKind::kDouble:
        return TermOrVar::Const(
            dict_->InternLiteral(Take().text, rdf::xsd::kDouble));
      case TokenKind::kName:
        if (t.IsKeyword("true")) {
          Take();
          return TermOrVar::Const(dict_->InternBoolean(true));
        }
        if (t.IsKeyword("false")) {
          Take();
          return TermOrVar::Const(dict_->InternBoolean(false));
        }
        if (t.IsKeyword("a")) {
          Take();
          return TermOrVar::Const(dict_->InternIri(rdf::rdfns::kType));
        }
        return Err("unexpected name '" + t.text + "' in pattern");
      case TokenKind::kPunct:
        if (t.IsPunct('[')) {
          return Status::NotSupported(
              "blank node property lists are not supported");
        }
        if (t.IsPunct('(')) {
          return Status::NotSupported("RDF collections are not supported");
        }
        return Err("unexpected '" + t.text + "' in pattern");
      default:
        return Err("unexpected token '" + t.text + "' in pattern");
    }
  }

  /// "lex" (@lang | ^^dt)? — current token is kString.
  Result<rdf::TermId> LiteralTerm() {
    std::string lex = Take().text;
    if (Peek().kind == TokenKind::kLangTag) {
      return dict_->InternLiteral(lex, "", Take().text);
    }
    if (ConsumeOp("^^")) {
      rdf::TermId dt;
      if (Peek().kind == TokenKind::kIri) {
        SPARQLOG_ASSIGN_OR_RETURN(dt, ResolveIri(Take().text));
      } else if (Peek().kind == TokenKind::kPName) {
        SPARQLOG_ASSIGN_OR_RETURN(dt, ResolvePName(Take().text));
      } else {
        return Err("expected datatype IRI after ^^");
      }
      return dict_->InternLiteral(lex, dict_->get(dt).lexical);
    }
    return dict_->InternLiteral(lex);
  }

  Result<rdf::TermId> IriOrPName() {
    if (Peek().kind == TokenKind::kIri) return ResolveIri(Take().text);
    if (Peek().kind == TokenKind::kPName) return ResolvePName(Take().text);
    if (Peek().IsKeyword("a")) {
      Take();
      return dict_->InternIri(rdf::rdfns::kType);
    }
    return Err("expected IRI, got '" + Peek().text + "'");
  }

  // --- property paths ------------------------------------------------------

  Result<PathPtr> ParsePath() { return PathAlternative(); }

  Result<PathPtr> PathAlternative() {
    SPARQLOG_ASSIGN_OR_RETURN(PathPtr left, PathSequence());
    while (ConsumePunct('|')) {
      SPARQLOG_ASSIGN_OR_RETURN(PathPtr right, PathSequence());
      left = Path::Alternative(std::move(left), std::move(right));
    }
    return left;
  }

  Result<PathPtr> PathSequence() {
    SPARQLOG_ASSIGN_OR_RETURN(PathPtr left, PathEltOrInverse());
    while (ConsumePunct('/')) {
      SPARQLOG_ASSIGN_OR_RETURN(PathPtr right, PathEltOrInverse());
      left = Path::Sequence(std::move(left), std::move(right));
    }
    return left;
  }

  Result<PathPtr> PathEltOrInverse() {
    if (ConsumePunct('^')) {
      SPARQLOG_ASSIGN_OR_RETURN(PathPtr inner, PathElt());
      return Path::Inverse(std::move(inner));
    }
    return PathElt();
  }

  Result<PathPtr> PathElt() {
    SPARQLOG_ASSIGN_OR_RETURN(PathPtr primary, PathPrimary());
    // Modifier?
    if (ConsumePunct('?')) return Path::ZeroOrOne(std::move(primary));
    if (ConsumePunct('*')) return Path::ZeroOrMore(std::move(primary));
    if (ConsumePunct('+')) return Path::OneOrMore(std::move(primary));
    if (Peek().IsPunct('{')) {
      // Counted forms {n}, {n,}, {n,m}, {,m} (gMark extension).
      Take();
      std::optional<uint32_t> lo, hi;
      if (Peek().kind == TokenKind::kInteger) {
        lo = static_cast<uint32_t>(*ParseInt64(Take().text));
      }
      bool has_comma = ConsumePunct(',');
      if (Peek().kind == TokenKind::kInteger) {
        hi = static_cast<uint32_t>(*ParseInt64(Take().text));
      }
      SPARQLOG_RETURN_NOT_OK(ExpectPunct('}'));
      if (!lo && !hi) return Err("empty counted path quantifier");
      if (!has_comma) {
        return Path::Counted(PathKind::kExactly, std::move(primary), *lo);
      }
      if (lo && !hi) {
        return Path::Counted(PathKind::kNOrMore, std::move(primary), *lo);
      }
      uint32_t lower = lo.value_or(0);
      if (lower == 0) {
        return Path::Counted(PathKind::kUpTo, std::move(primary), *hi);
      }
      // {n,m} with n>0: desugar to p{n} / p{0,m-n}.
      if (*hi < lower) return Err("bad counted path bounds");
      PathPtr exact = Path::Counted(PathKind::kExactly, primary, lower);
      if (*hi == lower) return exact;
      PathPtr rest =
          Path::Counted(PathKind::kUpTo, std::move(primary), *hi - lower);
      return Path::Sequence(std::move(exact), std::move(rest));
    }
    return primary;
  }

  Result<PathPtr> PathPrimary() {
    Level level(&depth_);
    if (!level.ok()) return TooDeep();
    if (ConsumePunct('(')) {
      SPARQLOG_ASSIGN_OR_RETURN(PathPtr inner, ParsePath());
      SPARQLOG_RETURN_NOT_OK(ExpectPunct(')'));
      return inner;
    }
    if (ConsumePunct('!')) return NegatedPropertySet();
    SPARQLOG_ASSIGN_OR_RETURN(rdf::TermId iri, IriOrPName());
    return Path::Link(iri);
  }

  Result<PathPtr> NegatedPropertySet() {
    std::vector<rdf::TermId> fwd, bwd;
    auto one = [&]() -> Status {
      if (ConsumePunct('^')) {
        SPARQLOG_ASSIGN_OR_RETURN(rdf::TermId iri, IriOrPName());
        bwd.push_back(iri);
      } else {
        SPARQLOG_ASSIGN_OR_RETURN(rdf::TermId iri, IriOrPName());
        fwd.push_back(iri);
      }
      return Status::OK();
    };
    if (ConsumePunct('(')) {
      if (!Peek().IsPunct(')')) {
        SPARQLOG_RETURN_NOT_OK(one());
        while (ConsumePunct('|')) SPARQLOG_RETURN_NOT_OK(one());
      }
      SPARQLOG_RETURN_NOT_OK(ExpectPunct(')'));
    } else {
      SPARQLOG_RETURN_NOT_OK(one());
    }
    return Path::Negated(std::move(fwd), std::move(bwd));
  }

  // --- expressions ---------------------------------------------------------

  Result<ExprPtr> Constraint() {
    if (Peek().IsPunct('(')) {
      Take();
      SPARQLOG_ASSIGN_OR_RETURN(ExprPtr e, Expression());
      SPARQLOG_RETURN_NOT_OK(ExpectPunct(')'));
      return e;
    }
    if (IsBuiltinStart()) return BuiltinCall();
    if (PeekKeyword("COALESCE") || PeekKeyword("IN") || PeekKeyword("IF")) {
      return Status::NotSupported("filter function " + Peek().text +
                                  " is not supported (Table 1)");
    }
    return Err("expected FILTER constraint");
  }

  Result<ExprPtr> Expression() { return OrExpression(); }

  Result<ExprPtr> OrExpression() {
    SPARQLOG_ASSIGN_OR_RETURN(ExprPtr left, AndExpression());
    while (ConsumeOp("||")) {
      SPARQLOG_ASSIGN_OR_RETURN(ExprPtr right, AndExpression());
      left = Expr::MakeOr(std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> AndExpression() {
    SPARQLOG_ASSIGN_OR_RETURN(ExprPtr left, RelationalExpression());
    while (ConsumeOp("&&")) {
      SPARQLOG_ASSIGN_OR_RETURN(ExprPtr right, RelationalExpression());
      left = Expr::MakeAnd(std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> RelationalExpression() {
    SPARQLOG_ASSIGN_OR_RETURN(ExprPtr left, AdditiveExpression());
    std::optional<CompareOp> op;
    if (ConsumePunct('=')) {
      op = CompareOp::kEq;
    } else if (ConsumeOp("!=")) {
      op = CompareOp::kNe;
    } else if (ConsumeOp("<=")) {
      op = CompareOp::kLe;
    } else if (ConsumeOp(">=")) {
      op = CompareOp::kGe;
    } else if (ConsumePunct('<')) {
      op = CompareOp::kLt;
    } else if (ConsumePunct('>')) {
      op = CompareOp::kGt;
    } else if (PeekKeyword("IN") ||
               (PeekKeyword("NOT") && Peek(1).IsKeyword("IN"))) {
      return Status::NotSupported("IN / NOT IN is not supported (Table 1)");
    }
    if (!op) return left;
    SPARQLOG_ASSIGN_OR_RETURN(ExprPtr right, AdditiveExpression());
    return Expr::MakeCompare(*op, std::move(left), std::move(right));
  }

  Result<ExprPtr> AdditiveExpression() {
    SPARQLOG_ASSIGN_OR_RETURN(ExprPtr left, MultiplicativeExpression());
    while (true) {
      if (ConsumePunct('+')) {
        SPARQLOG_ASSIGN_OR_RETURN(ExprPtr right, MultiplicativeExpression());
        left = Expr::MakeArith(ArithOp::kAdd, std::move(left), std::move(right));
      } else if (Peek().IsPunct('-') &&
                 !(Peek(1).kind == TokenKind::kInteger &&
                   false /* negative literals handled by lexer */)) {
        Take();
        SPARQLOG_ASSIGN_OR_RETURN(ExprPtr right, MultiplicativeExpression());
        left = Expr::MakeArith(ArithOp::kSub, std::move(left), std::move(right));
      } else {
        return left;
      }
    }
  }

  Result<ExprPtr> MultiplicativeExpression() {
    SPARQLOG_ASSIGN_OR_RETURN(ExprPtr left, UnaryExpression());
    while (true) {
      if (ConsumePunct('*')) {
        SPARQLOG_ASSIGN_OR_RETURN(ExprPtr right, UnaryExpression());
        left = Expr::MakeArith(ArithOp::kMul, std::move(left), std::move(right));
      } else if (ConsumePunct('/')) {
        SPARQLOG_ASSIGN_OR_RETURN(ExprPtr right, UnaryExpression());
        left = Expr::MakeArith(ArithOp::kDiv, std::move(left), std::move(right));
      } else {
        return left;
      }
    }
  }

  // Every expression level (bracket, argument list, unary operator)
  // passes through here once, so this is where expression depth counts.
  Result<ExprPtr> UnaryExpression() {
    Level level(&depth_);
    if (!level.ok()) return TooDeep();
    if (ConsumePunct('!')) {
      SPARQLOG_ASSIGN_OR_RETURN(ExprPtr inner, UnaryExpression());
      return Expr::MakeNot(std::move(inner));
    }
    if (ConsumePunct('-')) {
      SPARQLOG_ASSIGN_OR_RETURN(ExprPtr inner, UnaryExpression());
      return Expr::MakeNegate(std::move(inner));
    }
    if (ConsumePunct('+')) return UnaryExpression();
    return PrimaryExpression();
  }

  bool IsBuiltinStart() const {
    const Token& t = Peek();
    if (t.kind != TokenKind::kName) return false;
    static constexpr std::string_view kBuiltins[] = {
        "BOUND", "ISIRI", "ISURI", "ISBLANK", "ISLITERAL", "ISNUMERIC",
        "STR", "LANG", "DATATYPE", "REGEX", "UCASE", "LCASE", "STRLEN",
        "CONTAINS", "STRSTARTS", "STRENDS", "LANGMATCHES", "SAMETERM", "ABS"};
    for (auto b : kBuiltins) {
      if (AsciiEqualsIgnoreCase(t.text, b)) return true;
    }
    return false;
  }

  Result<ExprPtr> BuiltinCall() {
    std::string name = AsciiToUpper(Take().text);
    Builtin b;
    size_t min_args = 1, max_args = 1;
    if (name == "BOUND") {
      b = Builtin::kBound;
    } else if (name == "ISIRI" || name == "ISURI") {
      b = Builtin::kIsIri;
    } else if (name == "ISBLANK") {
      b = Builtin::kIsBlank;
    } else if (name == "ISLITERAL") {
      b = Builtin::kIsLiteral;
    } else if (name == "ISNUMERIC") {
      b = Builtin::kIsNumeric;
    } else if (name == "STR") {
      b = Builtin::kStr;
    } else if (name == "LANG") {
      b = Builtin::kLang;
    } else if (name == "DATATYPE") {
      b = Builtin::kDatatype;
    } else if (name == "REGEX") {
      b = Builtin::kRegex;
      min_args = 2;
      max_args = 3;
    } else if (name == "UCASE") {
      b = Builtin::kUCase;
    } else if (name == "LCASE") {
      b = Builtin::kLCase;
    } else if (name == "STRLEN") {
      b = Builtin::kStrLen;
    } else if (name == "CONTAINS") {
      b = Builtin::kContains;
      min_args = max_args = 2;
    } else if (name == "STRSTARTS") {
      b = Builtin::kStrStarts;
      min_args = max_args = 2;
    } else if (name == "STRENDS") {
      b = Builtin::kStrEnds;
      min_args = max_args = 2;
    } else if (name == "LANGMATCHES") {
      b = Builtin::kLangMatches;
      min_args = max_args = 2;
    } else if (name == "SAMETERM") {
      b = Builtin::kSameTerm;
      min_args = max_args = 2;
    } else if (name == "ABS") {
      b = Builtin::kAbs;
    } else {
      return Err("unknown builtin " + name);
    }
    SPARQLOG_RETURN_NOT_OK(ExpectPunct('('));
    std::vector<ExprPtr> args;
    if (!Peek().IsPunct(')')) {
      while (true) {
        SPARQLOG_ASSIGN_OR_RETURN(ExprPtr arg, Expression());
        args.push_back(std::move(arg));
        if (!ConsumePunct(',')) break;
      }
    }
    SPARQLOG_RETURN_NOT_OK(ExpectPunct(')'));
    if (args.size() < min_args || args.size() > max_args) {
      return Err(name + ": wrong argument count");
    }
    return Expr::MakeBuiltin(b, std::move(args));
  }

  Result<ExprPtr> PrimaryExpression() {
    const Token& t = Peek();
    if (t.IsPunct('(')) {
      Take();
      SPARQLOG_ASSIGN_OR_RETURN(ExprPtr e, Expression());
      SPARQLOG_RETURN_NOT_OK(ExpectPunct(')'));
      return e;
    }
    if (t.kind == TokenKind::kVar) return Expr::MakeVar(Take().text);
    if (IsBuiltinStart()) return BuiltinCall();
    if (t.kind == TokenKind::kIri) {
      SPARQLOG_ASSIGN_OR_RETURN(rdf::TermId id, ResolveIri(Take().text));
      return Expr::MakeTerm(id);
    }
    if (t.kind == TokenKind::kPName) {
      SPARQLOG_ASSIGN_OR_RETURN(rdf::TermId id, ResolvePName(Take().text));
      return Expr::MakeTerm(id);
    }
    if (t.kind == TokenKind::kString) {
      SPARQLOG_ASSIGN_OR_RETURN(rdf::TermId id, LiteralTerm());
      return Expr::MakeTerm(id);
    }
    if (t.kind == TokenKind::kInteger) {
      return Expr::MakeTerm(dict_->InternLiteral(Take().text, rdf::xsd::kInteger));
    }
    if (t.kind == TokenKind::kDecimal) {
      return Expr::MakeTerm(dict_->InternLiteral(Take().text, rdf::xsd::kDecimal));
    }
    if (t.kind == TokenKind::kDouble) {
      return Expr::MakeTerm(dict_->InternLiteral(Take().text, rdf::xsd::kDouble));
    }
    if (t.IsKeyword("true")) {
      Take();
      return Expr::MakeTerm(dict_->InternBoolean(true));
    }
    if (t.IsKeyword("false")) {
      Take();
      return Expr::MakeTerm(dict_->InternBoolean(false));
    }
    if (t.IsKeyword("COALESCE") || t.IsKeyword("IF") || t.IsKeyword("EXISTS")) {
      return Status::NotSupported("filter function " + t.text +
                                  " is not supported (Table 1)");
    }
    return Err("unexpected token '" + t.text + "' in expression");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  uint32_t depth_ = 0;  // current nesting level, see kMaxNestingDepth
  rdf::TermDictionary* dict_;
  ParserOptions options_;
  std::map<std::string, std::string> prefixes_;
  std::string base_;
};

}  // namespace

Result<Query> ParseQuery(std::string_view text, rdf::TermDictionary* dict) {
  return ParseQuery(text, dict, ParserOptions());
}

Result<Query> ParseQuery(std::string_view text, rdf::TermDictionary* dict,
                         const ParserOptions& options) {
  SPARQLOG_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(std::move(tokens), dict, options);
  return parser.Run();
}

}  // namespace sparqlog::sparql
