// Unit tests for the SPARQL front end: lexer, parser (all supported
// constructs of Table 1 plus rejection of the unsupported ones), the
// join-order optimizer, and the feature analyzer behind Table 2.

#include <gtest/gtest.h>

#include "rdf/dictionary.h"
#include "sparql/ast.h"
#include "sparql/features.h"
#include "sparql/lexer.h"
#include "sparql/optimizer.h"
#include "sparql/parser.h"
#include "sparql/printer.h"

namespace sparqlog::sparql {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  Result<Query> Parse(const std::string& text) {
    return ParseQuery("PREFIX ex: <http://ex.org/>\n" + text, &dict_);
  }
  Query MustParse(const std::string& text) {
    auto q = Parse(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(q).ValueOrDie();
  }
  rdf::TermDictionary dict_;
};

TEST(LexerTest, TokenKinds) {
  auto tokens =
      Tokenize("SELECT ?x $y <http://a> ex:b _:c \"str\"@en 12 3.5 1e2 "
               "{ } != <= && || ^^ a")
          .ValueOrDie();
  ASSERT_GE(tokens.size(), 18u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kName);
  EXPECT_EQ(tokens[1].kind, TokenKind::kVar);
  EXPECT_EQ(tokens[1].text, "x");
  EXPECT_EQ(tokens[2].kind, TokenKind::kVar);
  EXPECT_EQ(tokens[3].kind, TokenKind::kIri);
  EXPECT_EQ(tokens[4].kind, TokenKind::kPName);
  EXPECT_EQ(tokens[5].kind, TokenKind::kBlank);
  EXPECT_EQ(tokens[6].kind, TokenKind::kString);
  EXPECT_EQ(tokens[7].kind, TokenKind::kLangTag);
  EXPECT_EQ(tokens[8].kind, TokenKind::kInteger);
  EXPECT_EQ(tokens[9].kind, TokenKind::kDecimal);
  EXPECT_EQ(tokens[10].kind, TokenKind::kDouble);
}

TEST(LexerTest, IriVersusLessThan) {
  auto tokens = Tokenize("FILTER (?x < 5)").ValueOrDie();
  bool saw_lt = false;
  for (const auto& t : tokens) {
    if (t.IsPunct('<')) saw_lt = true;
    EXPECT_NE(t.kind, TokenKind::kIri);
  }
  EXPECT_TRUE(saw_lt);
  auto tokens2 = Tokenize("?x <http://p> ?y").ValueOrDie();
  EXPECT_EQ(tokens2[1].kind, TokenKind::kIri);
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = Tokenize("SELECT # comment ?notavar\n ?x").ValueOrDie();
  EXPECT_EQ(tokens[1].kind, TokenKind::kVar);
  EXPECT_EQ(tokens[1].text, "x");
}

TEST_F(ParserTest, BasicSelect) {
  Query q = MustParse("SELECT ?s ?o WHERE { ?s ex:p ?o . }");
  EXPECT_EQ(q.form, QueryForm::kSelect);
  EXPECT_FALSE(q.distinct);
  ASSERT_EQ(q.select.size(), 2u);
  EXPECT_EQ(q.select[0].var, "s");
  ASSERT_EQ(q.where->kind, PatternKind::kTriple);
}

TEST_F(ParserTest, SelectStarAndDistinct) {
  Query q = MustParse("SELECT DISTINCT * WHERE { ?s ?p ?o }");
  EXPECT_TRUE(q.distinct);
  EXPECT_TRUE(q.select_all);
  EXPECT_EQ(q.ProjectedVars(), (std::vector<std::string>{"o", "p", "s"}));
}

TEST_F(ParserTest, PredicateObjectListsDesugarToJoins) {
  Query q = MustParse("SELECT * WHERE { ?s ex:p ?a , ?b ; ex:q ?c . }");
  // Three triples folded into two joins.
  ASSERT_EQ(q.where->kind, PatternKind::kJoin);
  EXPECT_EQ(q.where->Vars(),
            (std::vector<std::string>{"a", "b", "c", "s"}));
}

TEST_F(ParserTest, OptionalUnionMinusGraphFilter) {
  Query q = MustParse(R"(
    SELECT ?s WHERE {
      { ?s ex:a ?x } UNION { ?s ex:b ?x }
      OPTIONAL { ?s ex:c ?y }
      MINUS { ?s ex:d ?z }
      GRAPH ?g { ?s ex:e ?w }
      FILTER (?x > 5)
    })");
  // Filters hoist to the top of the group.
  ASSERT_EQ(q.where->kind, PatternKind::kFilter);
  const Pattern* below = q.where->left.get();
  ASSERT_EQ(below->kind, PatternKind::kJoin);  // graph joined last
  EXPECT_EQ(below->right->kind, PatternKind::kGraph);
  EXPECT_EQ(below->left->kind, PatternKind::kMinus);
  EXPECT_EQ(below->left->left->kind, PatternKind::kOptional);
  EXPECT_EQ(below->left->left->left->kind, PatternKind::kUnion);
}

TEST_F(ParserTest, OptionalFilterStaysInsideOptional) {
  Query q = MustParse(
      "SELECT * WHERE { ?s ex:p ?x OPTIONAL { ?s ex:q ?y FILTER(?y > ?x) } }");
  ASSERT_EQ(q.where->kind, PatternKind::kOptional);
  EXPECT_EQ(q.where->right->kind, PatternKind::kFilter);
}

TEST_F(ParserTest, PropertyPathForms) {
  struct Case {
    const char* text;
    PathKind kind;
  };
  const Case cases[] = {
      {"ex:p|ex:q", PathKind::kAlternative},
      {"ex:p/ex:q", PathKind::kSequence},
      {"^ex:p", PathKind::kInverse},
      {"ex:p?", PathKind::kZeroOrOne},
      {"ex:p+", PathKind::kOneOrMore},
      {"ex:p*", PathKind::kZeroOrMore},
      {"!ex:p", PathKind::kNegated},
      {"!(ex:p|^ex:q)", PathKind::kNegated},
      {"ex:p{3}", PathKind::kExactly},
      {"ex:p{2,}", PathKind::kNOrMore},
      {"ex:p{0,3}", PathKind::kUpTo},
      {"(ex:p/ex:q)+", PathKind::kOneOrMore},
  };
  for (const Case& c : cases) {
    Query q = MustParse(std::string("SELECT * WHERE { ?s ") + c.text +
                        " ?o }");
    ASSERT_EQ(q.where->kind, PatternKind::kPath) << c.text;
    EXPECT_EQ(q.where->path->kind, c.kind) << c.text;
  }
  // A plain IRI path is a triple pattern, not a path pattern.
  Query q = MustParse("SELECT * WHERE { ?s ex:p ?o }");
  EXPECT_EQ(q.where->kind, PatternKind::kTriple);
}

TEST_F(ParserTest, CountedRangeDesugars) {
  Query q = MustParse("SELECT * WHERE { ?s ex:p{2,4} ?o }");
  ASSERT_EQ(q.where->kind, PatternKind::kPath);
  // {2,4} => p{2} / p{0,2}.
  ASSERT_EQ(q.where->path->kind, PathKind::kSequence);
  EXPECT_EQ(q.where->path->left->kind, PathKind::kExactly);
  EXPECT_EQ(q.where->path->left->count, 2u);
  EXPECT_EQ(q.where->path->right->kind, PathKind::kUpTo);
  EXPECT_EQ(q.where->path->right->count, 2u);
}

TEST_F(ParserTest, NegatedPropertySetMembers) {
  Query q = MustParse("SELECT * WHERE { ?s !(ex:p|^ex:q|ex:r) ?o }");
  ASSERT_EQ(q.where->path->kind, PathKind::kNegated);
  EXPECT_EQ(q.where->path->neg_fwd.size(), 2u);
  EXPECT_EQ(q.where->path->neg_bwd.size(), 1u);
}

TEST_F(ParserTest, Expressions) {
  Query q = MustParse(R"(
    SELECT ?x WHERE {
      ?s ex:p ?x .
      FILTER (!BOUND(?y) && (?x + 2 * 3 >= 7 || regex(STR(?x), "a.c", "i")))
    })");
  ASSERT_EQ(q.where->kind, PatternKind::kFilter);
  const Expr& e = *q.where->condition;
  EXPECT_EQ(e.kind, ExprKind::kAnd);
  EXPECT_EQ(e.args[0]->kind, ExprKind::kNot);
  EXPECT_EQ(e.args[1]->kind, ExprKind::kOr);
  // Precedence: ?x + (2*3) >= 7.
  const Expr& cmp = *e.args[1]->args[0];
  EXPECT_EQ(cmp.kind, ExprKind::kCompare);
  EXPECT_EQ(cmp.compare_op, CompareOp::kGe);
  EXPECT_EQ(cmp.args[0]->kind, ExprKind::kArith);
  EXPECT_EQ(cmp.args[0]->arith_op, ArithOp::kAdd);
  EXPECT_EQ(cmp.args[0]->args[1]->arith_op, ArithOp::kMul);
}

TEST_F(ParserTest, SolutionModifiers) {
  Query q = MustParse(
      "SELECT ?x WHERE { ?x ex:p ?y } ORDER BY DESC(?y) ?x LIMIT 5 OFFSET 2");
  ASSERT_EQ(q.order_by.size(), 2u);
  EXPECT_TRUE(q.order_by[0].descending);
  EXPECT_FALSE(q.order_by[1].descending);
  EXPECT_EQ(*q.limit, 5u);
  EXPECT_EQ(*q.offset, 2u);
}

TEST_F(ParserTest, ComplexOrderKeys) {
  Query q = MustParse(
      "SELECT ?x ?h WHERE { ?x ex:p ?h } ORDER BY !BOUND(?h) STRLEN(?x)");
  ASSERT_EQ(q.order_by.size(), 2u);
  EXPECT_EQ(q.order_by[0].expr->kind, ExprKind::kNot);
  EXPECT_EQ(q.order_by[1].expr->kind, ExprKind::kBuiltin);
}

TEST_F(ParserTest, AggregatesAndGroupBy) {
  Query q = MustParse(
      "SELECT ?x (COUNT(DISTINCT ?y) AS ?n) (SUM(?z) AS ?s) WHERE "
      "{ ?x ex:p ?y . ?x ex:q ?z } GROUP BY ?x");
  EXPECT_TRUE(q.HasAggregates());
  ASSERT_EQ(q.select.size(), 3u);
  EXPECT_FALSE(q.select[0].is_aggregate);
  EXPECT_TRUE(q.select[1].agg_distinct);
  EXPECT_EQ(q.select[1].alias, "n");
  EXPECT_EQ(q.select[2].fn, AggregateFn::kSum);
  EXPECT_EQ(q.group_by, (std::vector<std::string>{"x"}));
}

TEST_F(ParserTest, AskAndDatasetClauses) {
  Query q = MustParse(
      "ASK FROM <http://g1> FROM NAMED <http://g2> { ?s ex:p ?o }");
  EXPECT_EQ(q.form, QueryForm::kAsk);
  EXPECT_EQ(q.from.size(), 1u);
  EXPECT_EQ(q.from_named.size(), 1u);
}

TEST_F(ParserTest, UnsupportedFeaturesAreNotSupportedNotParseError) {
  const char* unsupported[] = {
      "CONSTRUCT { ?s ex:p ?o } WHERE { ?s ex:p ?o }",
      "DESCRIBE ?x WHERE { ?x ex:p ?o }",
      "SELECT ?x WHERE { ?x ex:p ?o . FILTER NOT EXISTS { ?x ex:q ?z } }",
      "SELECT ?x WHERE { ?x ex:p ?o . BIND(?o AS ?b) }",
      "SELECT ?x WHERE { VALUES ?x { ex:a } ?x ex:p ?o }",
      "SELECT ?x WHERE { { SELECT ?x WHERE { ?x ex:p ?o } } }",
      "SELECT ?x (COUNT(?y) AS ?c) WHERE { ?x ex:p ?y } GROUP BY ?x "
      "HAVING (COUNT(?y) > 1)",
      "SELECT ?x WHERE { ?x ex:p ?o . FILTER (?o IN (ex:a, ex:b)) }",
      "SELECT ?x WHERE { SERVICE <http://remote> { ?x ex:p ?o } }",
  };
  for (const char* text : unsupported) {
    auto q = Parse(text);
    ASSERT_FALSE(q.ok()) << text;
    EXPECT_TRUE(q.status().IsNotSupported()) << q.status().ToString();
  }
}

TEST_F(ParserTest, SyntaxErrors) {
  EXPECT_TRUE(Parse("SELECT WHERE { }").status().IsParseError());
  EXPECT_TRUE(Parse("SELECT ?x WHERE { ?x ex:p }").status().IsParseError());
  EXPECT_TRUE(Parse("SELECT ?x { ?x ex:p ?y ").status().IsParseError());
  EXPECT_TRUE(
      Parse("SELECT ?x WHERE { ?x unknown:p ?y }").status().IsParseError());
}

TEST_F(ParserTest, PrinterRoundTripsStructure) {
  Query q = MustParse(R"(
    SELECT DISTINCT ?x WHERE {
      ?x ex:p+ ?y . OPTIONAL { ?y ex:q ?z }
      FILTER regex(?z, "v")
    } ORDER BY ?x LIMIT 3)");
  std::string text = ToString(q, dict_);
  EXPECT_NE(text.find("SELECT DISTINCT ?x"), std::string::npos);
  EXPECT_NE(text.find("Optional"), std::string::npos);
  EXPECT_NE(text.find("REGEX"), std::string::npos);
  EXPECT_NE(text.find("LIMIT 3"), std::string::npos);
}

TEST_F(ParserTest, OptimizerAvoidsCartesianProducts) {
  Query q = MustParse(R"(
    SELECT * WHERE {
      ?a ex:t ex:Article .
      ?b ex:t ex:Article .
      ?a ex:c ?p .
      ?b ex:c ?p .
    })");
  PatternPtr optimized = ReorderJoins(q.where);
  // Walk the left-deep chain and check that every conjunct after the first
  // shares a variable with the prefix.
  std::vector<const Pattern*> conjuncts;
  const Pattern* cur = optimized.get();
  while (cur->kind == PatternKind::kJoin) {
    conjuncts.push_back(cur->right.get());
    cur = cur->left.get();
  }
  conjuncts.push_back(cur);
  std::reverse(conjuncts.begin(), conjuncts.end());
  std::set<std::string> bound;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    auto vars = conjuncts[i]->Vars();
    if (i > 0) {
      bool connected = false;
      for (const auto& v : vars) connected |= bound.count(v) > 0;
      EXPECT_TRUE(connected) << "conjunct " << i << " is a cartesian product";
    }
    for (const auto& v : vars) bound.insert(v);
  }
}

TEST_F(ParserTest, OptimizerPreservesVariables) {
  Query q = MustParse(
      "SELECT * WHERE { ?a ex:p ?b . ?c ex:q ?d . OPTIONAL { ?a ex:r ?e } }");
  PatternPtr optimized = ReorderJoins(q.where);
  EXPECT_EQ(optimized->Vars(), q.where->Vars());
}

TEST(FeatureAnalyzerTest, DetectsTable2Columns) {
  rdf::TermDictionary dict;
  auto q = ParseQuery(R"(
    PREFIX ex: <http://ex.org/>
    SELECT DISTINCT ?x WHERE {
      { ?x ex:a/ex:b ?y } UNION { ?x ex:c|ex:d ?y }
      OPTIONAL { ?x ex:e ?z }
      GRAPH ?g { ?x ex:f ?w }
      FILTER regex(?y, "p")
    })",
                      &dict)
               .ValueOrDie();
  FeatureSet f = AnalyzeFeatures(q);
  EXPECT_TRUE(f.distinct);
  EXPECT_TRUE(f.filter);
  EXPECT_TRUE(f.regex);
  EXPECT_TRUE(f.optional);
  EXPECT_TRUE(f.union_);
  EXPECT_TRUE(f.graph);
  EXPECT_TRUE(f.path_seq);
  EXPECT_TRUE(f.path_alt);
  EXPECT_FALSE(f.group_by);
  EXPECT_FALSE(f.minus);
}

// --- nesting depth --------------------------------------------------------

/// "SELECT * WHERE " followed by `depth` nested groups around one triple
/// pattern; the WHERE group is nesting level 1.
std::string NestedGroups(size_t depth) {
  return "SELECT * WHERE " + std::string(depth, '{') + " ?s ?p ?o " +
         std::string(depth, '}');
}

/// A FILTER whose expression nests `depth` levels deep: the group is
/// level 1, and each expression level (every bracket inside FILTER(...),
/// then the variable) one more.
std::string NestedFilter(size_t depth) {
  const size_t brackets = depth - 2;
  return "SELECT * WHERE { ?s ?p ?o FILTER(" + std::string(brackets, '(') +
         "?o" + std::string(brackets, ')') + ") }";
}

/// A bracketed property path nesting `depth` levels deep: the group is
/// level 1, and each path primary (every bracket, then the IRI) one more.
std::string NestedPath(size_t depth) {
  const size_t brackets = depth - 2;
  return "SELECT * WHERE { ?s " + std::string(brackets, '(') +
         "<http://ex.org/p>" + std::string(brackets, ')') + " ?o }";
}

void ExpectTooDeep(const Result<Query>& q) {
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument)
      << q.status().ToString();
  EXPECT_NE(q.status().message().find("at byte "), std::string::npos)
      << q.status().ToString();
}

TEST(NestingDepthTest, AcceptsEveryKindAtTheLimit) {
  rdf::TermDictionary dict;
  for (const std::string& text :
       {NestedGroups(kMaxNestingDepth), NestedFilter(kMaxNestingDepth),
        NestedPath(kMaxNestingDepth)}) {
    auto q = ParseQuery(text, &dict);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
  }
}

TEST(NestingDepthTest, RejectsOneLevelPastTheLimitWithBytePosition) {
  rdf::TermDictionary dict;
  auto groups = ParseQuery(NestedGroups(kMaxNestingDepth + 1), &dict);
  ExpectTooDeep(groups);
  // The offending token is the innermost '{', right after the 15-byte
  // "SELECT * WHERE " and kMaxNestingDepth opening braces.
  EXPECT_NE(groups.status().message().find(
                "at byte " + std::to_string(15 + kMaxNestingDepth)),
            std::string::npos)
      << groups.status().ToString();
  ExpectTooDeep(ParseQuery(NestedFilter(kMaxNestingDepth + 1), &dict));
  ExpectTooDeep(ParseQuery(NestedPath(kMaxNestingDepth + 1), &dict));
}

/// 30k levels (about 120 KB of query, far under the server's request cap)
/// used to overflow the stack; every kind now fails cleanly, as does a
/// long chain of unary operators.
TEST(NestingDepthTest, HostileDepthIsAnErrorNotACrash) {
  rdf::TermDictionary dict;
  constexpr size_t kHostile = 30000;
  ExpectTooDeep(ParseQuery(NestedGroups(kHostile), &dict));
  ExpectTooDeep(ParseQuery(NestedFilter(kHostile), &dict));
  ExpectTooDeep(ParseQuery(NestedPath(kHostile), &dict));
  ExpectTooDeep(ParseQuery("SELECT * WHERE { ?s ?p ?o FILTER(" +
                               std::string(kHostile, '!') + "?o) }",
                           &dict));
}

TEST(FeatureAnalyzerTest, UsageRowPercentages) {
  rdf::TermDictionary dict;
  std::vector<FeatureSet> sets;
  sets.push_back(AnalyzeFeatures(
      ParseQuery("SELECT DISTINCT ?x WHERE { ?x ?p ?y }", &dict)
          .ValueOrDie()));
  sets.push_back(AnalyzeFeatures(
      ParseQuery("SELECT ?x WHERE { ?x ?p ?y }", &dict).ValueOrDie()));
  std::vector<std::string> names;
  auto row = FeatureUsageRow(sets, &names);
  ASSERT_EQ(names[0], "DIST");
  EXPECT_DOUBLE_EQ(row[0], 50.0);
}

}  // namespace
}  // namespace sparqlog::sparql
