// Unit tests for the RDF substrate: term normalization, dictionary
// interning, graph indexes, dataset construction (FROM / FROM NAMED),
// the Turtle/TriG parser, and serialization round-trips.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/graph.h"
#include "rdf/term.h"
#include "rdf/turtle_parser.h"
#include "rdf/writer.h"

namespace sparqlog::rdf {
namespace {

TEST(TermTest, XsdStringNormalizesToSimpleLiteral) {
  Term a = Term::Literal("abc");
  Term b = Term::Literal("abc", std::string(xsd::kString));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.CanonicalKey(), b.CanonicalKey());
}

TEST(TermTest, LanguageTagLowercasedAndExclusive) {
  Term t = Term::Literal("chat", "", "EN");
  EXPECT_EQ(t.lang, "en");
  EXPECT_TRUE(t.datatype.empty());
}

TEST(TermTest, NumericCaching) {
  Term i = Term::Literal("42", std::string(xsd::kInteger));
  EXPECT_EQ(i.numeric_kind, NumericKind::kInteger);
  EXPECT_EQ(i.int_value, 42);
  Term d = Term::Literal("2.5", std::string(xsd::kDouble));
  EXPECT_EQ(d.numeric_kind, NumericKind::kDouble);
  EXPECT_DOUBLE_EQ(d.AsDouble(), 2.5);
  Term bad = Term::Literal("xyz", std::string(xsd::kInteger));
  EXPECT_EQ(bad.numeric_kind, NumericKind::kNone);
  Term plain = Term::Literal("42");
  EXPECT_FALSE(plain.is_numeric());  // plain literals are not numeric
}

TEST(TermTest, Rendering) {
  EXPECT_EQ(Term::Iri("http://x").ToString(), "<http://x>");
  EXPECT_EQ(Term::Blank("b1").ToString(), "_:b1");
  EXPECT_EQ(Term::Literal("a\"b").ToString(), "\"a\\\"b\"");
  EXPECT_EQ(Term::Literal("hi", "", "en").ToString(), "\"hi\"@en");
  EXPECT_EQ(Term::Literal("5", std::string(xsd::kInteger)).ToString(),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>");
  EXPECT_EQ(Term::Undef().ToString(), "UNDEF");
}

TEST(DictionaryTest, InternIsIdempotent) {
  TermDictionary dict;
  TermId a = dict.InternIri("http://x");
  TermId b = dict.InternIri("http://x");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, TermDictionary::kUndef);
  EXPECT_EQ(dict.get(a).lexical, "http://x");
}

TEST(DictionaryTest, UndefIsSlotZero) {
  TermDictionary dict;
  EXPECT_EQ(dict.size(), 1u);
  EXPECT_TRUE(dict.get(TermDictionary::kUndef).is_undef());
}

TEST(DictionaryTest, DistinctKindsDistinctIds) {
  TermDictionary dict;
  TermId iri = dict.InternIri("x");
  TermId lit = dict.InternLiteral("x");
  TermId bn = dict.InternBlank("x");
  EXPECT_NE(iri, lit);
  EXPECT_NE(lit, bn);
  EXPECT_NE(iri, bn);
}

TEST(DictionaryTest, LookupWithoutInterning) {
  TermDictionary dict;
  EXPECT_FALSE(dict.Lookup(Term::Iri("http://nope")).has_value());
  TermId id = dict.InternIri("http://yes");
  EXPECT_EQ(*dict.Lookup(Term::Iri("http://yes")), id);
}

TEST(DictionaryTest, NumericHelpers) {
  TermDictionary dict;
  TermId i = dict.InternInteger(-3);
  EXPECT_EQ(dict.get(i).int_value, -3);
  TermId b = dict.InternBoolean(true);
  EXPECT_EQ(dict.get(b).lexical, "true");
  EXPECT_EQ(dict.get(b).datatype, xsd::kBoolean);
}

/// Concurrent queries intern into one shared dictionary: every thread
/// interns an overlapping stream of terms; a given term content must
/// resolve to exactly one id, ids must round-trip through the lock-free
/// get(), and the count must equal the distinct-content count. (TSan runs
/// this suite: a racy slot publish or index stripe would surface here.)
TEST(DictionaryTest, ConcurrentInterningIsConsistent) {
  constexpr size_t kWorkers = 8;
  constexpr int kDistinct = 300;
  TermDictionary dict;
  std::vector<std::vector<TermId>> ids(kWorkers);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      std::vector<TermId>& mine = ids[w];
      for (int i = 0; i < kDistinct; ++i) {
        // Overlapping across threads, interleaved kinds.
        int k = (i + static_cast<int>(w) * 37) % kDistinct;
        mine.push_back(dict.InternIri("http://c.org/e" + std::to_string(k)));
        mine.push_back(dict.InternInteger(k));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Same content -> same id, across all threads.
  for (size_t w = 1; w < kWorkers; ++w) {
    for (int i = 0; i < kDistinct; ++i) {
      int k = (i + static_cast<int>(w) * 37) % kDistinct;
      TermId iri = dict.InternIri("http://c.org/e" + std::to_string(k));
      TermId num = dict.InternInteger(k);
      EXPECT_EQ(ids[w][2 * i], iri);
      EXPECT_EQ(ids[w][2 * i + 1], num);
    }
  }
  // undef + kDistinct IRIs + kDistinct integers.
  EXPECT_EQ(dict.size(), 1u + 2u * kDistinct);
  // Lock-free get() round-trips content.
  for (int k = 0; k < kDistinct; ++k) {
    auto id = dict.Lookup(Term::Iri("http://c.org/e" + std::to_string(k)));
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(dict.get(*id).lexical, "http://c.org/e" + std::to_string(k));
  }
}

class GraphTest : public ::testing::Test {
 protected:
  GraphTest() {
    s_ = dict_.InternIri("s");
    p_ = dict_.InternIri("p");
    q_ = dict_.InternIri("q");
    o1_ = dict_.InternIri("o1");
    o2_ = dict_.InternIri("o2");
    graph_.Add(s_, p_, o1_);
    graph_.Add(s_, p_, o2_);
    graph_.Add(o1_, q_, o2_);
  }
  TermDictionary dict_;
  Graph graph_;
  TermId s_, p_, q_, o1_, o2_;
};

TEST_F(GraphTest, AddDeduplicates) {
  EXPECT_EQ(graph_.size(), 3u);
  EXPECT_FALSE(graph_.Add(s_, p_, o1_));
  EXPECT_EQ(graph_.size(), 3u);
}

TEST_F(GraphTest, MatchPatterns) {
  size_t n = 0;
  graph_.Match(s_, std::nullopt, std::nullopt, [&](const Triple&) { ++n; });
  EXPECT_EQ(n, 2u);
  n = 0;
  graph_.Match(std::nullopt, p_, o2_, [&](const Triple&) { ++n; });
  EXPECT_EQ(n, 1u);
  n = 0;
  graph_.Match(std::nullopt, std::nullopt, std::nullopt,
               [&](const Triple&) { ++n; });
  EXPECT_EQ(n, 3u);
  n = 0;
  graph_.Match(o2_, std::nullopt, std::nullopt, [&](const Triple&) { ++n; });
  EXPECT_EQ(n, 0u);
  // Fully bound.
  n = 0;
  graph_.Match(o1_, q_, o2_, [&](const Triple&) { ++n; });
  EXPECT_EQ(n, 1u);
}

TEST_F(GraphTest, SubjectsAndObjectsIsDeduplicatedAndIncremental) {
  const auto& nodes = graph_.SubjectsAndObjects();
  EXPECT_EQ(nodes.size(), 3u);  // s, o1, o2 (p/q are predicates only)
  graph_.Add(o2_, q_, dict_.InternIri("o3"));
  EXPECT_EQ(graph_.SubjectsAndObjects().size(), 4u);
}

TEST_F(GraphTest, Predicates) {
  auto preds = graph_.Predicates();
  EXPECT_EQ(preds.size(), 2u);
}

TEST(DatasetTest, WithClausesMergesFromGraphs) {
  TermDictionary dict;
  Dataset store(&dict);
  TermId g1 = dict.InternIri("g1"), g2 = dict.InternIri("g2");
  TermId a = dict.InternIri("a"), p = dict.InternIri("p");
  store.named_graph(g1).Add(a, p, dict.InternIri("x"));
  store.named_graph(g2).Add(a, p, dict.InternIri("y"));

  Dataset scoped = store.WithClauses({g1, g2}, {g1});
  EXPECT_EQ(scoped.default_graph().size(), 2u);
  EXPECT_NE(scoped.FindNamedGraph(g1), nullptr);
  EXPECT_EQ(scoped.FindNamedGraph(g2), nullptr);
  // Unknown graph names resolve to empty graphs.
  Dataset empty = store.WithClauses({dict.InternIri("nope")}, {});
  EXPECT_EQ(empty.default_graph().size(), 0u);
}

TEST(TurtleParserTest, PrefixesAndSugar) {
  TermDictionary dict;
  Dataset dataset(&dict);
  auto st = ParseTurtle(R"(
    @prefix ex: <http://ex.org/> .
    ex:a a ex:T ;
         ex:p ex:b , ex:c .
  )",
                        &dataset);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(dataset.default_graph().size(), 3u);
  TermId type =
      dict.InternIri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
  size_t n = 0;
  dataset.default_graph().Match(std::nullopt, type, std::nullopt,
                                [&](const Triple&) { ++n; });
  EXPECT_EQ(n, 1u);
}

TEST(TurtleParserTest, LiteralsOfAllShapes) {
  TermDictionary dict;
  Dataset dataset(&dict);
  auto st = ParseTurtle(R"(
    @prefix ex: <http://ex.org/> .
    @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
    ex:a ex:p "plain" .
    ex:a ex:p "tagged"@en-GB .
    ex:a ex:p "7"^^xsd:integer .
    ex:a ex:p 42 .
    ex:a ex:p 2.5 .
    ex:a ex:p 1.0e3 .
    ex:a ex:p true .
    ex:a ex:p "esc\"aped\nline" .
    ex:a ex:p """long
string""" .
  )",
                        &dataset);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(dataset.default_graph().size(), 9u);
  EXPECT_TRUE(dict.Lookup(Term::Literal("tagged", "", "en-gb")).has_value());
  EXPECT_TRUE(
      dict.Lookup(Term::Literal("7", std::string(xsd::kInteger))).has_value());
  EXPECT_TRUE(dict.Lookup(Term::Literal("esc\"aped\nline")).has_value());
}

TEST(TurtleParserTest, BlankNodes) {
  TermDictionary dict;
  Dataset dataset(&dict);
  auto st = ParseTurtle(R"(
    @prefix ex: <http://ex.org/> .
    _:x ex:p ex:a .
    [ ex:q ex:b ] ex:p ex:c .
  )",
                        &dataset);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(dataset.default_graph().size(), 3u);
}

TEST(TurtleParserTest, GraphBlocks) {
  TermDictionary dict;
  Dataset dataset(&dict);
  auto st = ParseTurtle(R"(
    @prefix ex: <http://ex.org/> .
    ex:a ex:p ex:b .
    GRAPH <http://g1> { ex:a ex:p ex:c . ex:c ex:p ex:d . }
  )",
                        &dataset);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(dataset.default_graph().size(), 1u);
  const Graph* g1 = dataset.FindNamedGraph(dict.InternIri("http://g1"));
  ASSERT_NE(g1, nullptr);
  EXPECT_EQ(g1->size(), 2u);
}

TEST(TurtleParserTest, Errors) {
  TermDictionary dict;
  Dataset dataset(&dict);
  EXPECT_TRUE(ParseTurtle("ex:a ex:p ex:b .", &dataset).IsParseError())
      << "undeclared prefix must fail";
  EXPECT_TRUE(ParseTurtle("<a> <b> .", &dataset).IsParseError());
  EXPECT_TRUE(
      ParseTurtle("<a> <b> \"unterminated .", &dataset).IsParseError());
  EXPECT_TRUE(ParseTurtle("<a> <b> (1 2) .", &dataset).IsParseError())
      << "collections are rejected";
}

TEST(NQuadsTest, TriplesAndQuads) {
  TermDictionary dict;
  Dataset dataset(&dict);
  auto st = ParseNQuads(
      "<http://a> <http://p> \"x\" .\n"
      "# comment\n"
      "<http://a> <http://p> <http://b> <http://g> .\n"
      "<http://a> <http://p> \"t\"@en <http://g> .\n",
      &dataset);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(dataset.default_graph().size(), 1u);
  const Graph* g = dataset.FindNamedGraph(dict.InternIri("http://g"));
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->size(), 2u);
}

TEST(WriterTest, RoundTripPreservesDataset) {
  TermDictionary dict;
  Dataset original(&dict);
  auto st = ParseTurtle(R"(
    @prefix ex: <http://ex.org/> .
    ex:a ex:p "x"@en .
    ex:a ex:p "7"^^<http://www.w3.org/2001/XMLSchema#integer> .
    _:b ex:q ex:a .
    GRAPH <http://g> { ex:a ex:p ex:c . }
  )",
                        &original);
  ASSERT_TRUE(st.ok());

  std::string text = WriteTrig(original);
  Dataset reparsed(&dict);
  st = ParseTurtle(text, &reparsed);
  ASSERT_TRUE(st.ok()) << st.ToString() << "\n" << text;
  EXPECT_EQ(reparsed.default_graph().size(), original.default_graph().size());
  for (const Triple& t : original.default_graph().triples()) {
    EXPECT_TRUE(reparsed.default_graph().Contains(t));
  }
  const Graph* g = reparsed.FindNamedGraph(dict.InternIri("http://g"));
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->size(), 1u);
}

}  // namespace
}  // namespace sparqlog::rdf
