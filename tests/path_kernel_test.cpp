// Differential suite for the transitive-closure kernel
// (datalog/tc_kernel.h): an engine with fixpoint.tc_kernel on must
// produce solution-identical results to the generic delta fixpoint —
// across the gMark path workload, on SP2Bench
// citation closures, under a mid-closure budget trip, on cyclic /
// self-loop / empty micro-graphs, and in both frontier representations
// (dense bitsets and the sorted-vector sparse fallback).

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "core/engine.h"
#include "rdf/graph.h"
#include "rdf/turtle_parser.h"
#include "workloads/gmark.h"
#include "workloads/sp2bench.h"

namespace sparqlog {
namespace {

// ThreadSanitizer slows the kernel-off million-tuple closures by an
// order of magnitude; the TSan job wants the same code paths exercised,
// not the same workload sizes, so the sweeps shrink and the per-query
// timeout loosens under instrumentation.
#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#else
constexpr bool kTsan = false;
#endif

core::Engine::Options KernelOptions(bool kernel_on) {
  core::Engine::Options o;
  o.timeout = std::chrono::seconds(kTsan ? 300 : 30);
  o.tuple_budget = 8'000'000;
  o.fixpoint.tc_kernel = kernel_on;
  return o;
}

/// Runs every query through a kernel-on and a kernel-off engine and
/// asserts identical solution multisets (and identical ordered rows when
/// the query carries ORDER BY). Returns the number of queries compared.
size_t SweepKernelDifferential(const rdf::Dataset& dataset,
                               rdf::TermDictionary* dict,
                               const std::vector<std::string>& queries) {
  core::Engine on_engine(&dataset, dict, KernelOptions(true));
  core::Engine off_engine(&dataset, dict, KernelOptions(false));
  EXPECT_TRUE(on_engine.Load().ok());
  EXPECT_TRUE(off_engine.Load().ok());
  size_t swept = 0;
  for (const std::string& text : queries) {
    auto a = on_engine.ExecuteText(text);
    auto b = off_engine.ExecuteText(text);
    if (!a.ok() && !b.ok()) continue;  // both over budget: nothing to pin
    EXPECT_TRUE(a.ok()) << text << "\n" << a.status().ToString();
    EXPECT_TRUE(b.ok()) << text << "\n" << b.status().ToString();
    if (!a.ok() || !b.ok()) continue;
    EXPECT_EQ(a->result.columns, b->result.columns) << text;
    EXPECT_TRUE(a->result.SameSolutions(b->result))
        << text << "\nkernel changed solutions ("
        << a->result.rows.size() << " vs " << b->result.rows.size()
        << " rows)";
    EXPECT_EQ(a->result.ask_value, b->result.ask_value) << text;
    ++swept;
  }
  // The kernel actually ran on the on-engine and never on the off-engine.
  EXPECT_GT(on_engine.stats().tc_kernels_hit, 0u);
  EXPECT_EQ(off_engine.stats().tc_kernels_hit, 0u);
  return swept;
}

// The full machine-generated gMark path workload (sequence, alternative,
// inverse, the recursive forms, counted forms).
TEST(PathKernelDifferentialTest, GmarkQueriesMatch) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  workloads::GmarkScenario scenario = workloads::GmarkTest();
  workloads::GenerateGmarkGraph(scenario, &dataset);
  std::vector<std::string> queries = workloads::GenerateGmarkQueries(scenario);
  EXPECT_GE(SweepKernelDifferential(dataset, &dict, queries), 30u);
}

// Recursive closures over the larger social scenario — the graph the
// perf gate (BM_PathKernel) measures, so the speedup is pinned to be a
// pure evaluation-strategy change on exactly this workload.
TEST(PathKernelDifferentialTest, GmarkSocialClosuresMatch) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  workloads::GmarkScenario scenario = workloads::GmarkSocial();
  workloads::GenerateGmarkGraph(scenario, &dataset);
  const std::string ns = "http://example.org/gMark/";
  std::vector<std::string> queries = {
      "SELECT ?x ?y WHERE { ?x <" + ns + "knows>+ ?y }",
      "SELECT ?x ?y WHERE { ?x <" + ns + "follows>* ?y }",
      "SELECT DISTINCT ?x ?y WHERE { ?x (<" + ns + "likes>|<" + ns +
          "hasCreator>)+ ?y }",
      "SELECT ?y WHERE { ?y (<" + ns + "replyOf>)+ ?x ."
      " FILTER(?x = ?y) }",
  };
  if (kTsan) queries.resize(2);  // the two heaviest closures suffice
  EXPECT_EQ(SweepKernelDifferential(dataset, &dict, queries), queries.size());
}

// SP2Bench's citation graph: dcterms:references forms a DAG between
// articles; its closure (and a sequence into it) must be identical.
TEST(PathKernelDifferentialTest, Sp2bReferenceClosuresMatch) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  workloads::Sp2bOptions options;
  options.target_triples = 1500;
  workloads::GenerateSp2b(options, &dataset);
  const std::string refs = "<http://purl.org/dc/terms/references>";
  std::vector<std::string> queries = {
      "SELECT ?a ?b WHERE { ?a " + refs + "+ ?b }",
      "SELECT DISTINCT ?a ?b WHERE { ?a " + refs + "* ?b }",
      "SELECT ?a ?t WHERE { ?a " + refs +
          "+/<http://purl.org/dc/elements/1.1/title> ?t }",
  };
  EXPECT_EQ(SweepKernelDifferential(dataset, &dict, queries), queries.size());
}

// A tuple budget that trips mid-closure must surface as ResourceExhausted
// on both paths — the kernel is paced by the same ExecContext budget as
// the generic fixpoint, not allowed to run to completion first.
TEST(PathKernelDifferentialTest, BudgetTripsMidClosureOnBothPaths) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  workloads::GmarkScenario scenario = workloads::GmarkTest();
  workloads::GenerateGmarkGraph(scenario, &dataset);
  const std::string query =
      "SELECT ?x ?y WHERE { ?x (<http://example.org/gMark/p0>|"
      "<http://example.org/gMark/p1>)+ ?y }";
  for (bool kernel_on : {true, false}) {
    core::Engine::Options o = KernelOptions(kernel_on);
    o.tuple_budget = 2'000;  // the p0|p1 step alone exceeds this
    core::Engine engine(&dataset, &dict, o);
    ASSERT_TRUE(engine.Load().ok());
    auto r = engine.ExecuteText(query);
    ASSERT_FALSE(r.ok()) << "kernel_on " << kernel_on;
    EXPECT_TRUE(r.status().IsResourceExhausted())
        << "kernel_on " << kernel_on << ": " << r.status().ToString();
  }
}

// Micro-graphs where closure corner cases live: a cycle through the
// start node, a self loop, both endpoint bindings, and two-var closure.
TEST(PathKernelDifferentialTest, CyclicAndSelfLoopGraphsMatch) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  auto st = rdf::ParseTurtle(R"(
      @prefix ex: <http://ex.org/> .
      ex:a ex:p ex:b . ex:b ex:p ex:c . ex:c ex:p ex:a . ex:a ex:p ex:d .
      ex:e ex:p ex:e .
    )",
                             &dataset);
  ASSERT_TRUE(st.ok()) << st.ToString();
  std::vector<std::string> queries = {
      "PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:p+ ?y }",
      "PREFIX ex: <http://ex.org/> SELECT ?y WHERE { ex:a ex:p+ ?y }",
      "PREFIX ex: <http://ex.org/> SELECT ?x WHERE { ?x ex:p+ ex:a }",
      "PREFIX ex: <http://ex.org/> SELECT ?y WHERE { ex:e ex:p+ ?y }",
      "PREFIX ex: <http://ex.org/> SELECT DISTINCT ?x ?y "
      "WHERE { ?x ex:p* ?y }",
      "PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:p{2,} ?y }",
  };
  core::Engine on_engine(&dataset, &dict, KernelOptions(true));
  core::Engine off_engine(&dataset, &dict, KernelOptions(false));
  ASSERT_TRUE(on_engine.Load().ok());
  ASSERT_TRUE(off_engine.Load().ok());
  for (const std::string& text : queries) {
    auto a = on_engine.ExecuteText(text);
    auto b = off_engine.ExecuteText(text);
    ASSERT_TRUE(a.ok()) << text << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << text << ": " << b.status().ToString();
    EXPECT_EQ(a->result.columns, b->result.columns) << text;
    EXPECT_TRUE(a->result.SameSolutions(b->result))
        << text << ": kernel changed solutions (" << a->result.rows.size()
        << " vs " << b->result.rows.size() << " rows)";
  }
  EXPECT_GT(on_engine.stats().tc_kernels_hit, 0u);
  // A micro universe always takes the bitset representation.
  EXPECT_GT(on_engine.stats().tc_dense_frontiers, 0u);
  EXPECT_EQ(on_engine.stats().tc_sparse_frontiers, 0u);
}

// An empty graph: the closure stratum has no step edges at all; both
// paths must return zero rows without tripping anything.
TEST(PathKernelDifferentialTest, EmptyGraphMatches) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  const std::string query =
      "PREFIX ex: <http://ex.org/> SELECT ?x ?y WHERE { ?x ex:p+ ?y }";
  for (bool kernel_on : {true, false}) {
    core::Engine engine(&dataset, &dict, KernelOptions(kernel_on));
    ASSERT_TRUE(engine.Load().ok());
    auto r = engine.ExecuteText(query);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->result.rows.empty());
  }
}

// Sparse frontier mode: a constant-seeded closure walks one seed across
// a universe of several thousand nodes, which fails the seed-density
// heuristic and takes the sorted-vector representation. A 5000-node
// chain gives exactly one reachable node per round — the worst case for
// bitset clearing, the best case for sparse frontiers.
TEST(PathKernelDifferentialTest, SparseFrontierModeMatchesGeneric) {
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  const int kNodes = 5000;
  rdf::TermId p = dict.InternIri("http://ex.org/p");
  std::vector<rdf::TermId> nodes;
  nodes.reserve(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    nodes.push_back(dict.InternIri("http://ex.org/n" + std::to_string(i)));
  }
  for (int i = 0; i + 1 < kNodes; ++i) {
    dataset.default_graph().Add(nodes[i], p, nodes[i + 1]);
  }
  const std::string query =
      "SELECT ?y WHERE { <http://ex.org/n0> <http://ex.org/p>+ ?y }";

  core::Engine on_engine(&dataset, &dict, KernelOptions(true));
  core::Engine off_engine(&dataset, &dict, KernelOptions(false));
  ASSERT_TRUE(on_engine.Load().ok());
  ASSERT_TRUE(off_engine.Load().ok());
  auto a = on_engine.ExecuteText(query);
  auto b = off_engine.ExecuteText(query);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->result.rows.size(), static_cast<size_t>(kNodes - 1));
  EXPECT_TRUE(a->result.SameSolutions(b->result))
      << "sparse kernel changed solutions (" << a->result.rows.size()
      << " vs " << b->result.rows.size() << " rows)";
  EXPECT_GT(on_engine.stats().tc_kernels_hit, 0u);
  EXPECT_GT(on_engine.stats().tc_sparse_frontiers, 0u);
  EXPECT_EQ(off_engine.stats().tc_kernels_hit, 0u);
}

}  // namespace
}  // namespace sparqlog
