// Concurrency tests for the shared-Engine serving mode: N threads
// hammering one const Engine must produce results bit-identical to
// serial execution on private engines (the differential the redesigned
// Execute() API is specified by), admission control must reject excess
// in-flight queries with Unavailable while leaving the engine usable,
// per-call QueryLimits must trip independently of engine defaults, and
// Execute() before Load() must fail with FailedPrecondition. The whole
// suite is run under TSan in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "rdf/dictionary.h"
#include "rdf/graph.h"
#include "sparql/parser.h"

namespace sparqlog {
namespace {

/// Chain with shortcut edges (recursive closure is non-trivial), a
/// literal attribute, and a named graph — covers the recursive fixpoint,
/// OPTIONAL, ASK, GRAPH and FROM paths of the engine.
void BuildServingDataset(rdf::TermDictionary* dict, rdf::Dataset* dataset) {
  rdf::TermId p = dict->InternIri("http://s.org/p");
  rdf::TermId name = dict->InternIri("http://s.org/name");
  auto node = [&](size_t i) {
    return dict->InternIri("http://s.org/n" + std::to_string(i));
  };
  for (size_t i = 0; i + 1 < 90; ++i) {
    dataset->default_graph().Add(node(i), p, node(i + 1));
    if (i % 9 == 0 && i + 5 < 90) {
      dataset->default_graph().Add(node(i), p, node(i + 5));
    }
    if (i % 4 == 0) {
      dataset->default_graph().Add(
          node(i), name, dict->InternLiteral("node " + std::to_string(i)));
    }
  }
  rdf::TermId g = dict->InternIri("http://s.org/g1");
  dataset->named_graph(g).Add(node(0), p, node(50));
}

/// The mixed query stream: recursive paths (ordered and unordered),
/// plain BGPs, OPTIONAL, ASK, GRAPH and FROM scoping.
std::vector<std::string> ServingQueries() {
  const std::string p = "<http://s.org/p>";
  return {
      "SELECT ?x ?y WHERE { ?x " + p + "+ ?y } ORDER BY ?x ?y",
      "SELECT ?x ?y WHERE { ?x " + p + " ?y }",
      "SELECT ?x ?n WHERE { ?x " + p + " ?y . OPTIONAL { ?x "
          "<http://s.org/name> ?n } } ORDER BY ?x ?n",
      "ASK { <http://s.org/n0> " + p + "+ <http://s.org/n9> }",
      "SELECT ?y WHERE { <http://s.org/n3> " + p + "* ?y } ORDER BY ?y",
      "SELECT ?g ?x WHERE { GRAPH ?g { ?x " + p + " ?y } }",
      "SELECT ?x FROM <http://s.org/g1> WHERE { ?x " + p + " ?y }",
      "SELECT ?x WHERE { ?x " + p + " ?y . FILTER (?x != ?y) }",
  };
}

class ConcurrentServingTest : public ::testing::Test {
 protected:
  ConcurrentServingTest() : dataset_(&dict_) {
    BuildServingDataset(&dict_, &dataset_);
  }

  rdf::TermDictionary dict_;
  rdf::Dataset dataset_;
};

TEST_F(ConcurrentServingTest, HammerBitIdenticalToPrivateEngines) {
  const std::vector<std::string> queries = ServingQueries();

  // Serial reference: one PRIVATE engine per query, executed serially.
  // Sharing the dictionary aligns TermIds, so the comparison below is
  // bit-exact, not just structural.
  std::vector<eval::QueryResult> reference;
  for (const std::string& q : queries) {
    core::Engine private_engine(&dataset_, &dict_);
    ASSERT_TRUE(private_engine.Load().ok());
    auto r = private_engine.ExecuteText(q);
    ASSERT_TRUE(r.ok()) << q << ": " << r.status().ToString();
    reference.push_back(std::move(r->result));
  }

  // Shared engine hammered by 8 client threads, each sweeping the whole
  // mixed stream several times from a different starting offset (so hot
  // cache hits, cold translations and scoped FROM/GRAPH queries overlap).
  core::Engine shared(&dataset_, &dict_);
  ASSERT_TRUE(shared.Load().ok());

  constexpr int kThreads = 8;
  constexpr int kSweeps = 4;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int sweep = 0; sweep < kSweeps; ++sweep) {
        for (size_t i = 0; i < queries.size(); ++i) {
          size_t qi = (i + static_cast<size_t>(t)) % queries.size();
          auto got = shared.ExecuteText(queries[qi]);
          if (!got.ok()) {
            failures.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          const eval::QueryResult& want = reference[qi];
          bool same = got->result.is_ask == want.is_ask &&
                      got->result.ask_value == want.ask_value &&
                      got->result.columns == want.columns &&
                      got->result.SortedRows() == want.SortedRows();
          // Ordered queries must agree on row ORDER too, not just the
          // multiset.
          if (same && queries[qi].find("ORDER BY") != std::string::npos) {
            same = got->result.rows == want.rows;
          }
          if (!same) mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  core::Engine::EngineStats stats = shared.stats();
  EXPECT_EQ(stats.queries,
            static_cast<uint64_t>(kThreads) * kSweeps * queries.size());
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_EQ(stats.in_flight, 0u);  // every admission slot released
  // The hot stream actually hit the program cache (scoped FROM queries
  // never cache, everything else does after its cold miss).
  EXPECT_GT(stats.program_hits, stats.program_misses);
}

TEST_F(ConcurrentServingTest, AdmissionControlRejectsAndRecovers) {
  core::Engine::Options options;
  options.serving.max_in_flight = 1;
  core::Engine engine(&dataset_, &dict_, options);
  ASSERT_TRUE(engine.Load().ok());

  // The closure query is slow enough that 8 spinning clients against a
  // single admission slot must overlap; retry sweeps make the race a
  // near-certainty without timing assumptions.
  const std::string heavy =
      "SELECT ?x ?y WHERE { ?x <http://s.org/p>+ ?y }";
  constexpr int kThreads = 8;
  std::atomic<int> rejected{0};
  std::atomic<int> succeeded{0};
  std::atomic<int> other{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 6; ++i) {
        auto r = engine.ExecuteText(heavy);
        if (r.ok()) {
          succeeded.fetch_add(1, std::memory_order_relaxed);
        } else if (r.status().IsUnavailable()) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        } else {
          other.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();

  EXPECT_EQ(other.load(), 0);
  EXPECT_GT(succeeded.load(), 0);
  EXPECT_GT(rejected.load(), 0) << "no admission rejection observed";

  core::Engine::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.rejected, static_cast<uint64_t>(rejected.load()));
  EXPECT_EQ(stats.queries, static_cast<uint64_t>(succeeded.load()));
  EXPECT_EQ(stats.in_flight, 0u);

  // The engine is fully usable after the storm.
  auto after = engine.ExecuteText("ASK { ?s ?p ?o }");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after->result.ask_value);
}

TEST_F(ConcurrentServingTest, PerQueryLimitsTripIndependently) {
  // Engine defaults: unlimited.
  core::Engine engine(&dataset_, &dict_);
  ASSERT_TRUE(engine.Load().ok());
  const std::string heavy =
      "SELECT ?x ?y WHERE { ?x <http://s.org/p>* ?y }";

  // Tuple budget trips for this call only.
  core::Engine::QueryLimits tight;
  tight.tuple_budget = 100;
  auto budget = engine.ExecuteText(heavy, tight);
  ASSERT_FALSE(budget.ok());
  EXPECT_TRUE(budget.status().IsResourceExhausted())
      << budget.status().ToString();

  // Timeout trips for this call only.
  core::Engine::QueryLimits instant;
  instant.timeout = std::chrono::milliseconds(1);
  auto timed = engine.ExecuteText(heavy, instant);
  if (!timed.ok()) {  // a 1 ms closure CAN finish on a fast machine
    EXPECT_TRUE(timed.status().IsTimeout()) << timed.status().ToString();
  }

  // The same query without limits still succeeds on the same engine.
  auto free_run = engine.ExecuteText(heavy);
  ASSERT_TRUE(free_run.ok()) << free_run.status().ToString();
  EXPECT_GT(free_run->result.rows.size(), 100u);

  // Failed executions count as failures, not queries... and both kinds
  // release their admission slot.
  core::Engine::EngineStats stats = engine.stats();
  EXPECT_GT(stats.failures, 0u);
  EXPECT_EQ(stats.in_flight, 0u);
}

TEST_F(ConcurrentServingTest, ExecuteBeforeLoadFailsPrecondition) {
  core::Engine engine(&dataset_, &dict_);
  EXPECT_FALSE(engine.loaded());
  auto r = engine.ExecuteText("ASK { ?s ?p ?o }");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsFailedPrecondition()) << r.status().ToString();
  EXPECT_EQ(engine.stats().queries, 0u);

  // Translation does not require a loaded EDB.
  auto text = engine.TranslateToText("ASK { ?s ?p ?o }");
  EXPECT_TRUE(text.ok()) << text.status().ToString();

  ASSERT_TRUE(engine.Load().ok());
  EXPECT_TRUE(engine.loaded());
  auto ok = engine.ExecuteText("ASK { ?s ?p ?o }");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_TRUE(ok->result.ask_value);
}

TEST_F(ConcurrentServingTest, ConcurrentLoadAndExecuteAreSerialized) {
  // Load() is idempotent while the dataset is unchanged, and calling it
  // from one thread while others Execute must be safe (writer lock).
  core::Engine engine(&dataset_, &dict_);
  ASSERT_TRUE(engine.Load().ok());

  // Bounded iterations on both sides: a reader-preferring shared_mutex
  // can starve the Load() writer while readers keep arriving, so an
  // unbounded client loop gated on a flag the loader sets would livelock.
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        auto r = engine.ExecuteText("ASK { ?s ?p ?o }");
        if (!r.ok() || !r->result.ask_value) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread loader([&] {
    for (int i = 0; i < 20; ++i) {
      Status st = engine.Load();
      if (!st.ok()) failures.fetch_add(1, std::memory_order_relaxed);
    }
  });
  loader.join();
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ConcurrentServingTest, SharedEngineAgreesAcrossQueryLimitOverloads) {
  // The parsed-query and text entry points with and without limits all
  // agree (same internal path).
  core::Engine engine(&dataset_, &dict_);
  ASSERT_TRUE(engine.Load().ok());
  const std::string q =
      "SELECT ?x ?y WHERE { ?x <http://s.org/p>+ ?y } ORDER BY ?x ?y";
  auto parsed = sparql::ParseQuery(q, &dict_);
  ASSERT_TRUE(parsed.ok());

  core::Engine::QueryLimits roomy;
  roomy.tuple_budget = 10'000'000;
  auto a = engine.ExecuteText(q);
  auto b = engine.ExecuteText(q, roomy);
  auto c = engine.Execute(*parsed);
  auto d = engine.Execute(*parsed, roomy);
  for (auto* r : {&a, &b, &c, &d}) {
    ASSERT_TRUE(r->ok()) << r->status().ToString();
  }
  EXPECT_EQ(a->result.rows, b->result.rows);
  EXPECT_EQ(a->result.rows, c->result.rows);
  EXPECT_EQ(a->result.rows, d->result.rows);
}

}  // namespace
}  // namespace sparqlog
