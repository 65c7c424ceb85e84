// Offline workloads: sp2b_cold (SP2Bench q1-q12c) and gmark_paths (the 50
// gMark "social" path queries). One closed-loop client runs the queries
// in-process through Engine::ExecuteText with the program cache and the
// stratum memo off, the paper's cold methodology, and a one-thread
// fixpoint, so each query's CPU time is that of the client thread. Every
// answer is checked against the answers pinned in
// perfbench/expected/<workload>.tsv.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <thread>

#include "common.h"
#include "core/engine.h"
#include "eval/algebra_eval.h"
#include "pipeline.h"
#include "sparql/parser.h"
#include "trace.h"
#include "util/hash.h"
#include "workloads/gmark.h"
#include "workloads/sp2bench.h"

namespace perfbench {

using namespace sparqlog;

namespace {

/// Offline datasets come in kVariants pinned variants; `--seed n` selects
/// variant n mod kVariants (and shuffles the per-pass query order).
constexpr uint32_t kVariants = 10;
constexpr size_t kSp2bTriples = 10000;
constexpr size_t kGmarkEdges = 6000;
/// Set-ups timed before the first pass; after every timed pass, further
/// set-ups take about kSetupShare of that pass's time, so setup_s (the
/// median of all of them) samples the whole run, not its first second.
constexpr int kSetups = 5;
constexpr double kSetupShare = 0.05;
/// T_D builds behind the traced run's core.td_s and datalog.stats_s.
constexpr int kBuilds = 25;
/// Time budget of the reference evaluator per query when pinning.
constexpr double kReferenceBudgetSeconds = 60.0;
/// ApplyUpdate calls of the update phase (insert/delete pairs).
constexpr size_t kUpdateOps = 120;

struct OfflineWorkload {
  std::string name;
  std::vector<std::pair<std::string, std::string>> queries;
  bool gmark = false;
};

bool MakeWorkload(const std::string& name, OfflineWorkload* out) {
  out->name = name;
  if (name == "sp2b_cold") {
    out->queries = workloads::Sp2bQueries();
    return true;
  }
  if (name == "gmark_paths") {
    // The query set is the scenario's own (fixed seed); the seed only
    // picks the graph variant.
    out->gmark = true;
    workloads::GmarkScenario scenario = workloads::GmarkSocial();
    scenario.edges = kGmarkEdges;
    std::vector<std::string> texts = workloads::GenerateGmarkQueries(scenario);
    for (size_t i = 0; i < texts.size(); ++i) {
      out->queries.emplace_back("q" + std::to_string(i), texts[i]);
    }
    return true;
  }
  return false;
}

void Generate(const OfflineWorkload& w, uint32_t variant,
              rdf::Dataset* dataset) {
  const uint64_t seed = 1 + variant;
  if (w.gmark) {
    workloads::GmarkScenario scenario = workloads::GmarkSocial();
    scenario.edges = kGmarkEdges;
    scenario.seed = seed;
    workloads::GenerateGmarkGraph(scenario, dataset);
  } else {
    workloads::Sp2bOptions options;
    options.target_triples = kSp2bTriples;
    options.seed = seed;
    workloads::GenerateSp2b(options, dataset);
  }
}

/// Caches off; one fixpoint thread, so a query runs entirely on the
/// calling thread and its CPU time can be measured (README.md,
/// "Steadiness").
core::Engine::Options ColdOptions() {
  core::Engine::Options options;
  options.caching.program_cache = false;
  options.caching.stratum_memo = false;
  options.parallelism.num_threads = 1;
  return options;
}

/// One generated dataset with its loaded engine.
struct Instance {
  std::unique_ptr<rdf::TermDictionary> dict;
  std::unique_ptr<rdf::Dataset> dataset;
  std::unique_ptr<core::Engine> engine;
};

/// Frees an instance, the engine first.
void Clear(Instance* inst) {
  inst->engine.reset();
  inst->dataset.reset();
  inst->dict.reset();
}

Status SetUp(const OfflineWorkload& w, uint32_t variant, Instance* inst) {
  Clear(inst);
  inst->dict = std::make_unique<rdf::TermDictionary>();
  inst->dataset = std::make_unique<rdf::Dataset>(inst->dict.get());
  Generate(w, variant, inst->dataset.get());
  inst->engine = std::make_unique<core::Engine>(
      inst->dataset.get(), inst->dict.get(), ColdOptions());
  return inst->engine->Load();
}

/// Insert/delete batch pairs for the update phase: each batch adds four
/// fresh nodes, each with one outgoing and one incoming triple copied from
/// sampled existing triples, so every triple is new and deleting the
/// batch restores the original dataset exactly.
std::vector<std::vector<rdf::Triple>> UpdateBatches(const rdf::Dataset& ds,
                                                    rdf::TermDictionary* dict,
                                                    uint64_t seed,
                                                    size_t count) {
  const std::vector<rdf::Triple>& triples = ds.default_graph().triples();
  Rng rng(seed * 7919 + 17);
  std::vector<std::vector<rdf::Triple>> batches(count);
  for (size_t b = 0; b < count; ++b) {
    for (int j = 0; j < 4; ++j) {
      rdf::TermId node = dict->InternIri(
          "http://perfbench.example/update/n" + std::to_string(b) + "_" +
          std::to_string(j));
      const rdf::Triple& out = triples[rng.Uniform(triples.size())];
      const rdf::Triple& in = triples[rng.Uniform(triples.size())];
      batches[b].push_back(rdf::Triple{node, out.p, out.o});
      batches[b].push_back(rdf::Triple{in.s, in.p, node});
    }
  }
  return batches;
}

class Checker {
 public:
  Checker(const ExpectedAnswers* expected, uint32_t variant, Outcomes* tally)
      : expected_(expected), variant_(variant), tally_(tally) {}

  /// Counts one operation; false if it failed or its answer is wrong.
  bool Check(const std::string& query, const Status& status,
             const Answer& answer) {
    ++tally_->attempted;
    if (!status.ok()) {
      ++tally_->failed;
      std::fprintf(stderr, "perfbench: %s failed: %s\n", query.c_str(),
                   status.ToString().c_str());
      return false;
    }
    const Answer* want = expected_->Find(variant_, query);
    if (want == nullptr || *want != answer) {
      ++tally_->wrong;
      std::fprintf(stderr,
                   "perfbench: wrong answer for %s (variant %u): rows=%llu "
                   "hash=%016llx\n",
                   query.c_str(), variant_,
                   static_cast<unsigned long long>(answer.rows),
                   static_cast<unsigned long long>(answer.hash));
      return false;
    }
    return true;
  }

 private:
  const ExpectedAnswers* expected_;
  uint32_t variant_;
  Outcomes* tally_;
};

/// Times one set-up into `inst` (freeing its old contents untimed) and
/// appends its CPU seconds to `setup_s`.
Status TimedSetUp(const OfflineWorkload& w, uint32_t variant, Instance* inst,
                  std::vector<double>* setup_s) {
  Clear(inst);
  MoveToCpu(static_cast<unsigned>(setup_s->size()));
  const double t0 = ThreadCpuSeconds();
  Status st = SetUp(w, variant, inst);
  setup_s->push_back(ThreadCpuSeconds() - t0);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: Load failed: %s\n",
                 st.ToString().c_str());
  }
  return st;
}

std::vector<size_t> ShuffledOrder(size_t n, Rng* rng) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng->Uniform(i)]);
  return order;
}

/// Runs the update phase; returns each ApplyUpdate's CPU time in ms.
std::vector<double> RunUpdates(Instance* inst, uint64_t seed, Tracer* tracer,
                               Outcomes* tally) {
  auto batches =
      UpdateBatches(*inst->dataset, inst->dict.get(), seed, kUpdateOps / 2);
  const std::vector<rdf::Triple> none;
  std::vector<double> ms;
  uint64_t request = 1ull << 40;
  for (const auto& batch : batches) {
    for (bool insert : {true, false}) {
      const double t0 = ThreadCpuSeconds();
      Status st;
      {
        auto span = tracer->Open("core.update", request++);
        st = insert ? inst->engine->ApplyUpdate(batch, none)
                    : inst->engine->ApplyUpdate(none, batch);
      }
      ms.push_back((ThreadCpuSeconds() - t0) * 1e3);
      ++tally->attempted;
      if (!st.ok()) {
        ++tally->failed;
        std::fprintf(stderr, "perfbench: ApplyUpdate failed: %s\n",
                     st.ToString().c_str());
      }
    }
  }
  return ms;
}

}  // namespace

int RunOffline(const Settings& settings) {
  OfflineWorkload w;
  if (!MakeWorkload(settings.workload, &w)) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 settings.workload.c_str());
    return 2;
  }
  const uint32_t variant = static_cast<uint32_t>(settings.seed % kVariants);
  ExpectedAnswers expected;
  std::string error;
  if (!expected.Load(settings.expected_dir, w.name, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }

  Outcomes tally;
  Checker checker(&expected, variant, &tally);
  Report report;
  Instance inst;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    if (!TimedSetUp(w, variant, &inst, &setup_s).ok()) return 1;
  }
  const size_t triples = inst.dataset->default_graph().size();
  // Storage of the EDB as loaded (indexes are built lazily by queries).
  const double edb_bytes_per_triple =
      double(inst.engine->edb_storage().bytes) / double(triples);
  const unsigned nproc = std::thread::hardware_concurrency();
  report.Note("nproc=" + std::to_string(nproc) + " variant=" +
              std::to_string(variant) + " triples=" + std::to_string(triples) +
              " queries=" + std::to_string(w.queries.size()));
  Rng order_rng(settings.seed * 31 + 5);

  Tracer tracer(settings.trace);
  if (!settings.trace) {
    // Warm-up pass (checked, not timed): thread pool, allocator, page
    // faults of the first evaluation.
    for (const auto& [name, text] : w.queries) {
      auto r = inst.engine->ExecuteText(text);
      checker.Check(name, r.status(),
                    r.ok() ? Digest(r->result, *inst.dict) : Answer());
    }
    std::vector<std::vector<double>> per_query_ms(w.queries.size());
    std::vector<double> all_ms, pass_s, pass_wall_s;
    Instance spare;
    const StealMeter steal;
    const auto start = Clock::now();
    while (pass_s.size() < 3 ||
           SecondsBetween(start, Clock::now()) < settings.seconds) {
      // A pass's time is the sum of its ExecuteText calls' CPU time; the
      // answer digests and checks between them are the client's, not
      // timed.
      MoveToCpu(static_cast<unsigned>(pass_s.size()));
      double pass = 0.0, pass_wall = 0.0;
      for (size_t qi : ShuffledOrder(w.queries.size(), &order_rng)) {
        const auto& [name, text] = w.queries[qi];
        const auto wall0 = Clock::now();
        const double t0 = ThreadCpuSeconds();
        auto r = inst.engine->ExecuteText(text);
        const double s = ThreadCpuSeconds() - t0;
        pass_wall += SecondsBetween(wall0, Clock::now());
        checker.Check(name, r.status(),
                      r.ok() ? Digest(r->result, *inst.dict) : Answer());
        per_query_ms[qi].push_back(s * 1e3);
        all_ms.push_back(s * 1e3);
        pass += s;
      }
      pass_s.push_back(pass);
      pass_wall_s.push_back(pass_wall);
      const auto setups_start = Clock::now();
      do {
        if (!TimedSetUp(w, variant, &spare, &setup_s).ok()) return 1;
      } while (SecondsBetween(setups_start, Clock::now()) <
               kSetupShare * pass);
    }
    Clear(&spare);
    std::vector<double> medians;
    for (const auto& v : per_query_ms) medians.push_back(Median(v));

    std::vector<double> update_ms =
        RunUpdates(&inst, settings.seed, &tracer, &tally);
    // The update phase nets out to the original dataset: every answer
    // must still match.
    for (const auto& [name, text] : w.queries) {
      auto r = inst.engine->ExecuteText(text);
      checker.Check(name, r.status(),
                    r.ok() ? Digest(r->result, *inst.dict) : Answer());
    }

    report.Note("passes=" + std::to_string(pass_s.size()) +
                " query_samples=" + std::to_string(all_ms.size()) +
                " updates=" + std::to_string(update_ms.size()) +
                " setups=" + std::to_string(setup_s.size()));
    report.Note("wall-clock suite (median pass) = " +
                std::to_string(Median(pass_wall_s)) +
                " s; host steal = " + std::to_string(steal.Share() * 100) +
                "% of busy vCPU time");
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("suite_s", Median(pass_s), "s");
    report.Add("query_geomean_ms", GeoMean(medians), "ms");
    // Over all executions, not over the per-query medians: with 17
    // queries the latter fell into two clusters a third apart from run to
    // run (README.md, "Steadiness").
    report.Add("query_p50_ms", Median(all_ms), "ms");
    report.Add("query_p99_ms", Quantile(all_ms, 0.99), "ms");
    report.Add("max_rate_qps",
               double(all_ms.size()) /
                   std::accumulate(pass_s.begin(), pass_s.end(), 0.0),
               "1/s");
    report.Add("update_p50_ms", Median(update_ms), "ms");
    report.Add("update_p90_ms", Quantile(update_ms, 0.90), "ms");
    report.Add("error_rate", tally.error_rate(), "ratio");
    report.Add("ok_rate", 1.0 - tally.error_rate(), "ratio");
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");
    report.Add("edb_bytes_per_triple", edb_bytes_per_triple, "B");
    report.Print(settings, tally.wrong == 0, tally.attempted, tally.bad(),
                 EndToEndMetricNames());
    return 0;
  }

  // Traced run: the direct drive parse -> T_Q -> plan -> evaluate -> T_S,
  // alternating traced and untraced passes of identical work.
  DirectPipeline pipeline(inst.dataset.get(), inst.dict.get(),
                          inst.engine.get(), &tracer);
  std::vector<double> td_s, stats_s;
  for (int i = 0; i < kBuilds; ++i) {
    tracer.set_enabled(i == 0);
    Status st = pipeline.Build();
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: T_D failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    td_s.push_back(pipeline.td_seconds());
    stats_s.push_back(pipeline.stats_seconds());
  }

  uint64_t request = 0, traced_queries = 0, traced_passes = 0;
  uint64_t derived = 0, rows = 0, rounds = 0, parallel_rounds = 0, tc = 0;
  std::vector<double> qerrors, traced_pass_s, plain_pass_s;
  const auto start = Clock::now();
  while (traced_pass_s.size() < 2 || plain_pass_s.size() < 2 ||
         SecondsBetween(start, Clock::now()) < settings.seconds) {
    const bool traced = traced_pass_s.size() <= plain_pass_s.size();
    tracer.set_enabled(traced);
    const auto pass_start = Clock::now();
    for (size_t qi : ShuffledOrder(w.queries.size(), &order_rng)) {
      const auto& [name, text] = w.queries[qi];
      auto root = tracer.Open("bench.query", ++request);
      auto r = pipeline.Run(text, request);
      if (!checker.Check(name, r.status(), r.ok() ? r->answer : Answer()) ||
          !traced) {
        continue;
      }
      ++traced_queries;
      derived += r->eval.tuples_derived;
      rows += r->result_rows;
      rounds += r->eval.rounds;
      parallel_rounds += r->eval.parallel_rounds;
      tc += r->eval.tc_kernels_hit;
      if (r->plan_qerror > 0) qerrors.push_back(r->plan_qerror);
    }
    (traced ? traced_pass_s : plain_pass_s)
        .push_back(SecondsBetween(pass_start, Clock::now()));
    traced_passes += traced ? 1 : 0;
  }
  tracer.set_enabled(true);
  std::vector<double> update_ms =
      RunUpdates(&inst, settings.seed, &tracer, &tally);

  const auto self = tracer.SelfSeconds();
  auto self_of = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double per_query = traced_queries == 0 ? 0.0 : 1e6 / traced_queries;
  const double per_pass = traced_passes == 0 ? 0.0 : 1.0 / traced_passes;
  // Self time of the system's layers; the harness's own bench.query span
  // (answer digests, loop) is not a layer.
  double query_self = 0.0;
  for (const char* name : {"sparql.parse", "core.tq", "datalog.plan",
                           "datalog.eval", "core.ts"}) {
    query_self += self_of(name);
  }
  const double eval_share =
      query_self > 0 ? self_of("datalog.eval") / query_self : 0.0;
  report.Note("traced_passes=" + std::to_string(traced_passes) +
              " untraced_passes=" + std::to_string(plain_pass_s.size()) +
              " spans=" + std::to_string(tracer.size()));
  char line[256];
  std::snprintf(line, sizeof(line),
                "self-check: datalog.eval share of the layers' traced self "
                "time = %.2f%% (want >= 90%%; harness bench.query self "
                "%.1f us/query): %s",
                eval_share * 100, self_of("bench.query") * per_query, eval_share >= 0.90 ? "PASS" : "FAIL");
  report.Note(line);
  const double tc_per_pass = double(tc) * per_pass;
  std::snprintf(line, sizeof(line),
                "self-check: datalog.tc_kernel_strata = %.1f per pass "
                "(want %s): %s",
                tc_per_pass, w.gmark ? "> 0" : "0",
                (w.gmark ? tc_per_pass > 0 : tc_per_pass == 0) ? "PASS"
                                                                : "FAIL");
  report.Note(line);

  report.Add("datalog.eval_us", self_of("datalog.eval") * per_query, "us");
  report.Add("datalog.tuples_derived", double(derived) * per_pass, "count");
  report.Add("datalog.derived_per_row",
             rows == 0 ? 0.0 : double(derived) / double(rows), "ratio");
  report.Add("datalog.rounds", double(rounds) * per_pass, "count");
  report.Add("datalog.parallel_rounds", double(parallel_rounds) * per_pass,
             "count");
  report.Add("datalog.tc_kernel_strata", tc_per_pass, "count");
  report.Add("sparql.parse_us", self_of("sparql.parse") * per_query, "us");
  report.Add("core.tq_us", self_of("core.tq") * per_query, "us");
  report.Add("datalog.plan_us", self_of("datalog.plan") * per_query, "us");
  report.Add("datalog.plan_qerror", Median(qerrors), "ratio");
  report.Add("core.ts_us", self_of("core.ts") * per_query, "us");
  report.Add("core.engine_us", 0.0, "us");
  report.Add("core.program_cache_hit_ratio", 0.0, "ratio");
  report.Add("core.program_cache_evictions", 0.0, "count");
  report.Add("datalog.memo_hit_ratio", 0.0, "ratio");
  report.Add("datalog.memo_evictions", 0.0, "count");
  report.Add("core.update_us",
             update_ms.empty() ? 0.0
                               : self_of("core.update") * 1e6 /
                                     double(update_ms.size()),
             "us");
  const core::Engine::EngineStats es = inst.engine->stats();
  report.Add("datalog.strata_incremental", double(es.strata_incremental),
             "count");
  report.Add("datalog.strata_dred", double(es.strata_dred), "count");
  report.Add("datalog.incremental_fallbacks",
             double(es.incremental_fallbacks), "count");
  report.Add("core.admission_queued", double(es.queued), "count");
  report.Add("core.admission_rejected", double(es.rejected), "count");
  report.Add("server.self_us", 0.0, "us");
  report.Add("core.td_s", Median(td_s), "s");
  report.Add("datalog.stats_s", Median(stats_s), "s");
  report.Add("bench.gen_late_ms", 0.0, "ms");
  const double plain = Median(plain_pass_s);
  report.Add("bench.trace_overhead_pct",
             plain > 0 ? (Median(traced_pass_s) - plain) / plain * 100 : 0.0,
             "%");
  if (!settings.trace_out.empty() && !tracer.WriteJson(settings.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 settings.trace_out.c_str());
  }
  report.Print(settings, tally.wrong == 0, tally.attempted, tally.bad(),
               PerLayerMetricNames());
  return 0;
}

int PinOffline(const std::string& workload, uint32_t variant) {
  OfflineWorkload w;
  if (!MakeWorkload(workload, &w)) return 2;
  rdf::TermDictionary dict;
  rdf::Dataset dataset(&dict);
  Generate(w, variant, &dataset);
  core::Engine::Options generic = ColdOptions();
  generic.fixpoint.tc_kernel = false;
  generic.planner.join_planner = false;
  generic.parallelism.num_threads = 1;
  core::Engine engine(&dataset, &dict, generic);
  if (!engine.Load().ok()) return 1;
  for (const auto& [name, text] : w.queries) {
    auto query = sparql::ParseQuery(text, &dict, sparql::ParserOptions());
    if (!query.ok()) return 1;
    ExecContext ctx;
    ctx.set_deadline_after(std::chrono::milliseconds(
        static_cast<int64_t>(kReferenceBudgetSeconds * 1e3)));
    eval::AlgebraEvaluator reference(dataset, &dict, &ctx);
    auto r = reference.EvalQuery(*query);
    const char* source = "reference";
    Answer answer;
    if (r.ok()) {
      answer = Digest(*r, dict);
    } else {
      auto e = engine.Execute(*query);
      if (!e.ok()) {
        std::fprintf(stderr, "perfbench: cannot pin %s: %s\n", name.c_str(),
                     e.status().ToString().c_str());
        return 1;
      }
      answer = Digest(e->result, dict);
      source = "engine-generic";
    }
    std::printf("%u %s %llu %016llx %s\n", variant, name.c_str(),
                static_cast<unsigned long long>(answer.rows),
                static_cast<unsigned long long>(answer.hash), source);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace perfbench
