#include "workloads/systems.h"

#include "core/engine.h"
#include "eval/algebra_eval.h"
#include "quirks/stardog_sim.h"
#include "quirks/virtuoso_sim.h"
#include "rdf/turtle_parser.h"
#include "rdf/writer.h"
#include "sparql/parser.h"

namespace sparqlog::workloads {

namespace {

void ConfigureContext(const Limits& limits, ExecContext* ctx) {
  if (limits.timeout_ms > 0) {
    ctx->set_deadline_after(std::chrono::milliseconds(limits.timeout_ms));
  }
  if (limits.tuple_budget > 0) ctx->set_tuple_budget(limits.tuple_budget);
}

RunRecord Fail(const Status& status, double load_s, double exec_s) {
  RunRecord r;
  r.outcome = ClassifyStatus(status);
  r.load_seconds = load_s;
  r.exec_seconds = exec_s;
  r.message = status.ToString();
  return r;
}

class SparqLogSystem : public System {
 public:
  SparqLogSystem(const rdf::Dataset* dataset, rdf::TermDictionary* dict,
                 Limits limits, bool ontology)
      : serialized_(rdf::WriteTrig(*dataset)),
        dict_(dict),
        limits_(limits),
        ontology_(ontology) {}

  const std::string& name() const override { return name_; }

  RunRecord Run(const std::string& query_text) override {
    core::Engine::Options options;
    options.ontology = ontology_;
    options.timeout = std::chrono::milliseconds(limits_.timeout_ms);
    options.tuple_budget = limits_.tuple_budget;

    // Loading: parse the serialized dataset and materialize the EDB (the
    // paper reloads per query; T_D is SparqLog's loading step).
    Stopwatch load_watch;
    rdf::Dataset local(dict_);
    Status st = rdf::ParseTurtle(serialized_, &local);
    if (!st.ok()) return Fail(st, load_watch.ElapsedSeconds(), 0.0);
    core::Engine engine(&local, dict_, options);
    st = engine.Load();
    double load_s = load_watch.ElapsedSeconds();
    if (!st.ok()) return Fail(st, load_s, 0.0);

    Stopwatch exec_watch;
    auto result = engine.ExecuteText(query_text);
    double exec_s = exec_watch.ElapsedSeconds();
    if (!result.ok()) return Fail(result.status(), load_s, exec_s);

    RunRecord r;
    r.load_seconds = load_s;
    r.exec_seconds = exec_s;
    r.plan_estimate_error = result->stats.plan_estimate_error;
    if (limits_.warm_repeat) {
      // Serving scenario: the same query again on the warm engine — the
      // program cache and stratum memo carry it.
      Stopwatch warm_watch;
      auto warm = engine.ExecuteText(query_text);
      if (!warm.ok()) return Fail(warm.status(), load_s, exec_s);
      r.warm_exec_seconds = warm_watch.ElapsedSeconds();
      r.plan_estimate_error = warm->stats.plan_estimate_error;
    }
    core::Engine::EngineStats es = engine.stats();
    r.program_cache_hits = es.program_hits;
    r.program_cache_rebinds = es.program_rebinds;
    r.program_cache_misses = es.program_misses;
    r.stratum_memo_hits = es.stratum_hits;
    r.stratum_memo_misses = es.stratum_misses;
    r.tuples_restored = es.tuples_restored;
    r.interning_contention = es.interning_contention;
    r.plans_computed = es.plans_computed;
    r.plan_cache_hits = es.plan_cache_hits;
    r.tc_kernels_hit = static_cast<uint32_t>(es.tc_kernels_hit);
    r.tc_dense_frontiers = static_cast<uint32_t>(es.tc_dense_frontiers);
    r.tc_sparse_frontiers = static_cast<uint32_t>(es.tc_sparse_frontiers);
    r.result = std::move(std::move(result).ValueOrDie().result);
    return r;
  }

 private:
  std::string serialized_;
  rdf::TermDictionary* dict_;
  Limits limits_;
  bool ontology_;
  std::string name_ = "SparqLog";
};

/// Shared implementation of the two direct-evaluation baselines.
class DirectSystem : public System {
 public:
  DirectSystem(std::string name, const rdf::Dataset* dataset,
               rdf::TermDictionary* dict, Limits limits,
               eval::EngineQuirks quirks)
      : name_(std::move(name)),
        serialized_(rdf::WriteTrig(*dataset)),
        dict_(dict),
        limits_(limits),
        quirks_(quirks) {}

  const std::string& name() const override { return name_; }

  RunRecord Run(const std::string& query_text) override {
    // "Loading": parse the serialized dataset into a fresh triple store
    // (indexes included), as a fresh server instance would.
    Stopwatch load_watch;
    rdf::Dataset local(dict_);
    Status lst = rdf::ParseTurtle(serialized_, &local);
    if (!lst.ok()) return Fail(lst, load_watch.ElapsedSeconds(), 0.0);
    double load_s = load_watch.ElapsedSeconds();

    auto parsed = sparql::ParseQuery(query_text, dict_);
    if (!parsed.ok()) return Fail(parsed.status(), load_s, 0.0);

    ExecContext ctx;
    ConfigureContext(limits_, &ctx);
    eval::AlgebraEvaluator evaluator(local, dict_, &ctx, quirks_);
    Stopwatch exec_watch;
    auto result = evaluator.EvalQuery(*parsed);
    double exec_s = exec_watch.ElapsedSeconds();
    if (!result.ok()) return Fail(result.status(), load_s, exec_s);

    RunRecord r;
    r.load_seconds = load_s;
    r.exec_seconds = exec_s;
    r.result = std::move(result).ValueOrDie();
    return r;
  }

 private:
  std::string name_;
  std::string serialized_;
  rdf::TermDictionary* dict_;
  Limits limits_;
  eval::EngineQuirks quirks_;
};

class StardogSystem : public System {
 public:
  StardogSystem(const rdf::Dataset* dataset, rdf::TermDictionary* dict,
                Limits limits)
      : serialized_(rdf::WriteTrig(*dataset)), dict_(dict), limits_(limits) {}

  const std::string& name() const override { return name_; }

  RunRecord Run(const std::string& query_text) override {
    auto parsed = sparql::ParseQuery(query_text, dict_);
    if (!parsed.ok()) return Fail(parsed.status(), 0.0, 0.0);

    ExecContext ctx;
    ConfigureContext(limits_, &ctx);
    // Loading: parse plus the naive ontology materialization.
    Stopwatch load_watch;
    rdf::Dataset local(dict_);
    Status st = rdf::ParseTurtle(serialized_, &local);
    if (!st.ok()) return Fail(st, load_watch.ElapsedSeconds(), 0.0);
    quirks::StardogSim sim(&local, dict_);
    st = sim.Materialize(&ctx);
    double load_s = load_watch.ElapsedSeconds();
    if (!st.ok()) return Fail(st, load_s, 0.0);

    Stopwatch exec_watch;
    auto result = sim.Execute(*parsed, &ctx);
    double exec_s = exec_watch.ElapsedSeconds();
    if (!result.ok()) return Fail(result.status(), load_s, exec_s);

    RunRecord r;
    r.load_seconds = load_s;
    r.exec_seconds = exec_s;
    r.result = std::move(result).ValueOrDie();
    return r;
  }

 private:
  std::string serialized_;
  rdf::TermDictionary* dict_;
  Limits limits_;
  std::string name_ = "Stardog";
};

}  // namespace

std::unique_ptr<System> MakeSparqLogSystem(const rdf::Dataset* dataset,
                                           rdf::TermDictionary* dict,
                                           Limits limits, bool ontology) {
  return std::make_unique<SparqLogSystem>(dataset, dict, limits, ontology);
}

std::unique_ptr<System> MakeFusekiSystem(const rdf::Dataset* dataset,
                                         rdf::TermDictionary* dict,
                                         Limits limits) {
  // Calibrated comparator cost model: Jena's iterator/Binding machinery
  // costs on the order of microseconds per produced binding (DESIGN.md §3).
  eval::EngineQuirks quirks;
  quirks.per_binding_overhead_ns = 6000;
  return std::make_unique<DirectSystem>("Fuseki", dataset, dict, limits,
                                        quirks);
}

std::unique_ptr<System> MakeVirtuosoSystem(const rdf::Dataset* dataset,
                                           rdf::TermDictionary* dict,
                                           Limits limits) {
  // Virtuoso is a compiled C engine: a few hundred ns per binding.
  eval::EngineQuirks quirks = quirks::VirtuosoQuirks();
  quirks.per_binding_overhead_ns = 300;
  return std::make_unique<DirectSystem>("Virtuoso", dataset, dict, limits,
                                        quirks);
}

std::unique_ptr<System> MakeStardogSystem(const rdf::Dataset* dataset,
                                          rdf::TermDictionary* dict,
                                          Limits limits) {
  return std::make_unique<StardogSystem>(dataset, dict, limits);
}

}  // namespace sparqlog::workloads
