#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "eval/binding.h"
#include "rdf/graph.h"
#include "util/exec_context.h"
#include "util/status.h"

/// \file runner.h
/// Benchmark harness shared by all table/figure reproductions: system
/// adapters (each run reloads the dataset, matching the paper's
/// methodology of deleting and reloading per query, §6.3), outcome
/// classification (ok / time-out / mem-out / not-supported / error), and
/// the result-comparison and table-formatting utilities used to emit the
/// paper's tables.

namespace sparqlog::workloads {

/// Per-run resource limits (the paper used a 900 s timeout; benchmarks
/// here default to a few seconds so the suite stays laptop-friendly —
/// the *shape* of who times out is what matters).
struct Limits {
  int timeout_ms = 5000;
  uint64_t tuple_budget = 40'000'000;
  /// Re-execute each query once on the already-warm engine and record
  /// RunRecord::warm_exec_seconds plus the cache counters — the
  /// repeated-query serving scenario (SparqLog adapter only; the
  /// baseline systems have no warm path and ignore this).
  bool warm_repeat = false;
};

enum class Outcome { kOk, kTimeout, kMemOut, kNotSupported, kError };

const char* OutcomeName(Outcome o);

struct RunRecord {
  Outcome outcome = Outcome::kOk;
  double load_seconds = 0.0;
  double exec_seconds = 0.0;
  eval::QueryResult result;
  std::string message;
  /// Warm re-execution time when Limits::warm_repeat is on; negative
  /// when not measured.
  double warm_exec_seconds = -1.0;
  /// Engine cache counters for the run (SparqLog adapter only; zero for
  /// the baseline systems, which have no translation pipeline to cache).
  uint64_t program_cache_hits = 0;
  uint64_t program_cache_rebinds = 0;
  uint64_t program_cache_misses = 0;
  uint64_t stratum_memo_hits = 0;
  uint64_t stratum_memo_misses = 0;
  uint64_t tuples_restored = 0;
  /// Dict + Skolem interning-lock contention (SparqLog adapter only,
  /// from Engine::stats(): zero for baselines and uncontended runs).
  uint64_t interning_contention = 0;
  /// Transitive-closure kernel counters (SparqLog adapter only, from
  /// Engine::stats(): zero for baselines and kernel-off runs).
  uint32_t tc_kernels_hit = 0;
  uint32_t tc_dense_frontiers = 0;
  uint32_t tc_sparse_frontiers = 0;
  /// Join-planner counters (SparqLog adapter only, from Engine::stats():
  /// zero / 0.0 for baselines and planner-off runs).
  uint64_t plans_computed = 0;
  uint64_t plan_cache_hits = 0;
  /// q-error of the last planned execution's output-cardinality estimate
  /// (max(est/actual, actual/est); 1.0 = exact, 0.0 = not planned).
  double plan_estimate_error = 0.0;

  double total_seconds() const { return load_seconds + exec_seconds; }
  bool ok() const { return outcome == Outcome::kOk; }
};

/// Classifies a failed Status into an outcome bucket.
Outcome ClassifyStatus(const Status& status);

/// A system under test. Run() performs a fresh load plus one query
/// execution and reports both timings.
class System {
 public:
  virtual ~System() = default;
  virtual const std::string& name() const = 0;
  virtual RunRecord Run(const std::string& query_text) = 0;
};

/// A named query workload over a dataset.
struct Workload {
  std::string name;
  const rdf::Dataset* dataset = nullptr;
  std::vector<std::string> query_names;
  std::vector<std::string> queries;
};

/// Result-correctness classification in BeSEPPI's terms (§D.2.3).
struct ComplianceClass {
  bool correct = true;    ///< returned ⊆ expected (multiset)
  bool complete = true;   ///< expected ⊆ returned (multiset)
  bool error = false;
};

ComplianceClass Classify(const RunRecord& record,
                         const eval::QueryResult& expected);

/// Fixed-width table printing helpers.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats seconds with 4 significant digits, or the outcome name for
/// failed runs (the paper's per-query tables, 9-11).
std::string FormatTime(const RunRecord& r, bool total = false);

/// One-line rendering of the cache counters carried in a RunRecord,
/// e.g. "Tq 1h/2r/1m · strata 8h/8m · 42 tuples restored"; when interning
/// contended, the contention count is appended, e.g. " · 2 contended";
/// when the join planner
/// ran, its counters follow, e.g. " · plan 1c/1h q1.3" (computed / warm
/// cache hits / output-estimate q-error).
std::string FormatCacheStats(const RunRecord& r);

}  // namespace sparqlog::workloads
