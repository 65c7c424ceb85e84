#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <shared_mutex>
#include <string_view>

#include "core/data_translator.h"
#include "core/program_cache.h"
#include "core/query_translator.h"
#include "core/solution_translator.h"
#include "datalog/evaluator.h"
#include "datalog/stats.h"
#include "datalog/stratum_memo.h"
#include "eval/binding.h"
#include "rdf/graph.h"
#include "sparql/parser.h"
#include "util/exec_context.h"

/// \file engine.h
/// The SparqLog engine facade (§4): wires the three translation methods
/// T_D / T_Q / T_S around the Datalog± evaluator. Usable in the paper's
/// two senses (§7): as a stand-alone SPARQL-to-Warded-Datalog± translator
/// (TranslateToText) and as a full Knowledge Graph engine (Execute).
///
/// Serving contract (the concurrent-server redesign):
///  * `Load()` is an explicit one-time phase that materializes the EDB
///    and its planner statistics. `Execute` on an unloaded engine fails
///    with FailedPrecondition — there is no lazy load hiding inside the
///    query path any more.
///  * After Load, `Execute` is `const` and safe to call from any number
///    of threads over one shared Engine: the EDB is frozen (index builds
///    are published race-free), the program cache and stratum memo are
///    internally synchronized, term/Skolem interning is thread-safe, and
///    every per-query output travels in the returned `Execution` value —
///    nothing is parked in engine members between calls.
///  * Mutating the dataset does NOT disturb in-flight queries: they keep
///    reading the loaded snapshot (every cache and plan is stamped with
///    the loaded `Dataset::Generation`). Publishing the mutation is an
///    explicit second `Load()`, which waits for in-flight queries to
///    drain (writer side of the engine's reader/writer lock), rebuilds
///    the EDB and drops the memoized strata.
///  * Admission control: `Options::Serving::max_in_flight` bounds
///    concurrent Executes; calls beyond it fail fast with Unavailable.
///    Per-query timeout/tuple budgets ride `QueryLimits`.

namespace sparqlog::core {

class Engine {
 public:
  struct Options {
    /// Enables the RDFS-subset inference rules (subClassOf /
    /// subPropertyOf / domain / range) over the loaded data.
    bool ontology = false;
    /// Accepts the extension features beyond the published engine
    /// (FILTER EXISTS / NOT EXISTS, BIND, VALUES; the paper's §7 roadmap).
    bool extensions = false;
    /// Default per-query wall-clock budget; zero means unlimited. A
    /// per-call QueryLimits::timeout overrides it.
    std::chrono::milliseconds timeout{0};
    /// Default per-query materialized-tuple budget ("mem-out"); zero =
    /// unlimited. A per-call QueryLimits::tuple_budget overrides it.
    uint64_t tuple_budget = 0;
    /// EDB materialization strategy for Load(): kBulkLoad (default)
    /// batches per EDB predicate and dedup-builds in one pass;
    /// kPerTupleInsert is the tuple-at-a-time reference path the
    /// differential tests compare against. Bit-identical EDBs either way.
    EdbBuild edb_build = EdbBuild::kBulkLoad;

    struct Parallelism {
      /// Ignored: every query's fixpoint runs on its calling thread, and
      /// a server gets its concurrency from concurrent Execute calls.
      /// Kept only so existing benchmark drivers still compile.
      uint32_t num_threads = 0;
    };

    /// Cross-query caching knobs (core/program_cache.h,
    /// datalog/stratum_memo.h). Both caches are shared by all concurrent
    /// callers of one engine — this is what makes the hot shapes of a
    /// serving workload cheap.
    struct Caching {
      /// Shape-keyed translated-program cache: repeated queries (and
      /// queries differing only in constants / LIMIT / OFFSET) skip T_Q
      /// and re-bind parameters into the cached Datalog± program.
      bool program_cache = true;
      /// LRU capacity of the program cache, in distinct query shapes.
      size_t program_cache_capacity = 64;
      /// Cross-query memoization of stratum results: derived relations
      /// of strata whose rules and inputs are unchanged (same dataset
      /// generation) are snapshotted and replayed instead of re-derived.
      bool stratum_memo = true;
      /// Byte budget of the stratum memo (LRU-evicted beyond it).
      size_t stratum_memo_bytes = 64ull << 20;
    };

    /// Cost-based join ordering (datalog/planner.h).
    struct Planner {
      /// Load() collects EDB statistics and every translated program's
      /// rule bodies are reordered by estimated intermediate
      /// cardinality; plans ride the program cache. Off = translation
      /// order + the evaluator's runtime heuristic (the exact
      /// pre-planner behaviour, kept for differentials and ablations).
      /// Results are identical either way; only evaluation cost changes.
      bool join_planner = true;
    };

    /// Fixpoint evaluation strategy (datalog/evaluator.h).
    struct Fixpoint {
      /// Routes TC-shaped recursive strata — the single linear closure
      /// rule every recursive property path (`p+`, `p*`, …) translates
      /// to — through the dedicated transitive-closure kernel
      /// (datalog/tc_kernel.h) instead of generic delta rounds. Results
      /// are identical either way (differential-tested); only evaluation
      /// cost changes. Off = the generic fixpoint, kept as the ablation
      /// reference and differential ground truth.
      bool tc_kernel = true;
    };

    /// Concurrent-serving admission control.
    struct Serving {
      /// Maximum concurrently admitted Execute calls; further calls fail
      /// fast with Status::Unavailable instead of queueing. 0 (default)
      /// = unlimited.
      uint32_t max_in_flight = 0;
      /// Bounded admission wait queue: when max_in_flight is saturated,
      /// up to this many calls wait for a slot instead of failing fast;
      /// calls beyond it — or whose deadline passes while waiting — are
      /// shed with Unavailable. 0 (default) keeps pure fail-fast.
      uint32_t queue_limit = 0;
      /// Longest a queued call waits for a slot before being shed. The
      /// effective deadline is the smaller of this and the query's own
      /// timeout — a query that would blow its budget queueing is shed
      /// immediately rather than admitted doomed.
      std::chrono::milliseconds queue_timeout{100};
    };

    /// Graceful degradation under sustained overload: a sliding window
    /// of query outcomes (ok / timeout / mem-out / shed) drives a
    /// degraded mode that sheds the stratum memo and program cache
    /// (reclaiming memory), halves the effective admission capacity, and
    /// bypasses new memoization until the bad-outcome ratio falls back
    /// below exit_ratio — recovery is automatic, no operator action.
    struct Degrade {
      /// Off by default; serving deployments (examples/sparql_server)
      /// turn it on.
      bool enabled = false;
      uint32_t window = 64;      ///< outcomes tracked in the ring
      uint32_t min_events = 16;  ///< outcomes before the ratio is trusted
      double enter_ratio = 0.5;  ///< bad fraction that enters degraded
      double exit_ratio = 0.125; ///< bad fraction that exits degraded
    };

    /// Incremental EDB maintenance (ApplyUpdate; datalog/incremental.h).
    struct Update {
      /// Publishes ApplyUpdate mutations by translating only the changed
      /// triples into per-predicate EDB deltas and invalidating memoized
      /// strata selectively (per-predicate version counters in the
      /// stratum fingerprints); affected strata are then re-derived from
      /// their pre-update snapshots at the next query instead of from
      /// scratch. Off = every ApplyUpdate falls back to the full
      /// rebuild-and-clear path (the exact re-Load() behaviour, kept for
      /// differentials and ablations). Results are identical either way.
      bool incremental = true;
      /// DRed over-deletion bound: when a deletion cascade over-deletes
      /// more than this many tuples in one stratum, the evaluator
      /// abandons the incremental path for that stratum and recomputes
      /// it from scratch (counted in EngineStats::incremental_fallbacks).
      uint64_t max_overdelete = 1ull << 20;
      /// Planner statistics are recollected once the triples touched
      /// since the last collection exceed this fraction of the triple
      /// relation; below it, the existing statistics are re-stamped
      /// (cardinalities barely moved, replanning every cached shape per
      /// update would cost more than it saves).
      double stats_refresh_fraction = 0.10;
    };

    Parallelism parallelism;
    Caching caching;
    Planner planner;
    Fixpoint fixpoint;
    Serving serving;
    Degrade degrade;
    Update update;
  };

  /// Per-call resource limits; zero fields fall back to the engine-wide
  /// Options defaults. This is how a server applies per-query budgets
  /// without reconfiguring the shared engine.
  struct QueryLimits {
    std::chrono::milliseconds timeout{0};
    uint64_t tuple_budget = 0;
  };

  /// How Execute obtained the Datalog± program for a query.
  enum class ProgramSource : uint8_t {
    kTranslated,  ///< cache miss: translated from scratch (and cached)
    kCacheHit,    ///< shape + data hit: cached program reused verbatim
    kRebound,     ///< shape hit: parameters re-bound into the template
    kUncached,    ///< program cache disabled
  };

  /// Everything one Execute call observed about itself. Returned by
  /// value inside `Execution` — concurrent queries never share stats
  /// state, and nothing mutates the engine to report it.
  struct QueryStats {
    /// Fixpoint counters for this evaluation (rounds, memo hits/misses,
    /// tuples restored, TC-kernel strata, ...).
    datalog::EvalStats fixpoint;
    ProgramSource program_source = ProgramSource::kUncached;
    /// True when the cost-based planner ordered this query's rule
    /// bodies (fresh plan or reused cached plan).
    bool planned = false;
    /// q-error of the planner's output-cardinality estimate against the
    /// materialized output (max(est/actual, actual/est)); 0 when not
    /// planned.
    double plan_estimate_error = 0.0;
    /// End-to-end wall time of the Execute call (translation + fixpoint
    /// + solution translation).
    double wall_seconds = 0.0;
    /// CPU time of the calling thread for the same span. The whole
    /// fixpoint runs on that thread, so this covers all of the query's
    /// compute; compare with wall_seconds to spot waiting vs compute.
    double cpu_seconds = 0.0;
  };

  /// The result bundle of one query execution.
  struct Execution {
    eval::QueryResult result;
    QueryStats stats;
  };

  /// Engine-lifetime counters, aggregated across all (concurrent)
  /// Execute calls. Snapshot of atomics — cheap, lock-free, callable
  /// from any thread (e.g. the server's /stats endpoint).
  struct EngineStats {
    uint64_t queries = 0;         ///< admitted Execute calls, completed
    uint64_t failures = 0;        ///< admitted calls that returned !ok
    uint64_t rejected = 0;        ///< admission-control rejections (shed)
    uint64_t in_flight = 0;       ///< currently admitted calls
    uint64_t queued = 0;          ///< calls that waited in the admission queue
    // Degraded-mode controller (Options::Degrade).
    bool degraded = false;        ///< currently in degraded mode
    uint64_t degrade_entries = 0; ///< times degraded mode was entered
    uint64_t degrade_exits = 0;   ///< times it recovered automatically
    // Program cache.
    uint64_t program_hits = 0;
    uint64_t program_rebinds = 0;
    uint64_t program_misses = 0;
    uint64_t program_evictions = 0;
    // Stratum memo.
    uint64_t stratum_hits = 0;
    uint64_t stratum_misses = 0;
    uint64_t stratum_evictions = 0;
    uint64_t tuples_restored = 0;
    /// EDB rebuilds triggered by re-Load() after a dataset mutation.
    uint64_t invalidations = 0;
    // Join planner.
    uint64_t plans_computed = 0;
    uint64_t plan_cache_hits = 0;
    // Fixpoint rounds, summed across queries.
    uint64_t rounds = 0;
    // Transitive-closure kernel (datalog/tc_kernel.h; summed across
    // queries — one "hit" is one TC-shaped stratum run by the kernel).
    uint64_t tc_kernels_hit = 0;
    uint64_t tc_dense_frontiers = 0;
    uint64_t tc_sparse_frontiers = 0;
    // Incremental maintenance (ApplyUpdate + the evaluator's delta
    // re-derivation; strata counters are summed across queries).
    uint64_t updates = 0;        ///< ApplyUpdate calls, completed OK
    uint64_t update_noops = 0;   ///< updates whose net delta was empty
    uint64_t strata_incremental = 0;  ///< strata re-derived from snapshots
    uint64_t strata_dred = 0;         ///< incremental strata that ran DRed
    uint64_t incremental_fallbacks = 0;  ///< DRed-bound full recomputes
    uint64_t tuples_overdeleted = 0;
    uint64_t tuples_rederived = 0;
    /// Current dict + Skolem interning-contention totals.
    uint64_t interning_contention = 0;
  };

  /// What one ApplyUpdate call did.
  struct UpdateStats {
    size_t inserted = 0;       ///< triples that became present
    size_t deleted = 0;        ///< triples that became absent
    bool noop = false;         ///< net delta was empty; nothing changed
    bool incremental = false;  ///< delta publish (vs full EDB rebuild)
    double wall_seconds = 0.0;
  };

  /// The engine keeps references to the dataset and dictionary; both must
  /// outlive it.
  Engine(const rdf::Dataset* dataset, rdf::TermDictionary* dict,
         Options options);
  Engine(const rdf::Dataset* dataset, rdf::TermDictionary* dict)
      : Engine(dataset, dict, Options()) {}
  /// Mutable-dataset overloads: the engine may additionally mutate the
  /// dataset through ApplyUpdate. Queries never require mutability — a
  /// const-dataset engine simply has ApplyUpdate fail with
  /// FailedPrecondition.
  Engine(rdf::Dataset* dataset, rdf::TermDictionary* dict, Options options)
      : Engine(static_cast<const rdf::Dataset*>(dataset), dict, options) {
    mutable_dataset_ = dataset;
  }
  Engine(rdf::Dataset* dataset, rdf::TermDictionary* dict)
      : Engine(dataset, dict, Options()) {}

  /// T_D: materializes the EDB and its planner statistics. Explicit
  /// one-time phase — Execute fails until it has completed. Calling it
  /// again is a no-op while the dataset generation is unchanged; after a
  /// mutation it drains in-flight queries, rebuilds the EDB and clears
  /// the stratum memo (counted as an invalidation in EngineStats).
  Status Load();

  bool loaded() const { return loaded_.load(std::memory_order_acquire); }

  /// Applies a batch mutation to the default graph and publishes it
  /// atomically with respect to concurrent Execute calls (writer side of
  /// the engine's reader/writer lock; in-flight queries drain first and
  /// later ones see the updated snapshot). Semantics are net:
  /// (G \ deletes) ∪ inserts — deleting an absent triple or inserting a
  /// present one is ignored, and a triple in both lists stays present. An
  /// empty net delta is a true no-op: no generation bump, no EDB work,
  /// no cache invalidation.
  ///
  /// With Options::Update::incremental (default), publishing translates
  /// only the changed triples into per-predicate EDB deltas — term/kind
  /// and subjectOrObject rows are maintained by occurrence counting —
  /// and memoized strata are invalidated selectively; affected strata
  /// re-derive from their snapshots at the next query (insertions as one
  /// extra semi-naive round, deletions via DRed). Requires a
  /// mutable-dataset engine and a completed Load().
  Status ApplyUpdate(const std::vector<rdf::Triple>& inserts,
                     const std::vector<rdf::Triple>& deletes,
                     UpdateStats* stats = nullptr);

  /// Full pipeline on a parsed query. Thread-safe after Load(): any
  /// number of threads may Execute on one shared Engine.
  Result<Execution> Execute(const sparql::Query& query) const {
    return Execute(query, QueryLimits{});
  }
  Result<Execution> Execute(const sparql::Query& query,
                            const QueryLimits& limits) const;

  /// Convenience: parse + execute.
  Result<Execution> ExecuteText(std::string_view sparql_text) const {
    return ExecuteText(sparql_text, QueryLimits{});
  }
  Result<Execution> ExecuteText(std::string_view sparql_text,
                                const QueryLimits& limits) const;

  /// T_Q only: the generated Datalog± program (for tests / the warded
  /// analysis / the translator-CLI example).
  Result<datalog::Program> Translate(const sparql::Query& query) const;

  /// Vadalog-style rendering of the translated program (Figure 2 / 4).
  Result<std::string> TranslateToText(std::string_view sparql_text) const;

  /// Engine-lifetime stats snapshot (atomics; callable from any thread).
  EngineStats stats() const;

  /// True while the degraded-mode controller (Options::Degrade) has the
  /// engine shedding caches and tightening admission. Lock-free.
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }

  datalog::SkolemStore* skolems() const { return &skolems_; }

  /// Storage footprint of the materialized EDB (TupleStore arenas, dedup
  /// tables and indexes), for benchmark loading-cost reporting.
  struct StorageStats {
    uint64_t tuples = 0;
    uint64_t bytes = 0;
  };
  StorageStats edb_storage() const;

 private:
  /// Atomic engine-lifetime counters behind EngineStats.
  struct Counters {
    std::atomic<uint64_t> queries{0};
    std::atomic<uint64_t> failures{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> program_hits{0};
    std::atomic<uint64_t> program_rebinds{0};
    std::atomic<uint64_t> program_misses{0};
    std::atomic<uint64_t> stratum_hits{0};
    std::atomic<uint64_t> stratum_misses{0};
    std::atomic<uint64_t> tuples_restored{0};
    std::atomic<uint64_t> invalidations{0};
    std::atomic<uint64_t> plans_computed{0};
    std::atomic<uint64_t> plan_cache_hits{0};
    std::atomic<uint64_t> rounds{0};
    std::atomic<uint64_t> tc_kernels_hit{0};
    std::atomic<uint64_t> tc_dense_frontiers{0};
    std::atomic<uint64_t> tc_sparse_frontiers{0};
    std::atomic<uint64_t> updates{0};
    std::atomic<uint64_t> update_noops{0};
    std::atomic<uint64_t> strata_incremental{0};
    std::atomic<uint64_t> strata_dred{0};
    std::atomic<uint64_t> incremental_fallbacks{0};
    std::atomic<uint64_t> tuples_overdeleted{0};
    std::atomic<uint64_t> tuples_rederived{0};
  };

  /// What an admitted query's completion tells the degrade controller.
  enum class Outcome : uint8_t { kOk, kTimeout, kMemOut, kShed };

  /// Admission control: admits within the (possibly degraded) in-flight
  /// cap, waits deadline-aware in the bounded queue when saturated, and
  /// sheds with Unavailable otherwise. Pairs with ReleaseAdmission.
  Status Admit(const QueryLimits& limits) const;
  void ReleaseAdmission() const;
  /// Feeds one outcome into the sliding window and flips degraded mode
  /// across the enter/exit thresholds. Lock order: admission_mu_ before
  /// the (internally synchronized) cache mutexes.
  void RecordOutcome(Outcome outcome) const;
  void RecordOutcomeLocked(Outcome outcome) const;

  Result<Execution> ExecuteInternal(const sparql::Query& query,
                                    datalog::Database* edb,
                                    const datalog::EdbStats* stats,
                                    bool scoped,
                                    const QueryLimits& limits) const;
  /// Program for `query` via the shape-keyed cache: verbatim reuse on a
  /// data-identical hit, parameter re-binding on a shape hit, fresh
  /// translation (stored as the shape's template) otherwise. `stats` is
  /// the active EDB statistics (null when the planner is off); `scoped`
  /// marks query-scoped FROM execution, whose plans are never cached.
  Result<std::shared_ptr<const datalog::Program>> TranslateCached(
      const sparql::Query& query, const datalog::EdbStats* stats,
      bool scoped, QueryStats* qs) const;
  /// Engine constants whose values must never be confused with query
  /// parameters during re-binding (see program_cache.h).
  std::vector<datalog::Value> AmbientValues() const;
  /// Runs the cost-based planner over `program` against `stats` and
  /// bumps the lifetime plan counter.
  void PlanForEdb(datalog::Program* program,
                  const datalog::EdbStats& stats) const;

  /// Rebuilds the occurrence counters (`term_occ_`, `so_occ_`) from the
  /// whole dataset; called lazily by the first incremental ApplyUpdate.
  void BuildOccurrenceCounters();

  const rdf::Dataset* dataset_;
  /// Non-null only for mutable-dataset engines; aliases `dataset_`.
  rdf::Dataset* mutable_dataset_ = nullptr;
  rdf::TermDictionary* dict_;
  Options options_;
  /// Thread-safe interners (striped mutexes, lock-free reads) shared by
  /// concurrent translations and evaluations.
  mutable datalog::SkolemStore skolems_;

  /// Reader/writer lock between queries (shared) and Load (exclusive):
  /// readers see one consistent loaded snapshot — EDB, planner
  /// statistics and loaded_generation_ all belong to the same
  /// Dataset::Generation — even while the dataset is being mutated for
  /// the next Load.
  mutable std::shared_mutex state_mu_;
  /// EDB of the loaded snapshot. Frozen between Loads: queries only read
  /// rows and build/probe indexes, both race-free (relation.h).
  mutable datalog::Database edb_;
  std::atomic<bool> loaded_{false};
  uint64_t loaded_generation_ = 0;
  /// EDB statistics for the planner, recollected by every Load; stamped
  /// with loaded_generation_.
  datalog::EdbStats edb_stats_;

  /// Incremental-update state, all guarded by `state_mu_` (exclusive in
  /// ApplyUpdate/Load, shared in Execute).
  /// Fingerprint anchor of the memoized strata: the dataset generation at
  /// cold Load. Incremental updates keep it fixed and refine it with the
  /// per-predicate `edb_versions_` instead, so untouched predicates keep
  /// their memo entries; full rebuilds re-anchor it.
  uint64_t edb_base_fp_ = 0;
  datalog::EdbVersionMap edb_versions_;       ///< current per-name versions
  datalog::EdbVersionMap edb_prev_versions_;  ///< before the latest update
  /// The latest update's per-predicate delta, consumed by the evaluator's
  /// incremental stratum path; replaced on the next update, cleared by
  /// full rebuilds.
  datalog::EdbDeltaPtr pending_delta_;
  /// Occurrence counters behind the term/kind and subjectOrObject delta
  /// translation: `term_occ_[t]` counts t's occurrences across all graphs
  /// (s/p/o positions plus named-graph names), `so_occ_[n]` counts n's
  /// subject/object occurrences in the default graph (the only mutable
  /// one). Built lazily on the first incremental update.
  std::vector<uint64_t> term_occ_;
  std::unordered_map<rdf::TermId, uint64_t> so_occ_;
  bool occ_built_ = false;
  /// Triples touched since planner statistics were last collected (see
  /// Options::Update::stats_refresh_fraction).
  uint64_t delta_since_stats_ = 0;

  /// Shared, internally synchronized caches.
  mutable ProgramCache program_cache_;
  mutable datalog::StratumMemo stratum_memo_;

  mutable Counters counters_;
  mutable std::atomic<uint32_t> in_flight_{0};

  /// Admission queue + degraded-mode controller. `admission_mu_` guards
  /// the waiter bookkeeping and the outcome ring; `degraded_` is also
  /// read lock-free on the query path (memo bypass, /healthz).
  mutable std::mutex admission_mu_;
  mutable std::condition_variable admission_cv_;
  mutable uint32_t queue_waiters_ = 0;
  mutable std::vector<uint8_t> outcome_ring_;  ///< 1 = bad outcome
  mutable size_t outcome_pos_ = 0;
  mutable size_t outcome_count_ = 0;
  mutable uint32_t outcome_bad_ = 0;
  mutable std::atomic<bool> degraded_{false};
  mutable std::atomic<uint64_t> queued_total_{0};
  mutable std::atomic<uint64_t> degrade_entries_{0};
  mutable std::atomic<uint64_t> degrade_exits_{0};
};

}  // namespace sparqlog::core
