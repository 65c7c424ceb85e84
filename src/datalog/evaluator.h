#pragma once

#include <memory>

#include "datalog/ast.h"
#include "datalog/incremental.h"
#include "datalog/relation.h"
#include "datalog/stratify.h"
#include "datalog/stratum_memo.h"
#include "datalog/value.h"
#include "eval/expr_eval.h"
#include "util/counters.h"
#include "util/exec_context.h"
#include "util/status.h"

/// \file evaluator.h
/// Bottom-up evaluation of Datalog± programs: stratum-by-stratum
/// semi-naive fixpoint with on-demand hash-index joins, builtin literals
/// (assignment, disequality, Skolem-term construction, embedded SPARQL
/// filters) and stratified negation.
///
/// The engine plays the role of the Vadalog system in the paper: the
/// translation's existential tuple-ID variables are realized as Skolem
/// terms over the positive body (Appendix C), so bag semantics is
/// preserved under the engine's set semantics while fixpoints terminate.

namespace sparqlog::datalog {

/// Evaluation statistics (exposed for benchmarks and ablations). The
/// FIXPOINT rows of the counter table (util/counters.h) are summed over
/// one Evaluate call; the engine folds them into its lifetime totals.
struct EvalStats {
#define SPARQLOG_EVAL_FIELD(name, help) uint64_t name = 0;
  SPARQLOG_COUNTER_TABLE(SPARQLOG_SKIP_ROW, SPARQLOG_EVAL_FIELD,
                         SPARQLOG_SKIP_ROW)
#undef SPARQLOG_EVAL_FIELD
  uint64_t tuples_derived = 0;  ///< distinct tuples added
  /// Always 0: every round runs serially on the calling thread. Kept so
  /// existing benchmark reports that read it still compile.
  uint32_t parallel_rounds = 0;
};

/// Evaluation strategy knob for the micro-ablation benchmark: naive mode
/// re-evaluates every rule against full relations each round (this is the
/// behaviour the Stardog-sim baseline inherits).
enum class FixpointMode : uint8_t { kSemiNaive, kNaive };

class Evaluator {
 public:
  Evaluator(rdf::TermDictionary* dict, SkolemStore* skolems)
      : expr_eval_(dict), skolems_(skolems) {}

  void set_mode(FixpointMode mode) { mode_ = mode; }

  /// Ignored: a query's fixpoint always runs on the calling thread
  /// (concurrency comes from concurrent Evaluate calls). These three
  /// setters remain only so existing benchmark drivers still compile.
  void set_num_threads(uint32_t) {}
  void set_parallel_merge(bool) {}
  void set_parallel_naive(bool) {}

  /// Runs TC-shaped recursive strata (one linear closure rule — the
  /// shape every recursive property path translates to) through the
  /// dedicated transitive-closure kernel instead of the generic delta
  /// rounds (default on; see tc_kernel.h). Off = the generic fixpoint,
  /// kept as differential ground truth. Semi-naive mode only; the kernel
  /// never changes result sets, only arena row ids.
  void set_tc_kernel(bool on) { tc_kernel_ = on; }

  /// Cross-query stratum memo (see stratum_memo.h) plus the input of
  /// incremental maintenance, both provided by the engine. `dataset_fp`
  /// is the generation fingerprint of the dataset the EDB was
  /// materialized from; it anchors every EDB input in the composed
  /// stratum fingerprints, and `versions` refines each anchor per
  /// predicate (it must be passed consistently across queries once
  /// updates have happened). Completed strata are snapshotted into the
  /// memo, and strata whose fingerprint already has a snapshot are
  /// restored instead of evaluated. `delta` + `prev_versions` describe
  /// the latest `ApplyUpdate`: on a memo miss whose previous-versions
  /// fingerprint still has a snapshot, the stratum is re-derived from
  /// that snapshot plus the input deltas (insertions as one extra
  /// semi-naive round, deletions via DRed) instead of from scratch; a
  /// DRed cascade past `max_overdelete` tuples recomputes the stratum.
  /// Only the semi-naive mode consults the memo (naive mode is the
  /// reference semantics for differentials). Lifetimes: the memo and the
  /// maps must outlive the Evaluate call; `delta` is shared-owned.
  struct MemoInput {
    StratumMemo* memo = nullptr;                   ///< null = no memo
    uint64_t dataset_fp = 0;                       ///< EDB anchor
    const EdbVersionMap* versions = nullptr;       ///< current EDB versions
    EdbDeltaPtr delta;                             ///< latest update's delta
    const EdbVersionMap* prev_versions = nullptr;  ///< versions before delta
    uint64_t max_overdelete = 0;                   ///< DRed bound → fallback
  };
  void set_stratum_memo(MemoInput input) { memo_ = std::move(input); }

  /// Evaluates `program` with EDB relations from `edb` (indexes may be
  /// built on it, tuples are never added), materializing derived tuples
  /// into `idb`. IDB and EDB predicate sets must be disjoint.
  Status Evaluate(const Program& program, Database* edb, Database* idb,
                  ExecContext* ctx);

  const EvalStats& stats() const { return stats_; }

 private:
  // Per-rule-invocation, per-Evaluate-call and per-stratum state,
  // defined in the .cc.
  struct RuleRun;
  struct Pass;
  struct Stratum;

  eval::ExprEvaluator expr_eval_;
  SkolemStore* skolems_;
  FixpointMode mode_ = FixpointMode::kSemiNaive;
  bool tc_kernel_ = true;
  MemoInput memo_;
  EvalStats stats_;
};

}  // namespace sparqlog::datalog
