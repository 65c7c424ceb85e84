#pragma once

#include <cstdint>

/// \file counters.h
/// The engine's counter table. Every counter that `Engine::stats()`
/// reports and `/stats` serves is one row here, and each list that
/// carries the counters (the `EngineStats` fields, the engine's atomics,
/// the per-query fold, the snapshot, the JSON keys, the summed
/// `datalog::EvalStats` fields) is generated from these rows. Adding a
/// counter takes one row plus its increment site.
///
/// A row's macro names its kind:
///  * COUNTER(name, help): an engine event (admission, program cache,
///    planner, updates). An atomic in `Engine::Counters`, bumped where the
///    event happens.
///  * FIXPOINT(name, help): counted per evaluation in `datalog::EvalStats`
///    (so per query in `QueryStats::fixpoint`); after each query the
///    engine adds the query's value to an atomic of the same name.
///  * GAUGE(type, name, help): read from its source when `Engine::stats()`
///    takes its snapshot; no atomic and no fold.
/// Every row is an `EngineStats` field; row order is field order and the
/// key order of the `/stats` JSON.
///
/// A generator passes one macro per kind, and SPARQLOG_SKIP_ROW for the
/// kinds it leaves out.
#define SPARQLOG_COUNTER_TABLE(COUNTER, FIXPOINT, GAUGE)                      \
  COUNTER(queries, "admitted Execute calls that completed")                  \
  COUNTER(failures, "admitted Execute calls that returned an error")         \
  COUNTER(rejected, "calls shed by admission control")                       \
  GAUGE(uint64_t, in_flight, "calls admitted right now")                     \
  COUNTER(queued, "calls that waited in the admission queue")                \
  GAUGE(bool, degraded, "degraded mode is on (Options::Degrade)")            \
  COUNTER(degrade_entries, "times degraded mode was entered")                \
  COUNTER(degrade_exits, "times degraded mode recovered on its own")         \
  COUNTER(program_hits, "program cache: cached program reused verbatim")     \
  COUNTER(program_rebinds, "program cache: shape hit, parameters re-bound")  \
  COUNTER(program_misses, "program cache: translated from scratch")          \
  GAUGE(uint64_t, program_evictions, "program cache: LRU evictions")         \
  FIXPOINT(stratum_hits, "strata restored from the stratum memo")            \
  FIXPOINT(stratum_misses, "fingerprinted strata evaluated")                 \
  GAUGE(uint64_t, stratum_evictions, "stratum memo: LRU evictions")          \
  FIXPOINT(tuples_restored, "tuples re-inserted from memo snapshots")        \
  COUNTER(invalidations, "EDB rebuilds after a dataset mutation")            \
  COUNTER(plans_computed, "programs ordered by the join planner")            \
  COUNTER(plan_cache_hits, "cached plans reused on a shape hit")             \
  FIXPOINT(rounds, "semi-naive rounds")                                      \
  GAUGE(uint64_t, interning_contention, "dict + Skolem interning contention") \
  FIXPOINT(tc_kernels_hit, "TC-shaped strata run by the closure kernel")     \
  FIXPOINT(tc_dense_frontiers, "kernel runs with bitset frontiers")          \
  FIXPOINT(tc_sparse_frontiers, "kernel runs with sorted-vector frontiers")  \
  COUNTER(updates, "ApplyUpdate calls that completed")                       \
  COUNTER(update_noops, "updates whose net delta was empty")                 \
  FIXPOINT(strata_incremental, "strata re-derived from an old snapshot")     \
  FIXPOINT(strata_dred, "incremental strata that ran DRed")                  \
  FIXPOINT(incremental_fallbacks, "DRed-bound aborts to a full recompute")   \
  FIXPOINT(tuples_overdeleted, "DRed over-deletions before re-derivation")   \
  FIXPOINT(tuples_rederived, "over-deleted tuples derived back")

#define SPARQLOG_SKIP_ROW(...)
