#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "datalog/ast.h"
#include "datalog/relation.h"
#include "datalog/stratify.h"
#include "datalog/value.h"

/// \file stratum_memo.h
/// Cross-query memoization of stratum results.
///
/// The EDB is immutable per loaded dataset (mutations bump the dataset
/// generation and rebuild it), and stratum evaluation is a pure function
/// of (rule set, input relations, program facts). Each stratum therefore
/// gets a composed fingerprint:
///
///   fp(s) = H( canonical rules of s,
///              for each input predicate p (body predicate not defined
///              in s):  fp(stratum defining p)   if rule-defined below
///                      H(name, dataset generation)  otherwise (EDB or
///                                                   always-empty),
///              program facts for s's inputs and heads )
///
/// Predicate *names* (not per-program ids) anchor the fingerprint, so
/// independently translated programs share entries whenever the
/// translation emits the same rules — e.g. the `comp` compatibility
/// stratum is identical across all join/OPTIONAL/MINUS queries, and a
/// repeated query shares every stratum. Snapshots store relation contents
/// in arena order, so a warm restore reproduces the cold run's relation
/// byte-for-byte (solution order included).
///
/// The memo is engine-owned: snapshot Values refer to the engine's term
/// dictionary and Skolem store, both of which only grow, so stored
/// snapshots stay valid for the engine's lifetime; the engine clears the
/// memo when the dataset generation changes.

namespace sparqlog::datalog {

/// Derived relations of one completed stratum (including any program
/// facts seeded into its head predicates), in arena insertion order.
struct StratumSnapshot {
  struct RelationSnapshot {
    std::string predicate;  ///< predicate name (program-independent)
    uint32_t arity = 0;
    uint32_t num_rows = 0;
    std::vector<Value> rows;  ///< flat, arity-strided, insertion order
  };
  std::vector<RelationSnapshot> relations;
  uint64_t tuples = 0;

  /// Appends `rel`'s rows (arena order, flat) as one RelationSnapshot.
  void Capture(std::string predicate, const Relation& rel);

  /// True when every captured relation names a predicate of `preds` with
  /// the same arity, and, unless `allow_nullary`, a non-zero one. The
  /// evaluator checks this before touching the IDB, so a fingerprint
  /// collision with a foreign rule set degrades to a memo miss.
  bool Resolves(const PredicateTable& preds, bool allow_nullary) const;

  /// Replays every captured relation into `idb`, resolving predicates by
  /// name through `preds`, tagging rows with `round`. Precondition:
  /// `Resolves(preds, true)`; asserted in debug builds. Snapshots store
  /// rows in the flat staged layout, so each relation restores through
  /// one InsertStaged batch (one stride dispatch, not one per row).
  /// Returns the number of rows actually inserted (program facts seeded
  /// earlier dedup away).
  uint64_t Restore(const PredicateTable& preds, uint32_t round,
                   Database* idb) const;

  size_t bytes() const;
};

/// Bounded (by bytes) LRU store of stratum snapshots keyed by the
/// composed stratum fingerprint.
///
/// Thread safety: internally synchronized for the shared serving engine.
/// Lookup hands out a shared_ptr, so a reader can keep replaying its
/// snapshot while another query Inserts (or LRU-evicts the same entry) —
/// the snapshot object stays alive until the last reader drops it. Two
/// queries that race on the same cold stratum both evaluate and both
/// Insert equivalent snapshots; the last writer wins.
class StratumMemo {
 public:
  explicit StratumMemo(size_t max_bytes) : max_bytes_(max_bytes) {}

  /// Snapshot for `key`, promoted to most-recently-used; nullptr on miss.
  /// The returned snapshot is immutable and outlives any concurrent
  /// Insert / Clear / eviction.
  std::shared_ptr<const StratumSnapshot> Lookup(uint64_t key);

  /// Stores (or overwrites) the snapshot for `key`, evicting LRU entries
  /// until under the byte budget (the newest entry is always kept).
  void Insert(uint64_t key, StratumSnapshot snapshot);

  void Clear();

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return index_.size();
  }
  size_t bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
  }
  size_t max_bytes() const { return max_bytes_; }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  using Slot = std::pair<uint64_t, std::shared_ptr<const StratumSnapshot>>;

  size_t max_bytes_;
  size_t bytes_ = 0;
  std::atomic<uint64_t> evictions_{0};
  mutable std::mutex mu_;
  // Front = most recently used.
  std::list<Slot> lru_;
  std::unordered_map<uint64_t, std::list<Slot>::iterator> index_;
};

/// Per-predicate-name EDB mutation counters, maintained by the engine's
/// incremental-update path: ApplyUpdate bumps the counter of every EDB
/// predicate whose delta translation produced rows, so strata reading
/// only untouched predicates keep their fingerprint (and memo entry)
/// across writes.
using EdbVersionMap = std::unordered_map<std::string, uint64_t>;

/// Computes the composed fingerprint of every stratum of `program` under
/// `strat`. `dataset_fp` is the engine's EDB anchor (the generation at
/// cold load); `skolems` resolves Skolem function ids to their canonical
/// names. `edb_versions`, when non-null, refines the EDB anchor per
/// predicate name (absent name = version 0), enabling selective memo
/// invalidation after incremental updates; null behaves as all-zero.
std::vector<uint64_t> StratumFingerprints(
    const Program& program, const Stratification& strat,
    const SkolemStore& skolems, uint64_t dataset_fp,
    const EdbVersionMap* edb_versions = nullptr);

}  // namespace sparqlog::datalog
