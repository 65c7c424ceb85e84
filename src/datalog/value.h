#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/dictionary.h"
#include "util/bucket_array.h"
#include "util/hash.h"

/// \file value.h
/// Datalog values. A Value is either an interned RDF term (low 32 bits,
/// tag 0) or an interned Skolem term (tag 1). Skolem terms implement the
/// paper's duplicate-preservation model (§4.3, Appendix C): tuple IDs are
/// Skolem terms `f<ruleId>(positive body values...)`, so identical
/// derivations collapse (fixpoint terminates) while distinct derivations
/// stay distinguishable (bag semantics survives set semantics).

namespace sparqlog::datalog {

using Value = uint64_t;

inline constexpr uint64_t kSkolemTag = 1ULL << 32;

inline bool IsSkolemValue(Value v) { return (v & ~0xffffffffULL) != 0; }
inline Value ValueFromTerm(rdf::TermId t) { return t; }
inline rdf::TermId TermFromValue(Value v) {
  return static_cast<rdf::TermId>(v & 0xffffffffULL);
}

/// The distinguished SPARQL-null value: the undef term.
inline constexpr Value kNullValue = rdf::TermDictionary::kUndef;

/// A structured Skolem term: function symbol + argument values.
struct SkolemTerm {
  uint32_t fn = 0;
  std::vector<Value> args;

  bool operator==(const SkolemTerm& o) const {
    return fn == o.fn && args == o.args;
  }
};

struct SkolemTermHash {
  size_t operator()(const SkolemTerm& t) const {
    size_t seed = std::hash<uint32_t>()(t.fn);
    for (Value v : t.args) HashCombine(seed, std::hash<Value>()(v));
    return seed;
  }
};

/// Thread-safe interner for Skolem terms. Owned by the evaluation
/// session; TermIds in Skolem arguments refer to the session's
/// TermDictionary.
///
/// Same concurrency contract as rdf::TermDictionary: `get` /
/// `FunctionName` are lock-free over BucketArray slots that never move,
/// `Intern` stripes its reverse index by term hash and serializes id
/// allocation on one mutex, and id numbering (not term identity) is the
/// only thing that can vary across runs when multiple threads intern.
/// This is what lets concurrent queries share one engine's Skolem store.
class SkolemStore {
 public:
  SkolemStore() = default;
  SkolemStore(const SkolemStore&) = delete;
  SkolemStore& operator=(const SkolemStore&) = delete;

  /// Interns a function symbol name (e.g. "f3a"), returning its id.
  /// Called at translation time (serially); safe concurrently anyway.
  uint32_t InternFunction(const std::string& name);

  const std::string& FunctionName(uint32_t fn) const { return fn_names_[fn]; }

  /// Interns a Skolem term, returning its Value (tagged handle).
  Value Intern(uint32_t fn, std::vector<Value> args);

  const SkolemTerm& get(Value v) const {
    return terms_[static_cast<uint32_t>((v >> 32) - 1)];
  }

  size_t size() const { return num_terms_.load(std::memory_order_acquire); }

  /// Failed lock acquisitions since construction (see
  /// TermDictionary::intern_contention).
  uint64_t intern_contention() const {
    return contention_.load(std::memory_order_relaxed);
  }

  /// Debug rendering: ["f3", <iri>, ...].
  std::string Render(Value v, const rdf::TermDictionary& dict) const;

 private:
  static constexpr size_t kStripes = 16;

  struct Stripe {
    std::mutex mu;
    std::unordered_map<SkolemTerm, uint32_t, SkolemTermHash> index;
  };

  BucketArray<std::string, 6> fn_names_;
  std::atomic<uint32_t> num_fns_{0};
  std::unordered_map<std::string, uint32_t> fn_index_;  // under alloc_mu_
  BucketArray<SkolemTerm> terms_;
  std::atomic<uint32_t> num_terms_{0};
  mutable std::array<Stripe, kStripes> stripes_;
  std::mutex alloc_mu_;
  mutable std::atomic<uint64_t> contention_{0};
};

/// Renders any Value (term or Skolem) for diagnostics.
std::string RenderValue(Value v, const rdf::TermDictionary& dict,
                        const SkolemStore& skolems);

}  // namespace sparqlog::datalog
