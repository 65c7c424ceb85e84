#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "rdf/term.h"
#include "util/bucket_array.h"

/// \file dictionary.h
/// Interning dictionary mapping RDF terms to dense 32-bit ids. All engines
/// in the repository (reference evaluator, Datalog engine, translators)
/// operate on TermIds; the dictionary is the single source of truth for
/// term content.

namespace sparqlog::rdf {

/// Thread-safe term interner.
///
/// Id 0 is reserved for the undef/null term, so a default TermId acts as
/// SPARQL's "unbound" marker throughout the system.
///
/// Concurrency contract (what concurrent queries over one engine rely on):
/// - `get` is lock-free: terms live in a `BucketArray` whose slots never
///   move, so a published id resolves with one acquire-load. Any id a
///   thread holds was handed to it through a synchronizing operation (the
///   stripe mutex below, or an engine state published before the query
///   started), which orders the slot write.
/// - `Intern*` / `Lookup` take one of `kStripes` mutexes selected by the
///   term's canonical-key hash, so unrelated terms intern concurrently;
///   id allocation serializes briefly on a global allocation mutex.
/// - Ids are first-come-first-served: with multiple interning threads the
///   id *numbering* can vary run to run, but a given term content always
///   maps to exactly one id within a run, and nothing user-visible orders
///   by raw id (dumps, ORDER BY and solution comparison all order by term
///   content).
/// `intern_contention()` counts failed lock acquisitions, surfaced
/// through `Engine::stats()` as the interning-contention counter.
class TermDictionary {
 public:
  static constexpr TermId kUndef = 0;

  TermDictionary();

  TermDictionary(const TermDictionary&) = delete;
  TermDictionary& operator=(const TermDictionary&) = delete;

  /// Interns a term, returning its id (existing id if already present).
  TermId Intern(const Term& term);

  TermId InternIri(std::string_view iri) {
    return Intern(Term::Iri(std::string(iri)));
  }
  TermId InternBlank(std::string_view label) {
    return Intern(Term::Blank(std::string(label)));
  }
  TermId InternLiteral(std::string_view lex, std::string_view datatype = "",
                       std::string_view lang = "") {
    return Intern(Term::Literal(std::string(lex), std::string(datatype),
                                std::string(lang)));
  }
  TermId InternString(std::string_view s) { return InternLiteral(s); }
  TermId InternInteger(int64_t v);
  TermId InternDouble(double v);
  TermId InternBoolean(bool v);

  /// Id of a term if present, without interning.
  std::optional<TermId> Lookup(const Term& term) const;

  const Term& get(TermId id) const { return terms_[id]; }

  /// Number of interned terms (including undef).
  size_t size() const { return num_terms_.load(std::memory_order_acquire); }

  /// A fresh blank node label unique within this dictionary.
  std::string FreshBlankLabel();

  /// Rendering helper: ToString of the term behind `id`.
  std::string Render(TermId id) const { return get(id).ToString(); }

  /// Failed stripe/allocation lock acquisitions since construction — the
  /// interning-contention signal between concurrent queries.
  uint64_t intern_contention() const {
    return contention_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr size_t kStripes = 16;

  struct Stripe {
    std::mutex mu;
    std::unordered_map<std::string, TermId> index;
  };

  Stripe& StripeFor(const std::string& key) const {
    return stripes_[std::hash<std::string>()(key) % kStripes];
  }

  BucketArray<Term> terms_;
  std::atomic<uint32_t> num_terms_{0};
  mutable std::array<Stripe, kStripes> stripes_;
  std::mutex alloc_mu_;  // serializes id allocation + slot construction
  std::atomic<uint64_t> blank_counter_{0};
  mutable std::atomic<uint64_t> contention_{0};
};

}  // namespace sparqlog::rdf
