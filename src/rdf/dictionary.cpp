#include "rdf/dictionary.h"

#include <cmath>

#include "util/string_util.h"

namespace sparqlog::rdf {

TermDictionary::TermDictionary() {
  // Slot 0: the undef/null term. Constructed serially, before any reader.
  *terms_.Slot(0) = Term();
  num_terms_.store(1, std::memory_order_release);
  StripeFor(Term().CanonicalKey())
      .index.emplace(Term().CanonicalKey(), kUndef);
}

TermId TermDictionary::Intern(const Term& term) {
  std::string key = term.CanonicalKey();
  Stripe& stripe = StripeFor(key);
  auto stripe_lock = LockCounted(stripe.mu, contention_);
  auto it = stripe.index.find(key);
  if (it != stripe.index.end()) return it->second;
  TermId id;
  {
    // The slot is fully written before the id escapes: threads learn ids
    // through this stripe's mutex (same key), another synchronizing
    // channel (an engine publish), or not at all — so the
    // lock-free get() below always reads a completed Term.
    auto alloc_lock = LockCounted(alloc_mu_, contention_);
    id = num_terms_.load(std::memory_order_relaxed);
    *terms_.Slot(id) = term;
    num_terms_.store(id + 1, std::memory_order_release);
  }
  stripe.index.emplace(std::move(key), id);
  return id;
}

TermId TermDictionary::InternInteger(int64_t v) {
  return InternLiteral(std::to_string(v), xsd::kInteger);
}

TermId TermDictionary::InternDouble(double v) {
  // Canonical-ish rendering: integers print without exponent to keep test
  // output readable.
  if (std::floor(v) == v && std::abs(v) < 1e15) {
    return InternLiteral(StringPrintf("%.1f", v), xsd::kDouble);
  }
  return InternLiteral(StringPrintf("%g", v), xsd::kDouble);
}

TermId TermDictionary::InternBoolean(bool v) {
  return InternLiteral(v ? "true" : "false", xsd::kBoolean);
}

std::optional<TermId> TermDictionary::Lookup(const Term& term) const {
  std::string key = term.CanonicalKey();
  Stripe& stripe = StripeFor(key);
  auto stripe_lock = LockCounted(stripe.mu, contention_);
  auto it = stripe.index.find(key);
  if (it == stripe.index.end()) return std::nullopt;
  return it->second;
}

std::string TermDictionary::FreshBlankLabel() {
  return "gen" + std::to_string(
                     blank_counter_.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace sparqlog::rdf
