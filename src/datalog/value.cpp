#include "datalog/value.h"

namespace sparqlog::datalog {

uint32_t SkolemStore::InternFunction(const std::string& name) {
  auto lock = LockCounted(alloc_mu_, contention_);
  auto it = fn_index_.find(name);
  if (it != fn_index_.end()) return it->second;
  uint32_t id = num_fns_.load(std::memory_order_relaxed);
  *fn_names_.Slot(id) = name;
  num_fns_.store(id + 1, std::memory_order_release);
  fn_index_.emplace(name, id);
  return id;
}

Value SkolemStore::Intern(uint32_t fn, std::vector<Value> args) {
  SkolemTerm term{fn, std::move(args)};
  Stripe& stripe = stripes_[SkolemTermHash()(term) % kStripes];
  auto stripe_lock = LockCounted(stripe.mu, contention_);
  auto it = stripe.index.find(term);
  if (it != stripe.index.end()) {
    return (static_cast<uint64_t>(it->second) + 1) << 32;
  }
  uint32_t id;
  {
    // Slot write completes before the id escapes via the stripe mutex or
    // another synchronizing hand-off, so the lock-free get() reads a
    // completed term.
    auto alloc_lock = LockCounted(alloc_mu_, contention_);
    id = num_terms_.load(std::memory_order_relaxed);
    *terms_.Slot(id) = term;
    num_terms_.store(id + 1, std::memory_order_release);
  }
  stripe.index.emplace(std::move(term), id);
  return (static_cast<uint64_t>(id) + 1) << 32;
}

std::string SkolemStore::Render(Value v,
                                const rdf::TermDictionary& dict) const {
  const SkolemTerm& t = get(v);
  std::string out = "[\"" + FunctionName(t.fn) + "\"";
  for (Value a : t.args) {
    out += ", ";
    out += RenderValue(a, dict, *this);
  }
  out += "]";
  return out;
}

std::string RenderValue(Value v, const rdf::TermDictionary& dict,
                        const SkolemStore& skolems) {
  if (IsSkolemValue(v)) return skolems.Render(v, dict);
  return dict.Render(TermFromValue(v));
}

}  // namespace sparqlog::datalog
