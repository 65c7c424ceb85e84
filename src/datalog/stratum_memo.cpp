#include "datalog/stratum_memo.h"

#include <algorithm>

#include "util/hash.h"

namespace sparqlog::datalog {

void StratumSnapshot::Capture(std::string predicate, const Relation& rel) {
  RelationSnapshot rs;
  rs.predicate = std::move(predicate);
  rs.arity = rel.arity();
  rs.num_rows = static_cast<uint32_t>(rel.size());
  rs.rows.reserve(static_cast<size_t>(rs.num_rows) * rs.arity);
  for (RowRef row : rel.rows()) {
    rs.rows.insert(rs.rows.end(), row.begin(), row.end());
  }
  tuples += rs.num_rows;
  relations.push_back(std::move(rs));
}

bool StratumSnapshot::Resolves(const PredicateTable& preds,
                               bool allow_nullary) const {
  for (const RelationSnapshot& rel : relations) {
    auto pid = preds.Lookup(rel.predicate);
    if (!pid || preds.Arity(*pid) != rel.arity ||
        (rel.arity == 0 && !allow_nullary)) {
      return false;
    }
  }
  return true;
}

uint64_t StratumSnapshot::Restore(const PredicateTable& preds, uint32_t round,
                                  Database* idb) const {
  uint64_t restored = 0;
  for (const RelationSnapshot& rel : relations) {
    auto pid = preds.Lookup(rel.predicate);
    assert(pid && preds.Arity(*pid) == rel.arity);  // caller pre-validated
    Relation& r = idb->relation(*pid, rel.arity);
    restored += r.InsertStaged(rel.rows.data(), rel.num_rows, round);
  }
  return restored;
}

size_t StratumSnapshot::bytes() const {
  size_t n = sizeof(StratumSnapshot);
  for (const RelationSnapshot& rel : relations) {
    n += sizeof(RelationSnapshot) + rel.predicate.size() +
         rel.rows.capacity() * sizeof(Value);
  }
  return n;
}

std::shared_ptr<const StratumSnapshot> StratumMemo::Lookup(uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void StratumMemo::Insert(uint64_t key, StratumSnapshot snapshot) {
  auto stored = std::make_shared<const StratumSnapshot>(std::move(snapshot));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    bytes_ -= it->second->second->bytes();
    bytes_ += stored->bytes();
    it->second->second = std::move(stored);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    bytes_ += stored->bytes();
    lru_.emplace_front(key, std::move(stored));
    index_.emplace(key, lru_.begin());
  }
  // Evict from the cold end, but always keep the newest entry so a single
  // oversized stratum still serves its own repeats. A concurrent reader
  // holding an evicted snapshot keeps it alive through its shared_ptr.
  while (bytes_ > max_bytes_ && lru_.size() > 1) {
    bytes_ -= lru_.back().second->bytes();
    index_.erase(lru_.back().first);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void StratumMemo::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

namespace {

void Fold(size_t& h, uint64_t v) { HashCombine(h, v); }
void FoldStr(size_t& h, const std::string& s) { HashCombine(h, Fnv1a64(s)); }

void FoldExpr(size_t& h, const sparql::Expr& e) {
  Fold(h, static_cast<uint64_t>(e.kind));
  Fold(h, static_cast<uint64_t>(e.compare_op));
  Fold(h, static_cast<uint64_t>(e.arith_op));
  Fold(h, static_cast<uint64_t>(e.builtin));
  Fold(h, e.term);
  FoldStr(h, e.var);
  Fold(h, e.args.size());
  for (const sparql::ExprPtr& a : e.args) FoldExpr(h, *a);
}

void FoldTerm(size_t& h, const RuleTerm& t) {
  Fold(h, t.is_var ? 1 : 2);
  Fold(h, t.is_var ? t.var : t.constant);
}

void FoldAtom(size_t& h, const Program& program, const Atom& atom) {
  FoldStr(h, program.predicates.Name(atom.predicate));
  Fold(h, atom.args.size());
  for (const RuleTerm& t : atom.args) FoldTerm(h, t);
}

void FoldRule(size_t& h, const Program& program, const SkolemStore& skolems,
              const Rule& rule) {
  FoldAtom(h, program, rule.head);
  Fold(h, rule.positive.size());
  // Positive bodies fold order-insensitively (per-atom fingerprints,
  // sorted): the join planner reorders them for cost, and a
  // conjunction's derived relation does not depend on atom order — so a
  // replan (e.g. after an incremental update refreshes EDB statistics)
  // must not orphan every memo entry and old-snapshot anchor.
  std::vector<uint64_t> atom_fps;
  atom_fps.reserve(rule.positive.size());
  for (const Atom& a : rule.positive) {
    size_t ah = 0x243f6a8885a308d3ULL;
    FoldAtom(ah, program, a);
    atom_fps.push_back(ah);
  }
  std::sort(atom_fps.begin(), atom_fps.end());
  for (uint64_t fp : atom_fps) Fold(h, fp);
  Fold(h, rule.negative.size());
  for (const Atom& a : rule.negative) FoldAtom(h, program, a);
  Fold(h, rule.builtins.size());
  for (const BuiltinLit& b : rule.builtins) {
    Fold(h, static_cast<uint64_t>(b.kind));
    FoldTerm(h, b.lhs);
    FoldTerm(h, b.rhs);
    FoldTerm(h, b.target);
    if (b.kind == BuiltinKind::kSkolem) {
      FoldStr(h, skolems.FunctionName(b.skolem_fn));
    }
    Fold(h, b.skolem_args.size());
    for (const RuleTerm& t : b.skolem_args) FoldTerm(h, t);
    if (b.expr) FoldExpr(h, *b.expr);
    Fold(h, b.expr_vars.size());
    for (const auto& [name, var] : b.expr_vars) {
      FoldStr(h, name);
      Fold(h, var);
    }
  }
}

}  // namespace

std::vector<uint64_t> StratumFingerprints(
    const Program& program, const Stratification& strat,
    const SkolemStore& skolems, uint64_t dataset_fp,
    const EdbVersionMap* edb_versions) {
  // Program facts, fingerprinted per predicate in seed order (the seed
  // loop inserts facts in program order, so order is part of the state a
  // snapshot reproduces).
  std::unordered_map<PredicateId, size_t> facts_fp;
  for (const Fact& f : program.facts) {
    size_t& h = facts_fp.try_emplace(f.predicate, 0x9e3779b97f4a7c15ULL)
                    .first->second;
    Fold(h, f.tuple.size());
    for (Value v : f.tuple) Fold(h, v);
  }

  // Defining stratum per rule-defined predicate. Body predicates of a
  // stratum always resolve at or below it, so processing strata in order
  // sees every lower fingerprint already computed.
  std::unordered_map<PredicateId, uint32_t> head_stratum;
  for (uint32_t s = 0; s < strat.num_strata; ++s) {
    for (uint32_t ri : strat.strata_rules[s]) {
      head_stratum.emplace(program.rules[ri].head.predicate, s);
    }
  }

  std::vector<uint64_t> fps(strat.num_strata, 0);
  for (uint32_t s = 0; s < strat.num_strata; ++s) {
    size_t h = 0xcbf29ce484222325ULL;
    const std::vector<uint32_t>& rule_ids = strat.strata_rules[s];
    Fold(h, rule_ids.size());
    for (uint32_t ri : rule_ids) FoldRule(h, program, skolems, program.rules[ri]);

    // Input predicates: everything read by this stratum that it does not
    // define, in sorted-name order for determinism.
    std::vector<PredicateId> inputs;
    std::vector<PredicateId> heads;
    for (uint32_t ri : rule_ids) {
      const Rule& rule = program.rules[ri];
      heads.push_back(rule.head.predicate);
      for (const Atom& a : rule.positive) inputs.push_back(a.predicate);
      for (const Atom& a : rule.negative) inputs.push_back(a.predicate);
    }
    std::sort(heads.begin(), heads.end());
    heads.erase(std::unique(heads.begin(), heads.end()), heads.end());
    std::sort(inputs.begin(), inputs.end());
    inputs.erase(std::unique(inputs.begin(), inputs.end()), inputs.end());
    inputs.erase(std::remove_if(inputs.begin(), inputs.end(),
                                [&](PredicateId p) {
                                  auto it = head_stratum.find(p);
                                  return it != head_stratum.end() &&
                                         it->second == s;
                                }),
                 inputs.end());
    std::sort(inputs.begin(), inputs.end(), [&](PredicateId a, PredicateId b) {
      return program.predicates.Name(a) < program.predicates.Name(b);
    });
    for (PredicateId p : inputs) {
      FoldStr(h, program.predicates.Name(p));
      Fold(h, program.predicates.Arity(p));
      auto it = head_stratum.find(p);
      if (it != head_stratum.end()) {
        Fold(h, fps[it->second]);  // rule-defined strictly below
      } else {
        // EDB relation or always-empty: the anchor refined by the
        // predicate's own mutation counter, so incremental updates only
        // move the fingerprints of strata that actually read a touched
        // predicate.
        Fold(h, dataset_fp);
        uint64_t version = 0;
        if (edb_versions != nullptr) {
          auto vit = edb_versions->find(program.predicates.Name(p));
          if (vit != edb_versions->end()) version = vit->second;
        }
        Fold(h, version);
      }
      auto fit = facts_fp.find(p);
      if (fit != facts_fp.end()) Fold(h, fit->second);
    }
    // Facts seeded into this stratum's own head predicates are part of
    // the snapshot, so they are part of the key.
    for (PredicateId p : heads) {
      auto fit = facts_fp.find(p);
      if (fit != facts_fp.end()) {
        FoldStr(h, program.predicates.Name(p));
        Fold(h, fit->second);
      }
    }
    fps[s] = Fmix64(h);
  }
  return fps;
}

}  // namespace sparqlog::datalog
