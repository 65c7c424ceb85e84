#include "datalog/evaluator.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "datalog/tc_kernel.h"
#include "util/failpoint.h"

namespace sparqlog::datalog {

namespace {

SPARQLOG_FAILPOINT_DEFINE(g_fp_stratum_begin, "datalog.stratum.begin");

constexpr uint32_t kNoDelta = 0xffffffffu;

/// Inserts the program facts (only those of `heads`, when given) into
/// `db` at round 0; returns how many were new.
uint64_t SeedFacts(const Program& program,
                   const std::unordered_set<PredicateId>* heads,
                   Database* db) {
  uint64_t inserted = 0;
  for (const Fact& f : program.facts) {
    if (heads != nullptr && heads->count(f.predicate) == 0) continue;
    const auto arity = static_cast<uint32_t>(f.tuple.size());
    inserted += db->relation(f.predicate, arity).Insert(f.tuple, 0);
  }
  return inserted;
}

}  // namespace

/// Per-rule-invocation execution state: one backtracking join over the
/// rule's positive body with interleaved builtin execution, negation
/// checks at the leaves, and head emission.
struct Evaluator::RuleRun {
  /// Heads are inserted at `insert_round`; with a `delta_atom`, that atom
  /// scans only the rows of `delta_round`.
  RuleRun(Evaluator* eval, const Rule* rule, Database* edb, Database* idb,
          ExecContext* ctx, uint32_t insert_round,
          uint32_t delta_atom = kNoDelta, uint32_t delta_round = 0)
      : eval(eval),
        rule(rule),
        edb(edb),
        idb(idb),
        ctx(ctx),
        insert_round(insert_round),
        delta_round(delta_round),
        delta_atom(delta_atom) {}

  Evaluator* eval;
  const Rule* rule;
  Database* edb;
  Database* idb;
  ExecContext* ctx;
  uint32_t insert_round;
  uint32_t delta_round;
  uint32_t delta_atom;
  // Incremental maintenance (see Pass::Incremental and Pass::Dred):
  // `delta_source` redirects the pinned delta scan away from the IDB (to
  // a scratch database of input deltas), `aux` joins as a third non-delta
  // source on top of EDB+IDB (the over-delete pass over-approximates the
  // pre-update state with current ∪ deleted),
  // `emit_db` redirects head emission (over-deleted heads accumulate in
  // the scratch database, not the IDB), and `head_binding` pre-binds the
  // head tuple (DRed re-derivation asks "is exactly this tuple still
  // derivable?").
  Database* delta_source = nullptr;
  Database* aux = nullptr;
  Database* emit_db = nullptr;
  const Value* head_binding = nullptr;

  std::vector<Value> vals;
  std::vector<bool> bound;
  std::vector<bool> builtin_done;
  std::vector<uint32_t> order;
  std::vector<VarId> trail;
  std::vector<std::vector<uint32_t>> scratch_cols;
  std::vector<std::vector<Value>> scratch_keys;
  std::vector<Value> head_scratch;
  std::vector<Value> neg_scratch;
  Status status;
  uint64_t inserted = 0;

  size_t RelSizeOf(PredicateId pred) const {
    size_t n = 0;
    if (const Relation* r = edb->Find(pred)) n += r->size();
    if (const Relation* r = idb->Find(pred)) n += r->size();
    return n;
  }

  void ComputeOrder() {
    const auto& atoms = rule->positive;
    order.clear();
    // Planner-ordered body (datalog/planner.h): execute as written — the
    // cost-based order beats the runtime heuristic because it knows
    // per-predicate-term cardinalities, not just relation sizes. The
    // delta atom is hoisted to the front (its scan range is pinned); the
    // rest keep their planned relative order.
    if (rule->planned) {
      if (delta_atom != kNoDelta) order.push_back(delta_atom);
      for (uint32_t i = 0; i < atoms.size(); ++i) {
        if (i != delta_atom) order.push_back(i);
      }
      return;
    }
    std::vector<bool> used(atoms.size(), false);
    std::vector<bool> var_known(rule->var_names.size(), false);
    if (delta_atom != kNoDelta) {
      order.push_back(delta_atom);
      used[delta_atom] = true;
      for (const RuleTerm& t : atoms[delta_atom].args) {
        if (t.is_var) var_known[t.var] = true;
      }
    }
    while (order.size() < atoms.size()) {
      int best = -1;
      size_t best_bound = 0;
      size_t best_size = 0;
      for (size_t i = 0; i < atoms.size(); ++i) {
        if (used[i]) continue;
        size_t nbound = 0;
        for (const RuleTerm& t : atoms[i].args) {
          if (!t.is_var || var_known[t.var]) ++nbound;
        }
        size_t sz = RelSizeOf(atoms[i].predicate);
        if (best < 0 || nbound > best_bound ||
            (nbound == best_bound && sz < best_size)) {
          best = static_cast<int>(i);
          best_bound = nbound;
          best_size = sz;
        }
      }
      used[best] = true;
      order.push_back(static_cast<uint32_t>(best));
      for (const RuleTerm& t : atoms[best].args) {
        if (t.is_var) var_known[t.var] = true;
      }
    }
  }

  bool ResolveTerm(const RuleTerm& t, Value* out) const {
    if (!t.is_var) {
      *out = t.constant;
      return true;
    }
    if (!bound[t.var]) return false;
    *out = vals[t.var];
    return true;
  }

  void Bind(VarId v, Value value, std::vector<VarId>* local_trail) {
    vals[v] = value;
    bound[v] = true;
    local_trail->push_back(v);
  }

  void Unbind(std::vector<VarId>* local_trail, size_t from) {
    while (local_trail->size() > from) {
      bound[local_trail->back()] = false;
      local_trail->pop_back();
    }
  }

  /// Runs every builtin whose inputs are available; returns false when a
  /// check fails (binding rejected). Bound variables and completed flags
  /// are recorded so the caller can restore them.
  bool RunBuiltins(std::vector<VarId>* bound_trail,
                   std::vector<uint32_t>* done_trail) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (uint32_t bi = 0; bi < rule->builtins.size(); ++bi) {
        if (builtin_done[bi]) continue;
        const BuiltinLit& b = rule->builtins[bi];
        switch (b.kind) {
          case BuiltinKind::kEq: {
            Value lhs = 0, rhs = 0;
            bool l = ResolveTerm(b.lhs, &lhs);
            bool r = ResolveTerm(b.rhs, &rhs);
            if (l && r) {
              if (lhs != rhs) return false;
            } else if (l && b.rhs.is_var) {
              Bind(b.rhs.var, lhs, bound_trail);
            } else if (r && b.lhs.is_var) {
              Bind(b.lhs.var, rhs, bound_trail);
            } else {
              continue;  // not ready
            }
            builtin_done[bi] = true;
            done_trail->push_back(bi);
            changed = true;
            break;
          }
          case BuiltinKind::kNe: {
            Value lhs = 0, rhs = 0;
            if (!ResolveTerm(b.lhs, &lhs) || !ResolveTerm(b.rhs, &rhs)) {
              continue;
            }
            if (lhs == rhs) return false;
            builtin_done[bi] = true;
            done_trail->push_back(bi);
            changed = true;
            break;
          }
          case BuiltinKind::kSkolem: {
            std::vector<Value> args;
            args.reserve(b.skolem_args.size());
            bool ready = true;
            for (const RuleTerm& t : b.skolem_args) {
              Value v = 0;
              if (!ResolveTerm(t, &v)) {
                ready = false;
                break;
              }
              args.push_back(v);
            }
            if (!ready) continue;
            Value sk = eval->skolems_->Intern(b.skolem_fn, std::move(args));
            Value target;
            if (ResolveTerm(b.target, &target)) {
              if (target != sk) return false;
            } else {
              Bind(b.target.var, sk, bound_trail);
            }
            builtin_done[bi] = true;
            done_trail->push_back(bi);
            changed = true;
            break;
          }
          case BuiltinKind::kFilterExpr:
          case BuiltinKind::kAssignExpr: {
            bool ready = true;
            for (const auto& [name, var] : b.expr_vars) {
              if (!bound[var]) {
                ready = false;
                break;
              }
            }
            if (!ready) continue;
            auto lookup = [&](const std::string& name) -> rdf::TermId {
              for (const auto& [n, var] : b.expr_vars) {
                if (n == name) {
                  Value v = vals[var];
                  // Skolem values never carry SPARQL-visible data; they
                  // surface as unbound (comparison against them errors).
                  return IsSkolemValue(v) ? rdf::TermDictionary::kUndef
                                          : TermFromValue(v);
                }
              }
              return rdf::TermDictionary::kUndef;
            };
            if (b.kind == BuiltinKind::kFilterExpr) {
              if (eval->expr_eval_.EvalEBV(*b.expr, lookup) !=
                  eval::EBV::kTrue) {
                return false;
              }
            } else {
              // BIND: evaluation errors bind the null constant (SPARQL's
              // "remains unbound").
              auto value = eval->expr_eval_.EvalTerm(*b.expr, lookup);
              Value v = ValueFromTerm(
                  value.value_or(rdf::TermDictionary::kUndef));
              Value target;
              if (ResolveTerm(b.target, &target)) {
                if (target != v) return false;
              } else {
                Bind(b.target.var, v, bound_trail);
              }
            }
            builtin_done[bi] = true;
            done_trail->push_back(bi);
            changed = true;
            break;
          }
        }
      }
    }
    return true;
  }

  bool CheckNegatives() {
    for (const Atom& atom : rule->negative) {
      neg_scratch.clear();
      for (const RuleTerm& t : atom.args) {
        Value v = 0;
        ResolveTerm(t, &v);  // validation guarantees boundness
        neg_scratch.push_back(v);
      }
      if (const Relation* r = edb->Find(atom.predicate)) {
        if (r->Contains(neg_scratch)) return false;
      }
      if (const Relation* r = idb->Find(atom.predicate)) {
        if (r->Contains(neg_scratch)) return false;
      }
    }
    return true;
  }

  /// Returns false on fatal error (status set).
  bool EmitHead() {
    head_scratch.clear();
    for (const RuleTerm& t : rule->head.args) {
      Value v = 0;
      ResolveTerm(t, &v);
      head_scratch.push_back(v);
    }
    Relation& rel =
        (emit_db != nullptr ? emit_db : idb)
            ->relation(rule->head.predicate,
                       static_cast<uint32_t>(rule->head.args.size()));
    if (rel.Insert(head_scratch, insert_round)) {
      ++inserted;
      ctx->AddTuples(1);
    }
    status = ctx->CheckBudget();
    // DRed re-derivation asks for one witness of the pre-bound head
    // tuple; it exists now, so abort the join early. The false return
    // unwinds the search with an OK status.
    return status.ok() && head_binding == nullptr;
  }

  bool TryRow(const Relation* rel, uint32_t row_id, size_t depth) {
    // RowRef is a view into the relation's arena; it is consumed fully
    // before JoinStep below can insert (and potentially reallocate).
    RowRef row = rel->row(row_id);
    const Atom& atom = rule->positive[order[depth]];
    size_t trail_start = trail.size();
    bool ok = true;
    for (size_t i = 0; i < atom.args.size(); ++i) {
      const RuleTerm& t = atom.args[i];
      if (!t.is_var) {
        if (row[i] != t.constant) {
          ok = false;
          break;
        }
      } else if (bound[t.var]) {
        if (row[i] != vals[t.var]) {
          ok = false;
          break;
        }
      } else {
        Bind(t.var, row[i], &trail);
      }
    }
    if (ok && !JoinStep(depth + 1)) {
      Unbind(&trail, trail_start);
      return false;
    }
    Unbind(&trail, trail_start);
    return true;
  }

  /// Returns false on fatal error.
  bool JoinStep(size_t depth) {
    status = ctx->CheckBudget();
    if (!status.ok()) return false;

    size_t btrail_start = trail.size();
    std::vector<uint32_t> done_trail;
    bool accepted = RunBuiltins(&trail, &done_trail);
    bool result = true;
    if (accepted) {
      if (depth == order.size()) {
        if (CheckNegatives()) result = EmitHead();
      } else {
        result = MatchAtom(depth);
      }
    }
    for (uint32_t bi : done_trail) builtin_done[bi] = false;
    Unbind(&trail, btrail_start);
    return result;
  }

  bool MatchAtom(size_t depth) {
    const Atom& atom = rule->positive[order[depth]];
    bool is_delta = (order[depth] == delta_atom);

    // Bound columns for index probing (per-depth scratch buffers, sized in
    // Run(), keep the inner loop allocation-free).
    std::vector<uint32_t>& cols = scratch_cols[depth];
    std::vector<Value>& key = scratch_keys[depth];
    cols.clear();
    key.clear();
    for (size_t i = 0; i < atom.args.size(); ++i) {
      Value v = 0;
      if (ResolveTerm(atom.args[i], &v)) {
        cols.push_back(static_cast<uint32_t>(i));
        key.push_back(v);
      }
    }

    if (is_delta) {
      // Id-based fetch, not pointer-stepped: a recursive rule may insert
      // into the very relation it is scanning, growing the arena.
      Relation* rel =
          (delta_source != nullptr ? delta_source : idb)
              ->FindMutable(atom.predicate);
      if (rel == nullptr) return true;
      auto [lo, hi] = rel->RoundRange(delta_round);
      for (uint32_t id = lo; id < hi; ++id) {
        if (!TryRow(rel, id, depth)) return false;
      }
      return true;
    }

    Relation* sources[3] = {edb->FindMutable(atom.predicate),
                            idb->FindMutable(atom.predicate),
                            aux != nullptr ? aux->FindMutable(atom.predicate)
                                           : nullptr};
    for (Relation* rel : sources) {
      if (rel == nullptr || rel->size() == 0) continue;
      if (!cols.empty()) {
        // MatchSpan is epoch-stable: recursive rules may insert into this
        // relation (and its index buckets) while we iterate, and the span
        // keeps addressing the probe-time prefix without a defensive
        // copy.
        MatchSpan span = rel->Probe(cols, key);
        for (uint32_t k = 0; k < span.size(); ++k) {
          if (!TryRow(rel, span[k], depth)) return false;
        }
      } else {
        size_t n = rel->size();  // snapshot; new rows belong to next round
        for (uint32_t id = 0; id < n; ++id) {
          if (!TryRow(rel, id, depth)) return false;
        }
      }
    }
    return true;
  }

  Status Run() {
    vals.assign(rule->var_names.size(), 0);
    bound.assign(rule->var_names.size(), false);
    builtin_done.assign(rule->builtins.size(), false);
    trail.clear();
    status = Status::OK();
    if (head_binding != nullptr) {
      // DRed re-derivation: constrain the whole join to one head tuple by
      // pre-binding the head args. A constant mismatch or a conflicting
      // repeated variable means this rule cannot derive the tuple at all.
      const auto& hargs = rule->head.args;
      for (size_t i = 0; i < hargs.size(); ++i) {
        const RuleTerm& t = hargs[i];
        if (!t.is_var) {
          if (t.constant != head_binding[i]) return status;
        } else if (bound[t.var]) {
          if (vals[t.var] != head_binding[i]) return status;
        } else {
          vals[t.var] = head_binding[i];
          bound[t.var] = true;
        }
      }
    }
    ComputeOrder();
    scratch_cols.assign(order.size(), {});
    scratch_keys.assign(order.size(), {});
    JoinStep(0);
    return status;
  }
};

/// One stratum and what the dispatch decides on.
struct Evaluator::Stratum {
  Stratum(const Program& program, const Stratification& strat, uint32_t s)
      : index(s),
        rules(strat.strata_rules[s]),
        recursive(strat.stratum_recursive[s]) {
    for (uint32_t ri : rules) heads.insert(program.rules[ri].head.predicate);
  }

  uint32_t index;
  const std::vector<uint32_t>& rules;
  bool recursive;
  /// Head predicates defined here (delta candidates; also the unit of
  /// incremental change tracking).
  std::unordered_set<PredicateId> heads;
  /// Set when the TC kernel can close the stratum.
  std::optional<TcShape> tc;
};

/// Per-Evaluate-call state: the four stratum strategies (Evaluate hands
/// each stratum to the first that takes it) and the steps they share.
struct Evaluator::Pass {
  Pass(Evaluator* eval, const Program& program, const Stratification& strat,
       Database* edb, Database* idb, ExecContext* ctx)
      : eval(eval),
        in(eval->memo_),
        program(program),
        edb(edb),
        idb(idb),
        ctx(ctx),
        stats(eval->stats_) {
    if (!memo) return;
    fp = StratumFingerprints(program, strat, *eval->skolems_, in.dataset_fp,
                             in.versions);
    if (incremental) {
      fp_old = StratumFingerprints(program, strat, *eval->skolems_,
                                   in.dataset_fp, in.prev_versions);
    }
  }

  Evaluator* eval;
  const MemoInput& in;
  const Program& program;
  Database* edb;
  Database* idb;
  ExecContext* ctx;
  EvalStats& stats;
  /// Cross-query stratum memoization (semi-naive only: naive mode is the
  /// reference semantics the differential tests compare against, and its
  /// arena insertion order differs), keyed by `fp`.
  const bool memo =
      in.memo != nullptr && eval->mode_ == FixpointMode::kSemiNaive;
  /// Incremental maintenance: `fp_old` are the fingerprints under the
  /// versions before the latest update, which its pre-update snapshots
  /// were stored under. IDB input changes propagate through the composed
  /// fingerprints, so fp == fp_old means "all transitive inputs
  /// unchanged".
  const bool incremental =
      memo && in.delta != nullptr && in.prev_versions != nullptr;
  std::vector<uint64_t> fp;
  std::vector<uint64_t> fp_old;
  /// Downstream change propagation: after each stratum whose fingerprint
  /// changed, its head relations are diffed against the pre-update
  /// snapshot; the diffs become the IDB input deltas of later strata. A
  /// head whose diff can't be computed lands in `idb_unknown`, which
  /// poisons downstream eligibility, never correctness.
  std::unordered_map<PredicateId, EdbDelta::PredicateDelta> idb_delta;
  std::unordered_set<PredicateId> idb_unknown;
  uint32_t round = 1;

  // (1) Memo restore: replay the stratum's snapshot (arena order
  // preserved; program facts already seeded dedup away) instead of
  // evaluating it.
  Result<bool> MemoRestore(const Stratum& st) {
    if (!memo) return false;
    std::shared_ptr<const StratumSnapshot> snap = in.memo->Lookup(fp[st.index]);
    if (snap == nullptr ||
        !snap->Resolves(program.predicates, /*allow_nullary=*/true)) {
      ++stats.stratum_misses;
      return false;
    }
    ++stats.stratum_hits;
    SPARQLOG_RETURN_NOT_OK(RestoreSnapshot(*snap));
    return true;
  }

  // (2) Incremental: a memo miss whose pre-update snapshot survives is
  // restored, then brought to the new fixpoint from the input deltas
  // alone. Deletions run DRed first; then one delta pass pinned to the
  // inserted input rows (the remaining atoms see the full new state, EDB
  // deltas included, so multi-atom all-new derivations are covered).
  // Everything derived here sits at one round, which the semi-naive
  // rounds of a recursive stratum scan as their first delta. Unknown
  // (undiffable) inputs, arity mismatches, and negation over a changed
  // predicate all disqualify — DRed handles stratified negation only
  // when the negated side is stable.
  Result<bool> Incremental(const Stratum& st) {
    if (!incremental || fp[st.index] == fp_old[st.index]) return false;
    std::shared_ptr<const StratumSnapshot> old_snap = PreviousSnapshot(st);
    if (old_snap == nullptr) return false;

    // Scratch databases holding the input deltas at round 0. `aux_del`
    // additionally accumulates over-deleted head tuples (rounds >= 1).
    Database aux_ins;
    Database aux_del;
    std::unordered_set<PredicateId> seen_inputs;
    bool eligible = true;
    uint64_t del_rows = 0;
    for (uint32_t ri : st.rules) {
      const Rule& rule = program.rules[ri];
      for (const Atom& a : rule.positive) {
        PredicateId p = a.predicate;
        if (st.heads.count(p) != 0 || !seen_inputs.insert(p).second) continue;
        const EdbDelta::PredicateDelta* d = InputDelta(p, &eligible);
        if (!eligible) return false;
        if (d == nullptr) continue;
        if (!d->ins.empty()) {
          aux_ins.relation(p, d->arity)
              .InsertStaged(d->ins.data(), d->ins.size() / d->arity, 0);
        }
        if (!d->del.empty()) {
          aux_del.relation(p, d->arity)
              .InsertStaged(d->del.data(), d->del.size() / d->arity, 0);
        }
        del_rows += d->del.size() / d->arity;
      }
      for (const Atom& a : rule.negative) {
        if (InputDelta(a.predicate, &eligible) != nullptr || !eligible) {
          return false;
        }
      }
    }
    if (del_rows > 0 && (del_rows > in.max_overdelete || st.tc)) {
      // TC-shaped strata lean on the kernel; unwinding a closure via DRed
      // over-deletes nearly everything, so recompute instead.
      // (Insert-only TC deltas do run incrementally — through the
      // semi-naive rounds, skipping the kernel.) An input delta already
      // past the over-delete bound is the same fallback the in-cascade
      // check takes, just caught before any work.
      if (del_rows > in.max_overdelete) ++stats.incremental_fallbacks;
      return false;
    }

    SPARQLOG_RETURN_NOT_OK(RestoreSnapshot(*old_snap));
    const uint32_t derive_round = round;
    uint64_t fresh = 0;
    if (del_rows > 0) {
      SPARQLOG_ASSIGN_OR_RETURN(bool kept,
                                Dred(st, &aux_del, derive_round, &fresh));
      if (!kept) return false;
    }
    SPARQLOG_ASSIGN_OR_RETURN(uint64_t inserted,
                              DeltaPass(st, &aux_ins, 0, derive_round));
    ++stats.strata_incremental;
    SPARQLOG_RETURN_NOT_OK(Rounds(st, fresh + inserted));
    return true;
  }

  // (3) TC kernel: a stratum whose only recursive dependency is one
  // linear closure rule (the shape every recursive property path
  // translates to). The other rules (and program facts) seed the head
  // relation in one pass; the kernel then completes the closure in one
  // shot: grouped BFS over the frozen step relation, pivoting on newly
  // reached endpoints only, with no per-round rescans or merges.
  Status TcKernel(const Stratum& st) {
    SPARQLOG_ASSIGN_OR_RETURN(uint64_t seeds, RulePass(st));
    EndRound(seeds);
    SPARQLOG_ASSIGN_OR_RETURN(
        TcKernelStats k, RunTcKernel(*st.tc, program, edb, idb, round, ctx));
    ++stats.tc_kernels_hit;
    ++(k.dense ? stats.tc_dense_frontiers : stats.tc_sparse_frontiers);
    if (k.inserted > 0) EndRound(k.inserted);
    return Status::OK();
  }

  // (4) Generic fixpoint: one pass of every rule over the current state,
  // then, for a recursive stratum, rounds until nothing new is derived.
  Status GenericFixpoint(const Stratum& st) {
    SPARQLOG_ASSIGN_OR_RETURN(uint64_t fresh, RulePass(st));
    return Rounds(st, fresh);
  }

  /// Restores `snap` at the current round, which it closes.
  Status RestoreSnapshot(const StratumSnapshot& snap) {
    uint64_t restored = snap.Restore(program.predicates, round, idb);
    ctx->AddTuples(restored);
    stats.tuples_restored += restored;
    ++round;
    return ctx->CheckBudget();
  }

  /// The pre-update snapshot of `st` if it can be diffed against: still
  /// memoized, resolvable, and with no nullary head.
  std::shared_ptr<const StratumSnapshot> PreviousSnapshot(
      const Stratum& st) const {
    std::shared_ptr<const StratumSnapshot> snap =
        in.memo->Lookup(fp_old[st.index]);
    if (snap == nullptr ||
        !snap->Resolves(program.predicates, /*allow_nullary=*/false)) {
      return nullptr;
    }
    for (PredicateId p : st.heads) {
      if (program.predicates.Arity(p) == 0) return nullptr;
    }
    return snap;
  }

  /// The delta of input predicate `p`: the diff an earlier stratum
  /// recorded, else the update's EDB delta, else null. Clears `*eligible`
  /// for an undiffable input or an arity mismatch.
  const EdbDelta::PredicateDelta* InputDelta(PredicateId p,
                                             bool* eligible) const {
    if (idb_unknown.count(p) != 0) {
      *eligible = false;
      return nullptr;
    }
    if (auto it = idb_delta.find(p); it != idb_delta.end()) {
      return &it->second;
    }
    auto it = in.delta->preds.find(program.predicates.Name(p));
    if (it == in.delta->preds.end()) return nullptr;
    if (it->second.arity != program.predicates.Arity(p)) {
      *eligible = false;
      return nullptr;
    }
    return &it->second;
  }

  /// DRed over a restored stratum: over-delete to a fixpoint against
  /// current ∪ deleted (a sound over-approximation of the pre-update
  /// state), physically remove, then re-derive survivors head by head at
  /// `derive_round`, counting them into `*fresh`. Returns false when the
  /// over-delete cascade outgrew `max_overdelete`: the restored heads are
  /// discarded (program facts re-seeded) for a full recompute.
  Result<bool> Dred(const Stratum& st, Database* aux_del,
                    uint32_t derive_round, uint64_t* fresh) {
    ++stats.strata_dred;
    // Every (rule, atom) whose predicate has deleted rows at round `dr`
    // re-fires with the remaining atoms matched against current ∪
    // deleted, emitting heads into `aux_del` at dr+1.
    uint64_t overdeleted = 0;
    for (uint32_t dr = 0;; ++dr) {
      SPARQLOG_ASSIGN_OR_RETURN(uint64_t n,
                                DeltaPass(st, aux_del, dr, dr + 1, aux_del));
      overdeleted += n;
      if (overdeleted > in.max_overdelete) {
        ++stats.incremental_fallbacks;
        for (PredicateId p : st.heads) {
          idb->Reset(p, program.predicates.Arity(p));
        }
        ctx->AddTuples(SeedFacts(program, &st.heads, idb));
        return false;
      }
      if (n == 0) break;
    }
    stats.tuples_overdeleted += overdeleted;

    // Physically remove the over-deleted head tuples (absent ones — the
    // over-approximation surplus — are skipped by RemoveRows anyway;
    // program facts are axioms, not derivations, and survive),
    // remembering each removed tuple for the re-derivation pass.
    Database facts;
    SeedFacts(program, &st.heads, &facts);
    struct Doomed {
      PredicateId pred;
      std::vector<Value> row;
    };
    std::vector<Doomed> removed_tuples;
    for (PredicateId p : st.heads) {
      const Relation* od = aux_del->Find(p);
      Relation* target = idb->FindMutable(p);
      if (od == nullptr || od->size() == 0 || target == nullptr) continue;
      const Relation* head_facts = facts.Find(p);
      const uint32_t arity = od->arity();
      std::vector<Value> doomed;
      for (RowRef row : od->rows()) {
        if (!target->Contains(row.data())) continue;
        if (head_facts != nullptr && head_facts->Contains(row.data())) {
          continue;
        }
        doomed.insert(doomed.end(), row.begin(), row.end());
        removed_tuples.push_back({p, row.ToVector()});
      }
      if (!doomed.empty()) {
        target->RemoveRows(doomed.data(), doomed.size() / arity);
      }
    }

    // Re-derivation: a removed tuple may have an alternate support among
    // the survivors (plus unchanged inputs). Each success puts the tuple
    // back, which can in turn support others — iterate to fixpoint over
    // the shrinking list.
    bool rederived = true;
    while (rederived) {
      rederived = false;
      for (size_t i = 0; i < removed_tuples.size();) {
        Doomed& dt = removed_tuples[i];
        bool found = false;
        for (uint32_t ri : st.rules) {
          const Rule& rule = program.rules[ri];
          if (rule.head.predicate != dt.pred) continue;
          RuleRun run(eval, &rule, edb, idb, ctx, derive_round);
          run.head_binding = dt.row.data();
          SPARQLOG_RETURN_NOT_OK(run.Run());
          if (run.inserted > 0) {
            found = true;
            *fresh += run.inserted;
            ++stats.tuples_rederived;
            break;
          }
        }
        if (found) {
          rederived = true;
          removed_tuples[i] = std::move(removed_tuples.back());
          removed_tuples.pop_back();
        } else {
          ++i;
        }
      }
    }
    return true;
  }

  /// Runs every rule of the stratum once over the full relations (except
  /// the closure rule the TC kernel owns), inserting at the current
  /// round. Rules see each other's same-pass insertions, which the
  /// single-pass completeness of non-recursive strata relies on.
  Result<uint64_t> RulePass(const Stratum& st) {
    uint64_t inserted = 0;
    for (uint32_t ri : st.rules) {
      if (st.tc && ri == st.tc->rule_index) continue;
      RuleRun run(eval, &program.rules[ri], edb, idb, ctx, round);
      SPARQLOG_RETURN_NOT_OK(run.Run());
      inserted += run.inserted;
    }
    return inserted;
  }

  /// The delta pass shared by the semi-naive rounds, the incremental
  /// insertion pass and the DRed over-delete: each (rule, positive atom)
  /// pair of the stratum, in rule then atom order, whose predicate has
  /// rows at `delta_round` in `delta` re-fires with that atom's scan
  /// pinned to those rows, inserting heads at `insert_round`. With
  /// `overdelete`, that database also joins as a third source and
  /// receives the heads instead of the IDB. Returns the number of tuples
  /// inserted.
  Result<uint64_t> DeltaPass(const Stratum& st, Database* delta,
                             uint32_t delta_round, uint32_t insert_round,
                             Database* overdelete = nullptr) {
    uint64_t inserted = 0;
    for (uint32_t ri : st.rules) {
      const Rule& rule = program.rules[ri];
      for (uint32_t ai = 0; ai < rule.positive.size(); ++ai) {
        const Relation* rel = delta->Find(rule.positive[ai].predicate);
        if (rel == nullptr) continue;
        auto [lo, hi] = rel->RoundRange(delta_round);
        if (lo >= hi) continue;
        RuleRun run(eval, &rule, edb, idb, ctx, insert_round, ai,
                    delta_round);
        run.delta_source = delta;
        run.aux = overdelete;
        run.emit_db = overdelete;
        SPARQLOG_RETURN_NOT_OK(run.Run());
        inserted += run.inserted;
      }
    }
    return inserted;
  }

  /// Counts the `fresh` tuples derived at the current round and closes it.
  void EndRound(uint64_t fresh) {
    stats.tuples_derived += fresh;
    ++stats.rounds;
    ++round;
  }

  /// Closes the current round with its `fresh` tuples. A recursive
  /// stratum then runs rounds until one derives nothing: delta passes
  /// pinned to the previous round's rows, or in naive mode (the
  /// reference) every rule again over the full relations.
  Status Rounds(const Stratum& st, uint64_t fresh) {
    for (;;) {
      EndRound(fresh);
      if (!st.recursive || fresh == 0) return Status::OK();
      if (eval->mode_ == FixpointMode::kNaive) {
        SPARQLOG_ASSIGN_OR_RETURN(fresh, RulePass(st));
      } else {
        SPARQLOG_ASSIGN_OR_RETURN(fresh,
                                  DeltaPass(st, idb, round - 1, round));
      }
    }
  }

  /// Snapshots the completed stratum for reuse by later queries. A head
  /// relation at this point holds exactly the stratum's derivations plus
  /// any program facts seeded into it (head predicates are defined in
  /// one stratum only), which is precisely what the fingerprint covers.
  void Snapshot(const Stratum& st) {
    if (!memo) return;
    StratumSnapshot snap;
    std::vector<PredicateId> heads(st.heads.begin(), st.heads.end());
    std::sort(heads.begin(), heads.end());
    for (PredicateId p : heads) {
      const Relation* r = idb->Find(p);
      if (r == nullptr) continue;
      snap.Capture(program.predicates.Name(p), *r);
    }
    in.memo->Insert(fp[st.index], std::move(snap));
  }

  /// Records the stratum's head-relation diff (current vs the pre-update
  /// snapshot) into `idb_delta` once the heads are final. No-op when the
  /// fingerprint didn't change (inputs, and hence heads, are identical).
  void RecordChange(const Stratum& st) {
    if (!incremental || fp[st.index] == fp_old[st.index]) return;
    std::shared_ptr<const StratumSnapshot> old_snap = PreviousSnapshot(st);
    if (old_snap == nullptr) {
      idb_unknown.insert(st.heads.begin(), st.heads.end());
      return;
    }
    for (PredicateId p : st.heads) {
      const uint32_t arity = program.predicates.Arity(p);
      const std::string& name = program.predicates.Name(p);
      const StratumSnapshot::RelationSnapshot* old_rel = nullptr;
      for (const auto& rel : old_snap->relations) {
        if (rel.predicate == name) {
          old_rel = &rel;
          break;
        }
      }
      const Relation* cur = idb->Find(p);
      EdbDelta::PredicateDelta d;
      d.arity = arity;
      TupleStore old_store(arity);
      if (old_rel != nullptr && old_rel->num_rows > 0) {
        old_store.BulkLoad(old_rel->rows.data(), old_rel->num_rows);
      }
      if (cur != nullptr) {
        for (RowRef row : cur->rows()) {
          if (!old_store.Contains(row.data())) {
            d.ins.insert(d.ins.end(), row.begin(), row.end());
          }
        }
      }
      if (old_rel != nullptr) {
        for (uint32_t i = 0; i < old_rel->num_rows; ++i) {
          const Value* row =
              old_rel->rows.data() + static_cast<size_t>(i) * arity;
          if (cur == nullptr || !cur->Contains(row)) {
            d.del.insert(d.del.end(), row, row + arity);
          }
        }
      }
      if (!d.ins.empty() || !d.del.empty()) idb_delta[p] = std::move(d);
    }
  }
};

Status Evaluator::Evaluate(const Program& program, Database* edb,
                           Database* idb, ExecContext* ctx) {
  stats_ = EvalStats();
  SPARQLOG_RETURN_NOT_OK(program.Validate());
  SPARQLOG_ASSIGN_OR_RETURN(Stratification strat, Stratify(program));
  Pass pass(this, program, strat, edb, idb, ctx);
  ctx->AddTuples(SeedFacts(program, nullptr, idb));
  SPARQLOG_RETURN_NOT_OK(ctx->CheckBudget());

  for (uint32_t s = 0; s < strat.num_strata; ++s) {
    if (strat.strata_rules[s].empty()) continue;
    SPARQLOG_FAILPOINT(g_fp_stratum_begin);
    Stratum st(program, strat, s);
    SPARQLOG_ASSIGN_OR_RETURN(bool restored, pass.MemoRestore(st));
    if (!restored) {
      if (tc_kernel_ && mode_ == FixpointMode::kSemiNaive && st.recursive) {
        st.tc = DetectTcShape(program, st.rules, st.heads);
      }
      SPARQLOG_ASSIGN_OR_RETURN(bool maintained, pass.Incremental(st));
      if (!maintained) {
        SPARQLOG_RETURN_NOT_OK(st.tc ? pass.TcKernel(st)
                                     : pass.GenericFixpoint(st));
      }
      pass.Snapshot(st);
    }
    pass.RecordChange(st);
  }
  return Status::OK();
}

}  // namespace sparqlog::datalog
