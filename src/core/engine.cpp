#include "core/engine.h"

#include <time.h>

#include <mutex>

#include "datalog/planner.h"
#include "datalog/printer.h"
#include "sparql/shape.h"
#include "util/failpoint.h"

namespace sparqlog::core {

namespace {

// Named fault-injection sites along the load / update publish protocol
// (util/failpoint.h). Disarmed cost: one relaxed load each.
SPARQLOG_FAILPOINT_DEFINE(g_fp_load_publish, "engine.load.publish");
SPARQLOG_FAILPOINT_DEFINE(g_fp_update_net, "engine.update.net");
SPARQLOG_FAILPOINT_DEFINE(g_fp_update_rebuild, "engine.update.rebuild");
SPARQLOG_FAILPOINT_DEFINE(g_fp_update_translate, "engine.update.translate");
SPARQLOG_FAILPOINT_DEFINE(g_fp_update_stage, "engine.update.stage");
SPARQLOG_FAILPOINT_DEFINE(g_fp_update_publish, "engine.update.publish");

/// CPU seconds consumed by the calling thread, which runs the whole
/// query; a server compares it against wall time per query.
double ThreadCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

}  // namespace

Engine::Engine(const rdf::Dataset* dataset, rdf::TermDictionary* dict,
               Options options)
    : dataset_(dataset),
      dict_(dict),
      options_(options),
      program_cache_(options.caching.program_cache_capacity),
      stratum_memo_(options.caching.stratum_memo_bytes) {}

Status Engine::Load() {
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  const uint64_t generation = dataset_->Generation();
  if (loaded_.load(std::memory_order_relaxed) &&
      generation == loaded_generation_) {
    return Status::OK();  // idempotent
  }
  // Cold EDB build into a scratch database: bulk-load by default —
  // per-relation batches deduped in one pass against a one-shot-sized
  // table — instead of tuple-at-a-time inserts. Building off to the side
  // makes a failed (re)Load harmless: the previous snapshot, if any,
  // keeps serving and nothing below this point has been touched.
  datalog::Database fresh;
  SPARQLOG_RETURN_NOT_OK(
      DataTranslator::Translate(*dataset_, dict_, &fresh, options_.edb_build));
  SPARQLOG_FAILPOINT(g_fp_load_publish);
  if (loaded_.load(std::memory_order_relaxed)) {
    // Re-Load over a mutated dataset: the materialized EDB and every
    // memoized stratum result derived from it are stale. In-flight
    // queries finished before we got the exclusive lock; they saw the
    // previous snapshot consistently.
    stratum_memo_.Clear();
    counters_.invalidations.fetch_add(1, std::memory_order_relaxed);
  }
  edb_ = std::move(fresh);
  loaded_generation_ = generation;
  // Re-anchor the incremental-update state: the stratum fingerprints of
  // this build are keyed by the fresh generation with all predicate
  // versions at zero, and any pending delta refers to a discarded EDB.
  edb_base_fp_ = generation;
  edb_versions_.clear();
  edb_prev_versions_.clear();
  pending_delta_.reset();
  occ_built_ = false;
  term_occ_.clear();
  so_occ_.clear();
  delta_since_stats_ = 0;
  // Planner statistics ride every (re)build, stamped with the dataset
  // generation so cached plans can tell they went stale.
  if (options_.planner.join_planner) {
    datalog::PredicateTable scratch;
    EdbPredicates preds = InternEdbPredicates(&scratch);
    edb_stats_ = datalog::EdbStats();
    edb_stats_.Collect(edb_, preds.triple);
    edb_stats_.set_generation(loaded_generation_);
  }
  loaded_.store(true, std::memory_order_release);
  return Status::OK();
}

void Engine::BuildOccurrenceCounters() {
  term_occ_.assign(dict_->size(), 0);
  so_occ_.clear();
  auto count_graph = [&](const rdf::Graph& graph, bool is_default) {
    for (const rdf::Triple& t : graph.triples()) {
      ++term_occ_[t.s];
      ++term_occ_[t.p];
      ++term_occ_[t.o];
      if (is_default) {
        ++so_occ_[t.s];
        ++so_occ_[t.o];
      }
    }
  };
  count_graph(dataset_->default_graph(), /*is_default=*/true);
  for (const auto& [name, graph] : dataset_->named_graphs()) {
    ++term_occ_[name];
    count_graph(graph, /*is_default=*/false);
  }
}

Status Engine::ApplyUpdate(const std::vector<rdf::Triple>& inserts,
                           const std::vector<rdf::Triple>& deletes,
                           UpdateStats* stats) {
  using datalog::Value;
  using datalog::ValueFromTerm;
  const auto wall_start = std::chrono::steady_clock::now();
  UpdateStats us;
  auto finish = [&](Status st) {
    us.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    if (stats != nullptr) *stats = us;
    if (st.ok()) {
      counters_.updates.fetch_add(1, std::memory_order_relaxed);
      if (us.noop) {
        counters_.update_noops.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return st;
  };

  if (mutable_dataset_ == nullptr) {
    return finish(Status::FailedPrecondition(
        "Engine::ApplyUpdate: engine was constructed over a const dataset"));
  }
  // Writer side of the load lock: in-flight queries drain first, later
  // ones see the updated snapshot — publishing is atomic either way.
  std::unique_lock<std::shared_mutex> lock(state_mu_);
  if (!loaded_.load(std::memory_order_relaxed)) {
    return finish(Status::FailedPrecondition(
        "Engine::ApplyUpdate: Load() must complete before updates"));
  }
  if (Status st = g_fp_update_net.Check(); !st.ok()) return finish(st);

  // Net semantics (G \ deletes) ∪ inserts against the current default
  // graph: a triple in both lists stays present, deleting an absent
  // triple or re-inserting a present one drops out, duplicates collapse.
  rdf::Graph& graph = mutable_dataset_->default_graph();
  std::unordered_set<rdf::Triple, rdf::TripleHash> ins_set(inserts.begin(),
                                                           inserts.end());
  std::vector<rdf::Triple> net_del;
  std::unordered_set<rdf::Triple, rdf::TripleHash> seen;
  for (const rdf::Triple& t : deletes) {
    if (ins_set.count(t) != 0 || !graph.Contains(t)) continue;
    if (seen.insert(t).second) net_del.push_back(t);
  }
  seen.clear();
  std::vector<rdf::Triple> net_ins;
  for (const rdf::Triple& t : inserts) {
    if (graph.Contains(t)) continue;
    if (seen.insert(t).second) net_ins.push_back(t);
  }
  us.inserted = net_ins.size();
  us.deleted = net_del.size();
  if (net_ins.empty() && net_del.empty()) {
    // True no-op: no generation bump, no EDB work, no invalidation of
    // any cache — an idempotent re-send costs nothing but the net check.
    us.noop = true;
    return finish(Status::OK());
  }

  // A direct dataset mutation since the loaded snapshot means the graph
  // no longer matches the EDB we would delta against; so does disabling
  // the incremental path. Both publish via the full rebuild.
  const bool incremental = options_.update.incremental &&
                           dataset_->Generation() == loaded_generation_;
  datalog::PredicateTable scratch;
  EdbPredicates preds = InternEdbPredicates(&scratch);

  if (!incremental) {
    // The translator reads the dataset, so the graph must mutate first;
    // a failed rebuild un-applies the delta, putting the graph's content
    // back in sync with the still-served EDB. (The generation counter
    // keeps moving — version counters never run backwards — which only
    // means the *next* successful update publishes via this full-rebuild
    // path again rather than incrementally.)
    graph.ApplyDelta(net_ins, net_del);
    datalog::Database fresh;
    Status st = g_fp_update_rebuild.Check();
    if (st.ok()) {
      st = DataTranslator::Translate(*dataset_, dict_, &fresh,
                                     options_.edb_build);
    }
    if (!st.ok()) {
      graph.ApplyDelta(net_del, net_ins);
      return finish(st);
    }
    edb_ = std::move(fresh);
    stratum_memo_.Clear();
    counters_.invalidations.fetch_add(1, std::memory_order_relaxed);
    loaded_generation_ = dataset_->Generation();
    edb_base_fp_ = loaded_generation_;
    edb_versions_.clear();
    edb_prev_versions_.clear();
    pending_delta_.reset();
    occ_built_ = false;
    term_occ_.clear();
    so_occ_.clear();
    delta_since_stats_ = 0;
    if (options_.planner.join_planner) {
      edb_stats_ = datalog::EdbStats();
      edb_stats_.Collect(edb_, preds.triple);
      edb_stats_.set_generation(loaded_generation_);
    }
    return finish(Status::OK());
  }

  // ---- Incremental publish -------------------------------------------
  us.incremental = true;
  if (!occ_built_) {
    BuildOccurrenceCounters();
    occ_built_ = true;
  }
  // The caller may have interned new terms while parsing the update.
  if (term_occ_.size() < dict_->size()) term_occ_.resize(dict_->size(), 0);

  // Capture pre-update occurrence counts of every affected term, then
  // apply the count deltas; 0 ↔ >0 transitions are exactly the term/kind
  // and subjectOrObject rows that appear or disappear.
  std::unordered_map<rdf::TermId, uint64_t> old_term;
  std::unordered_map<rdf::TermId, uint64_t> old_so;
  auto capture = [&](const rdf::Triple& t) {
    old_term.emplace(t.s, term_occ_[t.s]);
    old_term.emplace(t.p, term_occ_[t.p]);
    old_term.emplace(t.o, term_occ_[t.o]);
    old_so.emplace(t.s, so_occ_[t.s]);
    old_so.emplace(t.o, so_occ_[t.o]);
  };
  for (const rdf::Triple& t : net_del) capture(t);
  for (const rdf::Triple& t : net_ins) capture(t);
  for (const rdf::Triple& t : net_del) {
    --term_occ_[t.s];
    --term_occ_[t.p];
    --term_occ_[t.o];
    --so_occ_[t.s];
    --so_occ_[t.o];
  }
  for (const rdf::Triple& t : net_ins) {
    ++term_occ_[t.s];
    ++term_occ_[t.p];
    ++term_occ_[t.o];
    ++so_occ_[t.s];
    ++so_occ_[t.o];
  }

  // Translate the net triple delta into per-predicate EDB deltas, keyed
  // by predicate name (the currency of stratum fingerprints). Insertion
  // rows walk net_ins in the translator's (s, p, o) first-occurrence
  // order, so an insert-only update appends to each relation in exactly
  // the order a fresh Translate would have — arena order, and hence
  // solution order, stays bit-identical to a full reload.
  auto delta = std::make_shared<datalog::EdbDelta>();
  const Value graph_value = ValueFromTerm(DefaultGraphTerm(dict_));
  auto pred_rows = [&](const char* name,
                       uint32_t arity) -> datalog::EdbDelta::PredicateDelta& {
    auto [it, unused] = delta->preds.try_emplace(name);
    it->second.arity = arity;
    return it->second;
  };
  auto kind_name = [&](rdf::TermId id) -> const char* {
    switch (dict_->get(id).kind) {
      case rdf::TermKind::kIri:
        return "iri";
      case rdf::TermKind::kLiteral:
        return "literal";
      case rdf::TermKind::kBlank:
        return "bnode";
      case rdf::TermKind::kUndef:
        return nullptr;  // the null marker is not an RDF term
    }
    return nullptr;
  };
  std::unordered_set<rdf::TermId> term_done;
  auto emit_term = [&](rdf::TermId id, bool deleting) {
    if (!term_done.insert(id).second) return;
    const uint64_t before = old_term[id];
    const uint64_t after = term_occ_[id];
    const bool gone = before > 0 && after == 0;
    const bool fresh = before == 0 && after > 0;
    if (deleting ? !gone : !fresh) return;
    const char* kind = kind_name(id);
    if (kind == nullptr) return;
    const Value v = ValueFromTerm(id);
    // Kind row before term row, mirroring the translator's walk.
    auto& krows = pred_rows(kind, 1);
    auto& trows = pred_rows("term", 1);
    (deleting ? krows.del : krows.ins).push_back(v);
    (deleting ? trows.del : trows.ins).push_back(v);
  };
  std::unordered_set<rdf::TermId> so_done;
  auto emit_so = [&](rdf::TermId id, bool deleting) {
    if (!so_done.insert(id).second) return;
    const uint64_t before = old_so[id];
    const uint64_t after = so_occ_[id];
    if (deleting ? !(before > 0 && after == 0) : !(before == 0 && after > 0)) {
      return;
    }
    auto& rows = pred_rows("subjectOrObject", 2);
    auto& out = deleting ? rows.del : rows.ins;
    out.push_back(ValueFromTerm(id));
    out.push_back(graph_value);
  };
  auto& triple_rows = pred_rows("triple", 4);
  for (const rdf::Triple& t : net_del) {
    triple_rows.del.insert(triple_rows.del.end(),
                           {ValueFromTerm(t.s), ValueFromTerm(t.p),
                            ValueFromTerm(t.o), graph_value});
    emit_term(t.s, /*deleting=*/true);
    emit_term(t.p, /*deleting=*/true);
    emit_term(t.o, /*deleting=*/true);
    emit_so(t.s, /*deleting=*/true);
    emit_so(t.o, /*deleting=*/true);
  }
  for (const rdf::Triple& t : net_ins) {
    triple_rows.ins.insert(triple_rows.ins.end(),
                           {ValueFromTerm(t.s), ValueFromTerm(t.p),
                            ValueFromTerm(t.o), graph_value});
    emit_term(t.s, /*deleting=*/false);
    emit_term(t.p, /*deleting=*/false);
    emit_term(t.o, /*deleting=*/false);
    emit_so(t.s, /*deleting=*/false);
    emit_so(t.o, /*deleting=*/false);
  }
  // Entries whose transitions all cancelled out must not bump a
  // predicate version (that would invalidate memo entries for nothing).
  for (auto it = delta->preds.begin(); it != delta->preds.end();) {
    if (it->second.ins.empty() && it->second.del.empty()) {
      it = delta->preds.erase(it);
    } else {
      ++it;
    }
  }

  // Apply the delta to the materialized EDB: removals first, then
  // insertions appended in walk order. Every relation mutation is
  // journaled so a failure anywhere before the commit point below rolls
  // the EDB (and the occurrence counters) back to a state bit-identical
  // to pre-update: RemoveRows captures an O(delta) undo of exactly what
  // it destroyed, and staged inserts are peeled by suffix truncation.
  // The dataset graph is untouched until the commit point, so rollback
  // never has to revert it.
  struct JournalEntry {
    datalog::Relation* rel = nullptr;
    uint32_t rows_after_remove = 0;  ///< truncation point undoing inserts
    datalog::Relation::RemovalUndo removal;
  };
  std::vector<JournalEntry> journal;
  journal.reserve(delta->preds.size());
  auto rollback = [&]() {
    for (auto it = journal.rbegin(); it != journal.rend(); ++it) {
      it->rel->TruncateTo(it->rows_after_remove);
      it->rel->RestoreRemoved(it->removal);
    }
    for (const auto& [id, count] : old_term) term_occ_[id] = count;
    for (const auto& [id, count] : old_so) so_occ_[id] = count;
  };
  auto pred_id = [&](const std::string& name) -> datalog::PredicateId {
    if (name == "triple") return preds.triple;
    if (name == "iri") return preds.iri;
    if (name == "literal") return preds.literal;
    if (name == "bnode") return preds.bnode;
    if (name == "term") return preds.term;
    return preds.subject_or_object;
  };
  if (Status st = g_fp_update_translate.Check(); !st.ok()) {
    rollback();  // only the occurrence counters have moved so far
    return finish(st);
  }
  for (const auto& [name, d] : delta->preds) {
    datalog::Relation& rel = edb_.relation(pred_id(name), d.arity);
    journal.emplace_back();
    JournalEntry& entry = journal.back();
    entry.rel = &rel;
    if (!d.del.empty()) rel.RemoveRows(d.del, &entry.removal);
    entry.rows_after_remove = static_cast<uint32_t>(rel.size());
    if (Status st = g_fp_update_stage.Check(); !st.ok()) {
      rollback();
      return finish(st);
    }
    if (!d.ins.empty()) {
      rel.InsertStaged(d.ins.data(), d.ins.size() / d.arity, 0);
    }
    if (Status st = g_fp_update_stage.Check(); !st.ok()) {
      rollback();
      return finish(st);
    }
  }
  if (Status st = g_fp_update_publish.Check(); !st.ok()) {
    // The whole EDB delta is staged but nothing is published: the
    // version counters, pending delta, graph and generation are all
    // still pre-update, so rollback restores full bit-identity.
    rollback();
    return finish(st);
  }

  // ---- Commit point ---------------------------------------------------
  // Everything below is infallible publication: mutate the graph to
  // match the EDB, then bump the per-predicate version counters —
  // invalidating exactly the strata reading a touched predicate;
  // `edb_base_fp_` stays fixed so untouched strata keep their memo
  // entries. The delta itself rides along for the evaluator's snapshot
  // re-derivation.
  graph.ApplyDelta(net_ins, net_del);
  edb_prev_versions_ = edb_versions_;
  for (const auto& [name, d] : delta->preds) ++edb_versions_[name];
  pending_delta_ = std::move(delta);
  loaded_generation_ = dataset_->Generation();

  if (options_.planner.join_planner) {
    delta_since_stats_ += net_ins.size() + net_del.size();
    const datalog::Relation* triples = edb_.Find(preds.triple);
    const uint64_t triple_count = triples == nullptr ? 0 : triples->size();
    if (double(delta_since_stats_) >
        options_.update.stats_refresh_fraction * double(triple_count)) {
      edb_stats_ = datalog::EdbStats();
      edb_stats_.Collect(edb_, preds.triple);
      delta_since_stats_ = 0;
    }
    // Re-stamp either way: cached plans check the stats generation, and
    // a stale stamp would force a replan of every cached shape per
    // update.
    edb_stats_.set_generation(loaded_generation_);
  }
  return finish(Status::OK());
}

void Engine::PlanForEdb(datalog::Program* program,
                        const datalog::EdbStats& stats) const {
  datalog::PlanProgram(program, stats);
  counters_.plans_computed.fetch_add(1, std::memory_order_relaxed);
}

Result<datalog::Program> Engine::Translate(const sparql::Query& query) const {
  QueryTranslator translator(dict_, &skolems_, options_.ontology);
  return translator.Translate(query);
}

std::vector<datalog::Value> Engine::AmbientValues() const {
  using datalog::ValueFromTerm;
  std::vector<datalog::Value> out;
  out.push_back(ValueFromTerm(DefaultGraphTerm(dict_)));
  out.push_back(ValueFromTerm(dict_->InternBoolean(true)));
  out.push_back(ValueFromTerm(dict_->InternBoolean(false)));
  if (options_.ontology) {
    for (std::string_view iri :
         {rdf::rdfns::kType, rdf::rdfns::kSubClassOf,
          rdf::rdfns::kSubPropertyOf, rdf::rdfns::kDomain,
          rdf::rdfns::kRange}) {
      out.push_back(ValueFromTerm(dict_->InternIri(std::string(iri))));
    }
  }
  return out;
}

Result<std::shared_ptr<const datalog::Program>> Engine::TranslateCached(
    const sparql::Query& query, const datalog::EdbStats* stats, bool scoped,
    QueryStats* qs) const {
  sparql::QueryShape shape = sparql::ComputeQueryShape(query);
  const bool planner = options_.planner.join_planner;
  if (std::optional<ProgramCache::Entry> entry = program_cache_.Lookup(shape)) {
    if (entry->data_key == shape.data_key) {
      counters_.program_hits.fetch_add(1, std::memory_order_relaxed);
      qs->program_source = ProgramSource::kCacheHit;
      if (planner && (scoped || entry->plan_generation != stats->generation())) {
        // The cached plan is stale (EDB rebuilt since it was computed) or
        // this is a query-scoped FROM execution (its statistics are not
        // the engine's): replan a copy. Scoped plans are never adopted —
        // they would poison the entry for unscoped traffic.
        datalog::Program replanned = *entry->program;
        PlanForEdb(&replanned, *stats);
        auto program =
            std::make_shared<const datalog::Program>(std::move(replanned));
        if (!scoped) {
          entry->program = program;
          entry->plan_generation = stats->generation();
          program_cache_.Insert(shape, std::move(*entry));
        }
        return program;
      }
      if (planner) {
        counters_.plan_cache_hits.fetch_add(1, std::memory_order_relaxed);
      }
      return entry->program;
    }
    std::optional<datalog::Program> rebound =
        RebindProgram(*entry, shape, query, AmbientValues());
    if (rebound.has_value()) {
      counters_.program_rebinds.fetch_add(1, std::memory_order_relaxed);
      qs->program_source = ProgramSource::kRebound;
      // Re-bound constants shift selectivities, so the plan is recomputed
      // along with the binding (still far cheaper than re-translating).
      if (planner) PlanForEdb(&*rebound, *stats);
      // Adopt the re-bound program as the shape's template: production
      // traffic repeats the *latest* constants, so the next arrival of
      // this exact query is a verbatim hit.
      entry->program =
          std::make_shared<const datalog::Program>(std::move(*rebound));
      entry->params = shape.params;
      entry->data_key = shape.data_key;
      entry->var_names = shape.var_names;
      entry->plan_generation = (planner && !scoped) ? stats->generation()
                                                    : ProgramCache::kNoPlan;
      std::shared_ptr<const datalog::Program> program = entry->program;
      program_cache_.Insert(shape, std::move(*entry));
      return program;
    }
    // A changing parameter collided with an engine constant; fall through
    // to a fresh translation and make it the shape's new template.
  }
  counters_.program_misses.fetch_add(1, std::memory_order_relaxed);
  qs->program_source = ProgramSource::kTranslated;
  SPARQLOG_ASSIGN_OR_RETURN(datalog::Program translated, Translate(query));
  if (planner) PlanForEdb(&translated, *stats);
  auto program =
      std::make_shared<const datalog::Program>(std::move(translated));
  ProgramCache::Entry entry;
  entry.program = program;
  entry.params = shape.params;
  entry.data_key = shape.data_key;
  entry.var_names = shape.var_names;
  entry.plan_generation = (planner && !scoped) ? stats->generation()
                                               : ProgramCache::kNoPlan;
  program_cache_.Insert(shape, std::move(entry));
  return program;
}

Status Engine::Admit(const QueryLimits& limits) const {
  const uint32_t max_in_flight = options_.serving.max_in_flight;
  if (max_in_flight == 0) {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  std::unique_lock<std::mutex> lock(admission_mu_);
  // Degraded mode tightens admission: half the configured capacity (at
  // least one slot) until the outcome window recovers.
  auto effective_cap = [&]() -> uint32_t {
    uint32_t cap = max_in_flight;
    if (degraded_.load(std::memory_order_relaxed)) {
      cap = std::max(1u, cap / 2);
    }
    return cap;
  };
  if (in_flight_.load(std::memory_order_relaxed) < effective_cap()) {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }
  const uint32_t queue_limit = options_.serving.queue_limit;
  if (queue_limit == 0 || queue_waiters_ >= queue_limit) {
    // Saturated and no queue slot: shed immediately (queue_limit == 0 is
    // the legacy fail-fast mode).
    counters_.rejected.fetch_add(1, std::memory_order_relaxed);
    RecordOutcomeLocked(Outcome::kShed);
    return Status::Unavailable(
        "Engine::Execute: admission control rejected the query (" +
        std::to_string(effective_cap()) + " queries already in flight)");
  }
  // Deadline-aware bounded wait: never hold a caller past the point
  // where its own timeout budget would be mostly gone anyway.
  std::chrono::milliseconds wait_budget = options_.serving.queue_timeout;
  const std::chrono::milliseconds query_timeout =
      limits.timeout.count() > 0 ? limits.timeout : options_.timeout;
  if (query_timeout.count() > 0 && query_timeout < wait_budget) {
    wait_budget = query_timeout;
  }
  const auto deadline = std::chrono::steady_clock::now() + wait_budget;
  ++queue_waiters_;
  queued_total_.fetch_add(1, std::memory_order_relaxed);
  while (in_flight_.load(std::memory_order_relaxed) >= effective_cap()) {
    if (admission_cv_.wait_until(lock, deadline) ==
        std::cv_status::timeout &&
        in_flight_.load(std::memory_order_relaxed) >= effective_cap()) {
      --queue_waiters_;
      counters_.rejected.fetch_add(1, std::memory_order_relaxed);
      RecordOutcomeLocked(Outcome::kShed);
      return Status::Unavailable(
          "Engine::Execute: queued past the admission deadline (" +
          std::to_string(wait_budget.count()) + " ms)");
    }
  }
  --queue_waiters_;
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void Engine::ReleaseAdmission() const {
  if (options_.serving.max_in_flight == 0) {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  {
    // Decrement under the lock so a waiter cannot observe "full" and
    // park between our decrement and notify (lost wake-up).
    std::lock_guard<std::mutex> lock(admission_mu_);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }
  admission_cv_.notify_one();
}

void Engine::RecordOutcome(Outcome outcome) const {
  if (!options_.degrade.enabled) return;
  std::lock_guard<std::mutex> lock(admission_mu_);
  RecordOutcomeLocked(outcome);
}

void Engine::RecordOutcomeLocked(Outcome outcome) const {
  const Options::Degrade& cfg = options_.degrade;
  if (!cfg.enabled || cfg.window == 0) return;
  if (outcome_ring_.size() != cfg.window) {
    outcome_ring_.assign(cfg.window, 0);
    outcome_pos_ = 0;
    outcome_count_ = 0;
    outcome_bad_ = 0;
  }
  const uint8_t bad = outcome == Outcome::kOk ? 0 : 1;
  if (outcome_count_ == outcome_ring_.size()) {
    outcome_bad_ -= outcome_ring_[outcome_pos_];
  } else {
    ++outcome_count_;
  }
  outcome_ring_[outcome_pos_] = bad;
  outcome_bad_ += bad;
  outcome_pos_ = (outcome_pos_ + 1) % outcome_ring_.size();
  if (outcome_count_ < cfg.min_events) return;
  const double ratio = double(outcome_bad_) / double(outcome_count_);
  const bool degraded = degraded_.load(std::memory_order_relaxed);
  if (!degraded && ratio >= cfg.enter_ratio) {
    // Enter degraded mode: shed both caches (reclaiming the memo's byte
    // budget immediately) and halve the admission cap via effective_cap.
    // Lock order: admission_mu_ -> cache mutexes; the caches never call
    // back into admission.
    degraded_.store(true, std::memory_order_relaxed);
    degrade_entries_.fetch_add(1, std::memory_order_relaxed);
    stratum_memo_.Clear();
    program_cache_.Clear();
  } else if (degraded && ratio <= cfg.exit_ratio) {
    degraded_.store(false, std::memory_order_relaxed);
    degrade_exits_.fetch_add(1, std::memory_order_relaxed);
    // Capacity just doubled back: wake every queued waiter to re-check.
    admission_cv_.notify_all();
  }
}

Result<Engine::Execution> Engine::Execute(const sparql::Query& query,
                                          const QueryLimits& limits) const {
  // Admission control: within the in-flight bound, or a bounded
  // deadline-aware wait for a slot (Options::Serving::queue_limit), or
  // shed with Unavailable so a saturated server degrades instead of
  // queueing unboundedly. The slot is held for the whole call (RAII).
  SPARQLOG_RETURN_NOT_OK(Admit(limits));
  struct Admission {
    const Engine* engine;
    ~Admission() { engine->ReleaseAdmission(); }
  };
  Admission slot{this};

  // Reader side of the load lock: every concurrent query sees one
  // consistent loaded snapshot, and a re-Load waits for us to finish.
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  if (!loaded_.load(std::memory_order_relaxed)) {
    counters_.failures.fetch_add(1, std::memory_order_relaxed);
    return Status::FailedPrecondition(
        "Engine::Execute: Load() must complete before queries are served");
  }

  Result<Execution> result = [&]() -> Result<Execution> {
    // FROM / FROM NAMED construct a query-specific dataset; translate its
    // data on the fly (the paper's engine likewise demands the query
    // dataset to be loaded for answering, §4.3). The scoped EDB and its
    // statistics are locals — concurrent unscoped queries keep using the
    // engine snapshot — and the stratum memo sits out (the scoped EDB is
    // not this dataset's generation).
    if (!query.from.empty() || !query.from_named.empty()) {
      rdf::Dataset scoped = dataset_->WithClauses(query.from, query.from_named);
      datalog::Database scoped_edb;
      SPARQLOG_RETURN_NOT_OK(DataTranslator::Translate(
          scoped, dict_, &scoped_edb, options_.edb_build));
      datalog::EdbStats scoped_stats;
      if (options_.planner.join_planner) {
        datalog::PredicateTable scratch;
        EdbPredicates preds = InternEdbPredicates(&scratch);
        scoped_stats.Collect(scoped_edb, preds.triple);
      }
      return ExecuteInternal(query, &scoped_edb,
                             options_.planner.join_planner ? &scoped_stats
                                                           : nullptr,
                             /*scoped=*/true, limits);
    }
    return ExecuteInternal(query, &edb_,
                           options_.planner.join_planner ? &edb_stats_
                                                         : nullptr,
                           /*scoped=*/false, limits);
  }();

  if (result.ok()) {
    counters_.queries.fetch_add(1, std::memory_order_relaxed);
    RecordOutcome(Outcome::kOk);
  } else {
    counters_.failures.fetch_add(1, std::memory_order_relaxed);
    // Only pressure signals feed the degrade window: a parse error or
    // unsupported feature says nothing about load.
    if (result.status().IsTimeout()) {
      RecordOutcome(Outcome::kTimeout);
    } else if (result.status().IsResourceExhausted()) {
      RecordOutcome(Outcome::kMemOut);
    }
  }
  return result;
}

Result<Engine::Execution> Engine::ExecuteInternal(
    const sparql::Query& query, datalog::Database* edb,
    const datalog::EdbStats* stats, bool scoped,
    const QueryLimits& limits) const {
  const auto wall_start = std::chrono::steady_clock::now();
  const double cpu_start = ThreadCpuSeconds();

  Execution exec;
  QueryStats& qs = exec.stats;

  std::shared_ptr<const datalog::Program> program;
  if (options_.caching.program_cache) {
    SPARQLOG_ASSIGN_OR_RETURN(program,
                              TranslateCached(query, stats, scoped, &qs));
  } else {
    qs.program_source = ProgramSource::kUncached;
    SPARQLOG_ASSIGN_OR_RETURN(datalog::Program translated, Translate(query));
    if (stats != nullptr) PlanForEdb(&translated, *stats);
    program =
        std::make_shared<const datalog::Program>(std::move(translated));
  }
  qs.planned = stats != nullptr && program->planned_estimate >= 0;

  // Per-call limits override the engine-wide defaults.
  ExecContext ctx;
  const std::chrono::milliseconds timeout =
      limits.timeout.count() > 0 ? limits.timeout : options_.timeout;
  const uint64_t tuple_budget =
      limits.tuple_budget > 0 ? limits.tuple_budget : options_.tuple_budget;
  if (timeout.count() > 0) ctx.set_deadline_after(timeout);
  if (tuple_budget > 0) ctx.set_tuple_budget(tuple_budget);

  datalog::Database idb;
  datalog::Evaluator evaluator(dict_, &skolems_);
  evaluator.set_tc_kernel(options_.fixpoint.tc_kernel);
  // Degraded mode bypasses the stratum memo entirely: no lookups (the
  // memo was just shed) and — more importantly — no new snapshots taken
  // while the engine is trying to shed memory.
  if (options_.caching.stratum_memo && !scoped &&
      !degraded_.load(std::memory_order_relaxed)) {
    // The memo anchor is the cold-load generation; incremental updates
    // refine it with per-predicate versions instead of moving it, so
    // strata over untouched predicates keep their snapshots. The latest
    // update's delta (if any) enables snapshot re-derivation.
    evaluator.set_stratum_memo(&stratum_memo_, edb_base_fp_);
    datalog::Evaluator::IncrementalInput inc;
    inc.delta = pending_delta_;
    inc.versions = &edb_versions_;
    inc.prev_versions = pending_delta_ != nullptr ? &edb_prev_versions_
                                                  : nullptr;
    inc.max_overdelete = options_.update.max_overdelete;
    evaluator.set_incremental(std::move(inc));
  }
  SPARQLOG_RETURN_NOT_OK(evaluator.Evaluate(*program, edb, &idb, &ctx));
  qs.fixpoint = evaluator.stats();

  // Fold this query's fixpoint counters into the engine-lifetime totals.
  const datalog::EvalStats& es = qs.fixpoint;
  counters_.stratum_hits.fetch_add(es.strata_memo_hits,
                                   std::memory_order_relaxed);
  counters_.stratum_misses.fetch_add(es.strata_memo_misses,
                                     std::memory_order_relaxed);
  counters_.tuples_restored.fetch_add(es.tuples_restored,
                                      std::memory_order_relaxed);
  counters_.rounds.fetch_add(es.rounds, std::memory_order_relaxed);
  counters_.tc_kernels_hit.fetch_add(es.tc_kernels_hit,
                                     std::memory_order_relaxed);
  counters_.tc_dense_frontiers.fetch_add(es.tc_dense_frontiers,
                                         std::memory_order_relaxed);
  counters_.tc_sparse_frontiers.fetch_add(es.tc_sparse_frontiers,
                                          std::memory_order_relaxed);
  counters_.strata_incremental.fetch_add(es.strata_incremental,
                                         std::memory_order_relaxed);
  counters_.strata_dred.fetch_add(es.strata_dred, std::memory_order_relaxed);
  counters_.incremental_fallbacks.fetch_add(es.incremental_fallbacks,
                                            std::memory_order_relaxed);
  counters_.tuples_overdeleted.fetch_add(es.tuples_overdeleted,
                                         std::memory_order_relaxed);
  counters_.tuples_rederived.fetch_add(es.tuples_rederived,
                                       std::memory_order_relaxed);

  // Planner feedback: q-error between the estimated and materialized
  // output cardinality (benchmarks watch this to keep the cost model
  // honest).
  if (qs.planned) {
    const datalog::Relation* out = idb.Find(program->output.predicate);
    double actual = std::max(out == nullptr ? 0.0 : double(out->size()), 1.0);
    double estimate = std::max(program->planned_estimate, 1.0);
    qs.plan_estimate_error =
        estimate > actual ? estimate / actual : actual / estimate;
  }

  SPARQLOG_ASSIGN_OR_RETURN(
      exec.result, SolutionTranslator::Translate(*program, query, idb, dict_,
                                                 &ctx));
  qs.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  qs.cpu_seconds = ThreadCpuSeconds() - cpu_start;
  return exec;
}

Result<Engine::Execution> Engine::ExecuteText(std::string_view sparql_text,
                                              const QueryLimits& limits) const {
  sparql::ParserOptions popts;
  popts.extensions = options_.extensions;
  SPARQLOG_ASSIGN_OR_RETURN(sparql::Query query,
                            sparql::ParseQuery(sparql_text, dict_, popts));
  return Execute(query, limits);
}

Result<std::string> Engine::TranslateToText(
    std::string_view sparql_text) const {
  sparql::ParserOptions popts;
  popts.extensions = options_.extensions;
  SPARQLOG_ASSIGN_OR_RETURN(sparql::Query query,
                            sparql::ParseQuery(sparql_text, dict_, popts));
  SPARQLOG_ASSIGN_OR_RETURN(datalog::Program program, Translate(query));
  return datalog::ToString(program, *dict_, skolems_);
}

Engine::EngineStats Engine::stats() const {
  EngineStats s;
  const auto ld = [](const std::atomic<uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  s.queries = ld(counters_.queries);
  s.failures = ld(counters_.failures);
  s.rejected = ld(counters_.rejected);
  s.in_flight = in_flight_.load(std::memory_order_relaxed);
  s.queued = queued_total_.load(std::memory_order_relaxed);
  s.degraded = degraded_.load(std::memory_order_relaxed);
  s.degrade_entries = degrade_entries_.load(std::memory_order_relaxed);
  s.degrade_exits = degrade_exits_.load(std::memory_order_relaxed);
  s.program_hits = ld(counters_.program_hits);
  s.program_rebinds = ld(counters_.program_rebinds);
  s.program_misses = ld(counters_.program_misses);
  s.program_evictions = program_cache_.evictions();
  s.stratum_hits = ld(counters_.stratum_hits);
  s.stratum_misses = ld(counters_.stratum_misses);
  s.stratum_evictions = stratum_memo_.evictions();
  s.tuples_restored = ld(counters_.tuples_restored);
  s.invalidations = ld(counters_.invalidations);
  s.plans_computed = ld(counters_.plans_computed);
  s.plan_cache_hits = ld(counters_.plan_cache_hits);
  s.rounds = ld(counters_.rounds);
  s.tc_kernels_hit = ld(counters_.tc_kernels_hit);
  s.tc_dense_frontiers = ld(counters_.tc_dense_frontiers);
  s.tc_sparse_frontiers = ld(counters_.tc_sparse_frontiers);
  s.updates = ld(counters_.updates);
  s.update_noops = ld(counters_.update_noops);
  s.strata_incremental = ld(counters_.strata_incremental);
  s.strata_dred = ld(counters_.strata_dred);
  s.incremental_fallbacks = ld(counters_.incremental_fallbacks);
  s.tuples_overdeleted = ld(counters_.tuples_overdeleted);
  s.tuples_rederived = ld(counters_.tuples_rederived);
  s.interning_contention =
      dict_->intern_contention() + skolems_.intern_contention();
  return s;
}

Engine::StorageStats Engine::edb_storage() const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return {edb_.TotalTuples(), edb_.TotalBytes()};
}

}  // namespace sparqlog::core
