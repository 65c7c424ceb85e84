#include "pipeline.h"

#include <algorithm>

#include "core/data_translator.h"
#include "core/solution_translator.h"
#include "datalog/planner.h"
#include "sparql/parser.h"
#include "util/exec_context.h"

namespace perfbench {

using namespace sparqlog;

Status DirectPipeline::Build() {
  edb_ = datalog::Database();
  auto t0 = Clock::now();
  {
    auto span = tracer_->Open("core.td", 0);
    SPARQLOG_RETURN_NOT_OK(
        core::DataTranslator::Translate(*dataset_, dict_, &edb_));
  }
  auto t1 = Clock::now();
  {
    auto span = tracer_->Open("datalog.stats", 0);
    datalog::PredicateTable scratch;
    core::EdbPredicates preds = core::InternEdbPredicates(&scratch);
    stats_ = datalog::EdbStats();
    stats_.Collect(edb_, preds.triple);
  }
  auto t2 = Clock::now();
  td_seconds_ = SecondsBetween(t0, t1);
  stats_seconds_ = SecondsBetween(t1, t2);
  return Status::OK();
}

Result<DirectPipeline::Outcome> DirectPipeline::Run(std::string_view text,
                                                    uint64_t request) {
  Outcome out;
  Result<sparql::Query> parsed = Status::Internal("unparsed");
  {
    auto span = tracer_->Open("sparql.parse", request);
    parsed = sparql::ParseQuery(text, dict_, sparql::ParserOptions());
  }
  SPARQLOG_RETURN_NOT_OK(parsed.status());
  const sparql::Query& query = *parsed;

  Result<datalog::Program> translated = Status::Internal("untranslated");
  {
    auto span = tracer_->Open("core.tq", request);
    translated = engine_->Translate(query);
  }
  SPARQLOG_RETURN_NOT_OK(translated.status());
  datalog::Program& program = *translated;

  {
    auto span = tracer_->Open("datalog.plan", request);
    datalog::PlanProgram(&program, stats_);
  }

  // The same evaluator configuration Engine::Execute uses in the
  // benchmark's offline engines: both caches off, one fixpoint thread,
  // every other option at its default.
  ExecContext ctx;
  datalog::Database idb;
  datalog::Evaluator evaluator(dict_, engine_->skolems());
  evaluator.set_num_threads(1);
  evaluator.set_parallel_merge(true);
  evaluator.set_parallel_naive(true);
  evaluator.set_tc_kernel(true);
  Status evaluated = Status::OK();
  {
    auto span = tracer_->Open("datalog.eval", request);
    evaluated = evaluator.Evaluate(program, &edb_, &idb, &ctx);
  }
  SPARQLOG_RETURN_NOT_OK(evaluated);
  out.eval = evaluator.stats();
  if (program.planned_estimate >= 0) {
    const datalog::Relation* rel = idb.Find(program.output.predicate);
    const double actual =
        std::max(rel == nullptr ? 0.0 : double(rel->size()), 1.0);
    const double estimate = std::max(program.planned_estimate, 1.0);
    out.plan_qerror =
        estimate > actual ? estimate / actual : actual / estimate;
  }

  Result<eval::QueryResult> result = Status::Internal("untranslated");
  {
    auto span = tracer_->Open("core.ts", request);
    result = core::SolutionTranslator::Translate(program, query, idb, dict_,
                                                 &ctx);
  }
  SPARQLOG_RETURN_NOT_OK(result.status());
  out.answer = Digest(*result, *dict_);
  out.result_rows = result->is_ask ? 1 : result->rows.size();
  return out;
}

}  // namespace perfbench
