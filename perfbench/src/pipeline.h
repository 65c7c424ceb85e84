#pragma once

#include <string_view>

#include "common.h"
#include "core/engine.h"
#include "datalog/evaluator.h"
#include "datalog/stats.h"
#include "trace.h"

/// \file pipeline.h
/// The traced run's direct drive of one query through the layers' public
/// functions, with a span around each call: sparql::ParseQuery,
/// Engine::Translate (T_Q), datalog::PlanProgram, Evaluator::Evaluate and
/// SolutionTranslator::Translate (T_S). It mirrors what Engine::Execute
/// does with both caches off, over an EDB the benchmark materializes
/// itself with DataTranslator::Translate (T_D) and EdbStats::Collect.

namespace perfbench {

class DirectPipeline {
 public:
  /// `engine` supplies T_Q and the Skolem store; it need not be loaded.
  /// All three referents must outlive the pipeline.
  DirectPipeline(const sparqlog::rdf::Dataset* dataset,
                 sparqlog::rdf::TermDictionary* dict,
                 const sparqlog::core::Engine* engine, Tracer* tracer)
      : dataset_(dataset), dict_(dict), engine_(engine), tracer_(tracer) {}

  /// T_D + statistics, each timed (and traced as core.td / datalog.stats).
  sparqlog::Status Build();
  double td_seconds() const { return td_seconds_; }
  double stats_seconds() const { return stats_seconds_; }

  struct Outcome {
    Answer answer;
    sparqlog::datalog::EvalStats eval;
    uint64_t result_rows = 0;
    /// Planner q-error of the output estimate; 0 when not planned.
    double plan_qerror = 0.0;
  };
  /// Runs one query; spans nest under the caller's open span.
  sparqlog::Result<Outcome> Run(std::string_view text, uint64_t request);

 private:
  const sparqlog::rdf::Dataset* dataset_;
  sparqlog::rdf::TermDictionary* dict_;
  const sparqlog::core::Engine* engine_;
  Tracer* tracer_;
  sparqlog::datalog::Database edb_;
  sparqlog::datalog::EdbStats stats_;
  double td_seconds_ = 0.0;
  double stats_seconds_ = 0.0;
};

}  // namespace perfbench
