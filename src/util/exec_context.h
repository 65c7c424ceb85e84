#pragma once

#include <chrono>
#include <cstdint>
#include <limits>

#include "util/status.h"

/// \file exec_context.h
/// Cooperative cancellation / resource-budget context threaded through all
/// evaluators. This is what makes the paper's time-out and mem-out rows
/// (Tables 7-11) reproducible deterministically: every engine checks the
/// same context in its inner loops.

namespace sparqlog {

/// Execution limits for one query evaluation.
///
/// A default-constructed context is unlimited. `CheckBudget()` should be
/// called periodically from evaluation loops; it is cheap (a counter
/// compare plus an occasional clock read). One context belongs to one
/// query, which runs on one thread: it is not synchronized.
class ExecContext {
 public:
  using Clock = std::chrono::steady_clock;

  ExecContext() = default;

  /// Limits wall-clock time for the evaluation.
  void set_deadline_after(std::chrono::milliseconds budget) {
    deadline_ = Clock::now() + budget;
    has_deadline_ = true;
  }

  /// Limits the number of tuples any engine may materialize ("mem-out").
  void set_tuple_budget(uint64_t budget) { tuple_budget_ = budget; }

  uint64_t tuple_budget() const { return tuple_budget_; }
  uint64_t tuples_used() const { return tuples_used_; }

  /// Records `n` materialized tuples against the budget.
  void AddTuples(uint64_t n) { tuples_used_ += n; }

  /// Returns Timeout / ResourceExhausted when a limit has been crossed.
  /// Advances the stride phase by `advance` work units and samples the
  /// clock only when that crosses a `kClockStride` boundary, so the
  /// deadline cadence follows work done (a batch charges its size), not
  /// call count, and the common path stays branch-cheap.
  Status CheckBudget(uint32_t advance = 1) {
    if (tuples_used_ > tuple_budget_) {
      return Status::ResourceExhausted("tuple budget exceeded (mem-out)");
    }
    if (has_deadline_) {
      const uint32_t before = clock_phase_;
      clock_phase_ = before + advance;
      if (before / kClockStride != clock_phase_ / kClockStride &&
          Clock::now() > deadline_) {
        return Status::Timeout("deadline exceeded");
      }
    }
    return Status::OK();
  }

  /// Immediate deadline check (used at loop heads of outer phases).
  bool PastDeadline() const {
    return has_deadline_ && Clock::now() > deadline_;
  }

  /// Deadline checks are sampled once per this many work units (see
  /// CheckBudget); exposed for tests and pacing callers.
  static constexpr uint32_t kClockStride = 256;

 private:
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  uint64_t tuple_budget_ = std::numeric_limits<uint64_t>::max();
  uint64_t tuples_used_ = 0;
  uint32_t clock_phase_ = 0;
};

/// Wall-clock stopwatch for the benchmark harness.
class Stopwatch {
 public:
  Stopwatch() : start_(ExecContext::Clock::now()) {}
  void Restart() { start_ = ExecContext::Clock::now(); }
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(ExecContext::Clock::now() - start_)
        .count();
  }

 private:
  ExecContext::Clock::time_point start_;
};

}  // namespace sparqlog
