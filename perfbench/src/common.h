#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "eval/binding.h"
#include "rdf/dictionary.h"

/// \file common.h
/// Shared pieces of the end-to-end benchmark: command-line settings, order
/// statistics, the order-independent answer digest used by every
/// correctness check, pinned expected answers, and the metric report whose
/// last line is the JSON object the benchmark contract asks for.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Settings of one benchmark invocation.
struct Settings {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 20;
  bool trace = false;
  /// Directory holding the pinned expected answers (perfbench/expected).
  std::string expected_dir;
  /// Where the traced run writes its spans; empty = do not write.
  std::string trace_out;
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double GeoMean(const std::vector<double>& values);
double Mean(const std::vector<double>& values);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

/// Moves the calling thread to the `index`-th CPU it may run on (modulo
/// their number), leaving its affinity mask as it was. The host's vCPUs
/// differ in speed, and a single-threaded client tends to stay on the one
/// it started on; moving it round-robin between passes and set-ups makes
/// every run sample all of them, instead of one run getting a slow vCPU
/// and the next a fast one.
void MoveToCpu(unsigned index);

/// CPU time used by the calling thread so far, in seconds. Gated timings
/// are CPU time of the one thread that runs the work (the engine runs
/// with one thread, see README.md, "Steadiness"): unlike wall time it
/// leaves out the time the hypervisor ran other guests on the vCPU
/// (steal), which on the reference host reached 30-50% for minutes.
double ThreadCpuSeconds();

/// Share of busy vCPU time the hypervisor took away (steal), host-wide,
/// between construction and Share(); from /proc/stat, 0 where unreadable.
class StealMeter {
 public:
  StealMeter();
  double Share() const;

 private:
  static bool Read(uint64_t* busy, uint64_t* steal);
  uint64_t busy_ = 0, steal_ = 0;
  bool ok_ = false;
};

/// Order-independent digest of a query answer: the row count plus the
/// wrapping sum of per-row hashes over the terms' canonical text (so it
/// does not depend on TermId numbering, row order, or the engine that
/// produced it). Column names are folded into every row hash.
struct Answer {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Answer& o) const {
    return rows == o.rows && hash == o.hash;
  }
  bool operator!=(const Answer& o) const { return !(*this == o); }
};
Answer Digest(const sparqlog::eval::QueryResult& result,
              const sparqlog::rdf::TermDictionary& dict);

/// Expected answers of one offline workload, keyed by dataset variant and
/// query name. File format, one answer per line:
///   <variant> <query> <rows> <hash-hex> <source>
class ExpectedAnswers {
 public:
  /// Loads `<dir>/<workload>.tsv`; false (with `error`) if unreadable.
  bool Load(const std::string& dir, const std::string& workload,
            std::string* error);
  /// Null when the pair was never pinned.
  const Answer* Find(uint32_t variant, const std::string& query) const;

 private:
  std::map<std::pair<uint32_t, std::string>, Answer> answers_;
};

/// Collects metrics and prints them: one human-readable line per metric,
/// then the contract's JSON object as the last line of stdout.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// A line printed before the metrics (sizes, self-checks, notes).
  void Note(const std::string& line) { notes_.push_back(line); }
  /// `json_names` selects and orders the metrics that go into the JSON
  /// object; the human-readable lines list every metric added.
  void Print(const Settings& settings, bool correct, uint64_t attempted,
             uint64_t failed, const std::vector<std::string>& json_names) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::vector<std::string> notes_;
};

/// Tallies operations for the `attempted` / `failed` fields and the
/// error-rate metrics.
struct Outcomes {
  uint64_t attempted = 0;
  uint64_t failed = 0;     ///< returned an error or a refusal
  uint64_t wrong = 0;      ///< returned an answer that differs from expected
  uint64_t bad() const { return failed + wrong; }
  double error_rate() const {
    return attempted == 0 ? 1.0 : double(bad()) / double(attempted);
  }
};

/// Workload entry points (offline.cpp, serve.cpp). Return the exit code.
int RunOffline(const Settings& settings);
int RunServe(const Settings& settings);
/// Records the expected answers of one offline dataset variant with the
/// reference evaluator (engine fallback where it exceeds its budget).
int PinOffline(const std::string& workload, uint32_t variant);

/// Names of the end-to-end and per-layer metrics in the result JSON, in
/// BENCHMARK.json order.
const std::vector<std::string>& EndToEndMetricNames();
const std::vector<std::string>& PerLayerMetricNames();

}  // namespace perfbench
