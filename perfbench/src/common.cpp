#include "common.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/hash.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * double(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - double(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(std::max(v, 1e-12));
  return std::exp(log_sum / double(values.size()));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / double(values.size());
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void MoveToCpu(unsigned index) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  if (count <= 1) return;
  int skip = static_cast<int>(index % static_cast<unsigned>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    // Pinning migrates the thread now; restoring the mask leaves it there
    // and lets it, and any thread it starts, run anywhere again.
    if (sched_setaffinity(0, sizeof(one), &one) == 0) {
      sched_setaffinity(0, sizeof(allowed), &allowed);
    }
    return;
  }
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

StealMeter::StealMeter() { ok_ = Read(&busy_, &steal_); }

bool StealMeter::Read(uint64_t* busy, uint64_t* steal) {
  // "cpu user nice system idle iowait irq softirq steal ..."
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t f[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return false;
  for (uint64_t& v : f) {
    if (!(in >> v)) return false;
  }
  *steal = f[7];
  *busy = f[0] + f[1] + f[2] + f[5] + f[6] + f[7];
  return true;
}

double StealMeter::Share() const {
  uint64_t busy = 0, steal = 0;
  if (!ok_ || !Read(&busy, &steal) || busy <= busy_) return 0.0;
  return double(steal - steal_) / double(busy - busy_);
}

Answer Digest(const sparqlog::eval::QueryResult& result,
              const sparqlog::rdf::TermDictionary& dict) {
  using sparqlog::Fmix64;
  using sparqlog::Fnv1a64;
  Answer a;
  if (result.is_ask) {
    a.rows = result.ask_value ? 1 : 0;
    a.hash = Fmix64(result.ask_value ? 0x7475 : 0x6661);
    return a;
  }
  uint64_t columns = 0x636f6c;
  for (const std::string& c : result.columns) {
    columns = Fmix64(columns ^ Fnv1a64(c));
  }
  for (const auto& row : result.rows) {
    uint64_t h = columns;
    for (sparqlog::rdf::TermId id : row) {
      const uint64_t cell =
          id == sparqlog::rdf::TermDictionary::kUndef
              ? 0x756e646566ULL
              : Fnv1a64(dict.get(id).CanonicalKey());
      h = Fmix64(h ^ cell) + 0x9e3779b97f4a7c15ULL;
    }
    a.hash += Fmix64(h);
  }
  a.rows = result.rows.size();
  return a;
}

bool ExpectedAnswers::Load(const std::string& dir, const std::string& workload,
                           std::string* error) {
  const std::string path = dir + "/" + workload + ".tsv";
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read expected answers " + path;
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    uint32_t variant = 0;
    std::string query, hash_hex;
    Answer answer;
    if (!(fields >> variant >> query >> answer.rows >> hash_hex)) {
      *error = "malformed line in " + path + ": " + line;
      return false;
    }
    answer.hash = std::stoull(hash_hex, nullptr, 16);
    answers_[{variant, query}] = answer;
  }
  return true;
}

const Answer* ExpectedAnswers::Find(uint32_t variant,
                                    const std::string& query) const {
  auto it = answers_.find({variant, query});
  return it == answers_.end() ? nullptr : &it->second;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  entries_.push_back({name, value, unit});
}

void Report::Print(const Settings& settings, bool correct, uint64_t attempted,
                   uint64_t failed,
                   const std::vector<std::string>& json_names) const {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              settings.workload.c_str(),
              static_cast<unsigned long long>(settings.seed),
              settings.seconds, settings.trace ? 1 : 0);
  for (const std::string& note : notes_) std::printf("  %s\n", note.c_str());
  for (const Entry& e : entries_) {
    std::printf("  %-32s %16.6f %s\n", e.name.c_str(), e.value,
                e.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : json_names) {
    auto it = std::find_if(entries_.begin(), entries_.end(),
                           [&](const Entry& e) { return e.name == name; });
    if (it == entries_.end()) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g",
                  std::isfinite(it->value) ? it->value : 0.0);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            it->unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

const std::vector<std::string>& EndToEndMetricNames() {
  // max_rate_qps, update_p50_ms, update_p90_ms and error_rate are printed
  // on every run but not part of the JSON: see README.md ("End-to-end
  // metrics").
  static const std::vector<std::string> names = {
      "setup_s",      "suite_s",      "query_geomean_ms",
      "query_p50_ms", "query_p99_ms", "ok_rate",
      "peak_rss_mb",  "edb_bytes_per_triple"};
  return names;
}

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> names = {
      "datalog.eval_us",
      "datalog.tuples_derived",
      "datalog.derived_per_row",
      "datalog.rounds",
      "datalog.parallel_rounds",
      "datalog.tc_kernel_strata",
      "sparql.parse_us",
      "core.tq_us",
      "datalog.plan_us",
      "datalog.plan_qerror",
      "core.ts_us",
      "core.engine_us",
      "core.program_cache_hit_ratio",
      "core.program_cache_evictions",
      "datalog.memo_hit_ratio",
      "datalog.memo_evictions",
      "core.update_us",
      "datalog.strata_incremental",
      "datalog.strata_dred",
      "datalog.incremental_fallbacks",
      "core.admission_queued",
      "core.admission_rejected",
      "server.self_us",
      "core.td_s",
      "datalog.stats_s",
      "bench.gen_late_ms",
      "bench.trace_overhead_pct"};
  return names;
}

}  // namespace perfbench
