#include "workloads/runner.h"

#include <cstdio>

#include "util/string_util.h"

namespace sparqlog::workloads {

const char* OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kOk: return "ok";
    case Outcome::kTimeout: return "timeout";
    case Outcome::kMemOut: return "memout";
    case Outcome::kNotSupported: return "notsupported";
    case Outcome::kError: return "error";
  }
  return "?";
}

Outcome ClassifyStatus(const Status& status) {
  if (status.ok()) return Outcome::kOk;
  if (status.IsTimeout()) return Outcome::kTimeout;
  if (status.IsResourceExhausted()) return Outcome::kMemOut;
  if (status.IsNotSupported()) return Outcome::kNotSupported;
  return Outcome::kError;
}

ComplianceClass Classify(const RunRecord& record,
                         const eval::QueryResult& expected) {
  ComplianceClass out;
  if (!record.ok()) {
    out.error = true;
    out.correct = false;
    out.complete = false;
    return out;
  }
  out.correct = record.result.SubsetOf(expected);
  out.complete = expected.SubsetOf(record.result);
  return out;
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print() const {
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::string line;
    for (size_t i = 0; i < widths.size(); ++i) {
      std::string cell = i < row.size() ? row[i] : "";
      cell.resize(widths[i], ' ');
      line += cell;
      if (i + 1 < widths.size()) line += "  ";
    }
    std::printf("%s\n", line.c_str());
  };
  print_row(headers_);
  std::string sep;
  for (size_t i = 0; i < widths.size(); ++i) {
    sep += std::string(widths[i], '-');
    if (i + 1 < widths.size()) sep += "  ";
  }
  std::printf("%s\n", sep.c_str());
  for (const auto& row : rows_) print_row(row);
}

std::string FormatTime(const RunRecord& r, bool total) {
  if (!r.ok()) return OutcomeName(r.outcome);
  return StringPrintf("%.4f", total ? r.total_seconds() : r.exec_seconds);
}

std::string FormatCacheStats(const RunRecord& r) {
  std::string out = StringPrintf(
      "Tq %lluh/%llur/%llum · strata %lluh/%llum · %llu tuples restored",
      static_cast<unsigned long long>(r.program_cache_hits),
      static_cast<unsigned long long>(r.program_cache_rebinds),
      static_cast<unsigned long long>(r.program_cache_misses),
      static_cast<unsigned long long>(r.stratum_memo_hits),
      static_cast<unsigned long long>(r.stratum_memo_misses),
      static_cast<unsigned long long>(r.tuples_restored));
  if (r.interning_contention > 0) {
    out += StringPrintf(
        " · %llu contended",
        static_cast<unsigned long long>(r.interning_contention));
  }
  if (r.plans_computed > 0 || r.plan_cache_hits > 0) {
    out += StringPrintf(
        " · plan %lluc/%lluh q%.2g",
        static_cast<unsigned long long>(r.plans_computed),
        static_cast<unsigned long long>(r.plan_cache_hits),
        r.plan_estimate_error);
  }
  if (r.tc_kernels_hit > 0) {
    out += StringPrintf(" · tc %uk (%ud/%us)", r.tc_kernels_hit,
                        r.tc_dense_frontiers, r.tc_sparse_frontiers);
  }
  return out;
}

}  // namespace sparqlog::workloads
