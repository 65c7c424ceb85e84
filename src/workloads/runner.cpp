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

}  // namespace sparqlog::workloads
