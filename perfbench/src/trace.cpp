#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The calling thread's open spans, innermost last.
thread_local std::vector<std::pair<const Tracer*, int64_t>> t_open;

}  // namespace

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->Close(index_);
}

Tracer::Scope Tracer::Open(const char* name, uint64_t request) {
  if (!enabled_) return Scope(nullptr, -1);
  int64_t parent = -1;
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
    if (it->first == this) {
      parent = it->second;
      break;
    }
  }
  int64_t index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int64_t>(spans_.size());
    spans_.push_back(Span{name, 0, 0, parent, request});
  }
  t_open.emplace_back(this, index);
  const int64_t start = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].start_ns = start;
  return Scope(this, index);
}

void Tracer::Close(int64_t index) {
  const int64_t end = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[index].end_ns = end;
  }
  if (!t_open.empty() && t_open.back().first == this &&
      t_open.back().second == index) {
    t_open.pop_back();
  }
}

std::map<std::pair<std::string, uint64_t>, double>
Tracer::SelfSecondsByRequest() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::pair<std::string, uint64_t>, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the child intervals, clipped to this span.
    int64_t covered = 0, cur_start = 0, cur_end = -1;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (b <= a) continue;
      if (a > cur_end) {
        if (cur_end > cur_start) covered += cur_end - cur_start;
        cur_start = a;
        cur_end = b;
      } else {
        cur_end = std::max(cur_end, b);
      }
    }
    if (cur_end > cur_start) covered += cur_end - cur_start;
    out[{s.name, s.request}] += double(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return out;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::map<std::string, double> out;
  for (const auto& [key, seconds] : SelfSecondsByRequest()) {
    out[key.first] += seconds;
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"request\":%llu}%s\n",
                 i, s.name, static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
