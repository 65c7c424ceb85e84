#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

/// \file trace.h
/// In-memory span recorder for the benchmark's traced run. A span is
/// opened around one call into a layer's public function; it records the
/// layer name, start, end, the enclosing span and the request id. Spans
/// stay in memory and are written out once, when the run ends. A disabled
/// tracer records nothing, so the same code path serves the untraced
/// comparison passes.

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;  ///< index of the enclosing span, -1 for a root
    uint64_t request;
  };

  /// RAII span: opened by Tracer::Open, closed when it goes out of scope.
  /// Parents are tracked per thread, so spans opened by concurrent client
  /// threads nest correctly.
  class Scope {
   public:
    Scope(Scope&& other) noexcept : tracer_(other.tracer_), index_(other.index_) {
      other.tracer_ = nullptr;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope& operator=(Scope&&) = delete;
    ~Scope();

   private:
    friend class Tracer;
    Scope(Tracer* tracer, int64_t index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_;
    int64_t index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span named `name` (a string literal) for request `request`,
  /// nested in the calling thread's innermost open span.
  Scope Open(const char* name, uint64_t request);

  /// Sum over spans of (duration - union of child-span intervals), in
  /// seconds, per span name.
  std::map<std::string, double> SelfSeconds() const;
  /// The same per (span name, request id).
  std::map<std::pair<std::string, uint64_t>, double> SelfSecondsByRequest()
      const;

  /// Writes every span as one JSON array (ns timestamps relative to the
  /// first span). Returns false if the file cannot be written.
  bool WriteJson(const std::string& path) const;

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  void Close(int64_t index);

  bool enabled_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

}  // namespace perfbench
