// In-memory span recorder for the traced run.
//
// Spans are recorded in the benchmark's own code, around calls into the
// library's public entry points; nothing inside the library is
// instrumented. Each span has a name, a request id shared by all spans of
// one request, a start, an end and the span that caused it. The log is kept
// in memory and written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  std::string name;
  std::uint64_t request = 0;
  int parent = -1;    // index of the causing span, -1 for a root
  double start = 0;   // seconds since the log's epoch
  double end = -1;    // < start while open
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  int open(std::string name, std::uint64_t request, int parent = -1);
  void close(int id);

  /// Closed span durations of every span called `name`.
  std::vector<double> durations(const std::string& name) const;
  double total(const std::string& name) const;
  double duration(int id) const;

  /// Duration minus the part of its interval covered by its child spans.
  double self_time(int id) const;

  /// {"spans": [...]} with one object per span.
  void write_json(std::ostream& out) const;

  /// RAII span; `log` may be null (tracing off), making the scope free.
  class Scope {
   public:
    Scope(SpanLog* log, std::string name, std::uint64_t request, int parent = -1)
        : log_(log), id_(log ? log->open(std::move(name), request, parent) : -1) {}
    ~Scope() {
      if (log_) log_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    SpanLog* log_;
    int id_;
  };

 private:
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

}  // namespace perfbench
