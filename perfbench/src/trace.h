// Spans for the traced run, recorded around the benchmark's own calls into
// the library's public functions. Each span has a name, start, end, parent
// span and request id; spans stay in memory and are written out when the
// run ends. A layer's self time is its span minus the time its child spans
// cover.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class Tracer {
 public:
  /// Opens a span as a child of the innermost open one; closes on scope
  /// exit.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Time covered so far by this span's closed children, in seconds.
    double ChildSeconds() const;

   private:
    Tracer* tracer_;
    size_t index_;
  };

  void SetRequest(uint32_t request) { request_ = request; }
  /// Adds `v` to the named counter.
  void Count(const std::string& name, double v) { counters_[name] += v; }
  /// Raises the named counter to `v` if it is lower.
  void SetMax(const std::string& name, double v) {
    double& c = counters_[name];
    if (v > c) c = v;
  }
  double Counter(const std::string& name) const;

  struct Aggregate {
    double self_s = 0;
    double total_s = 0;
    uint64_t calls = 0;
  };
  /// Per span name: summed self and total time and the call count.
  std::map<std::string, Aggregate> Aggregates() const;

  /// Writes every span as a tab-separated line.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t child_ns;  // summed duration of closed direct children
    int64_t parent;    // index into spans_, -1 for a root
    uint32_t request;
  };
  int64_t Now() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<size_t> open_;
  uint32_t request_ = 0;
  std::map<std::string, double> counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
