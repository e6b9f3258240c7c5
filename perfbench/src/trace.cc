#include "trace.h"

#include <cstdio>

namespace perfbench {

int64_t Tracer::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  int64_t parent = tracer->open_.empty() ? -1 : static_cast<int64_t>(tracer->open_.back());
  index_ = tracer->spans_.size();
  tracer->spans_.push_back({name, tracer->Now(), 0, 0, parent, tracer->request_});
  tracer->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  Span& span = tracer_->spans_[index_];
  span.end_ns = tracer_->Now();
  // Children run one after another inside their parent, so the time they
  // cover is the sum of their durations.
  if (span.parent >= 0) tracer_->spans_[span.parent].child_ns += span.end_ns - span.start_ns;
  tracer_->open_.pop_back();
}

double Tracer::Scope::ChildSeconds() const { return tracer_->spans_[index_].child_ns * 1e-9; }

double Tracer::Counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::map<std::string, Tracer::Aggregate> Tracer::Aggregates() const {
  std::map<std::string, Aggregate> out;
  for (const Span& s : spans_) {
    Aggregate& a = out[s.name];
    a.total_s += (s.end_ns - s.start_ns) * 1e-9;
    a.self_s += (s.end_ns - s.start_ns - s.child_ns) * 1e-9;
    ++a.calls;
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "span\tname\tstart_ns\tend_ns\tparent\trequest\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%lld\t%u\n", i, s.name,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent), s.request);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
