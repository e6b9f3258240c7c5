// The three workloads. Each runs in one process with one closed-loop
// client: the next protocol line is sent only after the previous one has
// returned, and every call runs at one lane. A run serves a fixed number of
// whole rounds of the same operations; every round starts from a fresh
// service, so each round does identical work.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "service/request.h"
#include "service/service.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the temporary WAL and the written spans.
  std::string work_dir;
};

RunResult RunFpras(const Options& options);
RunResult RunExactMc(const Options& options);
RunResult RunLive(const Options& options);

/// One protocol line served through the program, with its latency.
struct Served {
  uocqa::ServiceResponse response;
  double seconds = 0;
};
Served Serve(uocqa::QueryService* service, const std::string& line);

/// Latencies of a round's operations, kept per operation across rounds.
/// Rounds repeat the same work, and load from other tenants of a shared
/// host only ever slows an operation down, so each operation's fastest
/// round is the steadiest estimate of its cost; the metrics are taken from
/// these minima.
class LineTimes {
 public:
  explicit LineTimes(size_t lines) : per_line_(lines) {}
  void Add(size_t line, double seconds) { per_line_[line].push_back(seconds); }
  /// Each listed operation's minimum over rounds.
  std::vector<double> Mins(const std::vector<size_t>& lines) const;
  /// Summed minimum of the listed operations, in seconds.
  double Sum(const std::vector<size_t>& lines) const;
  /// All operation indices.
  std::vector<size_t> All() const;

 private:
  std::vector<std::vector<double>> per_line_;
};

/// One protocol line of a round and the payload fields its response must
/// carry; a response without them counts as failed.
struct Line {
  std::string text;
  std::vector<std::string> fields;
};

/// The untraced serving loop every workload shares. A run serves whole
/// rounds of the same operations, each round from a fresh service, so
/// `failed` is the same share of `attempted` in every run. The number of
/// rounds is fixed by --seconds and the workload's nominal round length,
/// not by the clock, so a faster or slower program is measured over as many
/// rounds as the parent was. Round 0's payloads are the reference that every
/// later round must repeat byte for byte.
class Rounds {
 public:
  /// `ops` timed operations per round. `round_seconds` is the workload's
  /// nominal round length: the run serves --seconds / round_seconds rounds,
  /// at least one.
  Rounds(const Options& opt, double round_seconds, size_t ops);
  /// Starts the next round. False once the planned rounds are done, or once
  /// a much slower program has run for three times --seconds, so that a run
  /// still ends in bounded time.
  bool Next();
  /// The current round, from 0.
  size_t round() const { return started_ - 1; }
  size_t rounds() const { return started_; }

  /// Serves operation r of this round through `service`. Records its
  /// latency and counts it as attempted, and as failed when its status is
  /// not OK or one of `line.fields` is missing from its payload.
  Served Serve(size_t r, uocqa::QueryService* service, const Line& line, RunResult* result);
  /// Records operation r of this round that is not a protocol line.
  void Record(size_t r, double seconds, bool ok, RunResult* result);

  /// This round's latency of operation r.
  double latency(size_t r) const { return latency_[r]; }
  const std::string& reference(size_t r) const { return reference_[r]; }
  bool reference_hit(size_t r) const { return reference_hit_[r]; }
  const LineTimes& times() const { return times_; }
  /// setup_s, and requests_per_s: operations per second of serving time,
  /// which is the sum of every operation's fastest round.
  std::vector<Metric> EndToEnd(double setup_s) const;

 private:
  size_t planned_;
  double max_seconds_;
  Clock::time_point start_ = Clock::now();
  size_t started_ = 0;
  LineTimes times_;
  std::vector<double> latency_;
  std::vector<std::string> reference_;
  std::vector<char> reference_hit_;
};

/// The protocol line of a query request.
std::string QueryLine(const std::string& query, const std::string& answer,
                      const std::string& mode, const std::string& extra);

/// Parses a double printed by the service (%.17g round-trips exactly).
bool ParseDouble(const std::string& text, double* out);

/// Smallest k with P(Binomial(n, p) > k) <= alpha: the number of misses of
/// a (1 - p)-reliable estimator that would raise a false alarm at rate at
/// most alpha.
size_t BinomialMargin(size_t n, double p, double alpha);

/// Per-layer figures shared by all workloads, read from the tracer. Every
/// per-layer metric is printed on every workload; a layer a workload does
/// not reach reads 0.
struct LayerTotals {
  double untraced_s = 0;  // summed service latency of the replayed lines
  double traced_s = 0;    // summed root spans of the decomposed replay
  /// Per light line (layer time under 1 ms): its service latency minus its
  /// traced layer time. On a heavy line that difference of two timings of
  /// the same work is noise.
  std::vector<double> service_self_s;
  /// Records one replayed line: its untraced service latency and the time
  /// its decomposed layer calls took.
  void AddLine(double service_s, double layer_s) {
    untraced_s += service_s;
    if (layer_s < 1e-3) service_self_s.push_back(service_s - layer_s);
  }
  uint64_t result_hits = 0, result_lookups = 0;
  uint64_t plan_hits = 0, plan_lookups = 0;
};
std::vector<Metric> LayerMetrics(const Tracer& tracer, const LayerTotals& totals);

/// Adds the service's cache counters to `totals`.
void AddCacheStats(const uocqa::QueryService& service, LayerTotals* totals);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
