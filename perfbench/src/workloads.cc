#include "workloads.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace perfbench {

Served Serve(uocqa::QueryService* service, const std::string& line) {
  std::vector<std::string> lines = {line};
  Clock::time_point t0 = Clock::now();
  std::vector<uocqa::ServiceResponse> out = service->ExecuteBatchLines(lines, 1);
  double seconds = SecondsSince(t0);
  return {std::move(out[0]), seconds};
}

std::vector<double> LineTimes::Mins(const std::vector<size_t>& lines) const {
  std::vector<double> out;
  for (size_t line : lines) {
    out.push_back(*std::min_element(per_line_[line].begin(), per_line_[line].end()));
  }
  return out;
}

double LineTimes::Sum(const std::vector<size_t>& lines) const {
  double sum = 0;
  for (double m : Mins(lines)) sum += m;
  return sum;
}

std::vector<size_t> LineTimes::All() const {
  std::vector<size_t> out(per_line_.size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = i;
  return out;
}

Rounds::Rounds(const Options& opt, double round_seconds, size_t ops)
    : planned_(std::max<size_t>(1, static_cast<size_t>(std::lround(opt.seconds / round_seconds)))),
      max_seconds_(3 * opt.seconds),
      times_(ops),
      latency_(ops),
      reference_(ops),
      reference_hit_(ops) {}

bool Rounds::Next() {
  if (started_ == planned_ || (started_ > 0 && SecondsSince(start_) > max_seconds_)) return false;
  ++started_;
  return true;
}

Served Rounds::Serve(size_t r, uocqa::QueryService* service, const Line& line,
                     RunResult* result) {
  Served s = perfbench::Serve(service, line.text);
  bool ok = s.response.status.ok();
  if (ok) {
    std::map<std::string, std::string> f = PayloadFields(s.response.payload);
    for (const std::string& field : line.fields) ok = ok && !f[field].empty();
  }
  Record(r, s.seconds, ok, result);
  if (!ok) return s;
  if (round() == 0) {
    reference_[r] = s.response.payload;
    reference_hit_[r] = s.response.cache_hit;
  } else if (s.response.payload != reference_[r]) {
    result->Fail("payload changed between rounds: " + line.text);
  }
  return s;
}

void Rounds::Record(size_t r, double seconds, bool ok, RunResult* result) {
  ++result->attempted;
  if (!ok) ++result->failed;
  latency_[r] = seconds;
  times_.Add(r, seconds);
}

std::vector<Metric> Rounds::EndToEnd(double setup_s) const {
  return {{"setup_s", setup_s, "s"},
          {"requests_per_s", latency_.size() / times_.Sum(times_.All()), "req/s"}};
}

std::string QueryLine(const std::string& query, const std::string& answer,
                      const std::string& mode, const std::string& extra) {
  std::string line = "query='" + query + "' answer=" + answer + " mode=" + mode;
  if (!extra.empty()) line += " " + extra;
  return line;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(text.c_str(), &end);
  return errno == 0 && end == text.c_str() + text.size();
}

size_t BinomialMargin(size_t n, double p, double alpha) {
  double cdf = 0;
  for (size_t k = 0; k <= n; ++k) {
    double log_pmf = std::lgamma(n + 1.0) - std::lgamma(k + 1.0) - std::lgamma(n - k + 1.0) +
                     k * std::log(p) + (n - k) * std::log1p(-p);
    cdf += std::exp(log_pmf);
    if (1.0 - cdf <= alpha) return k;
  }
  return n;
}

void AddCacheStats(const uocqa::QueryService& service, LayerTotals* totals) {
  uocqa::ServiceStats stats = service.stats();
  totals->result_hits += stats.result_hits;
  totals->result_lookups += stats.result_hits + stats.result_misses;
  totals->plan_hits += stats.plan_hits;
  totals->plan_lookups += stats.plan_hits + stats.plan_misses;
}

std::vector<Metric> LayerMetrics(const Tracer& tracer, const LayerTotals& totals) {
  std::map<std::string, Tracer::Aggregate> agg = tracer.Aggregates();
  auto calls = [&](const std::string& span) -> double {
    auto it = agg.find(span);
    return it == agg.end() ? 0 : static_cast<double>(it->second.calls);
  };
  // Mean self (or total) time per call, scaled to the unit.
  auto mean = [&](const std::string& span, double scale, bool total = false) -> double {
    auto it = agg.find(span);
    if (it == agg.end() || it->second.calls == 0) return 0;
    return (total ? it->second.total_s : it->second.self_s) / it->second.calls * scale;
  };
  auto per = [&](const std::string& counter, double n) -> double {
    return n == 0 ? 0 : tracer.Counter(counter) / n;
  };
  auto ratio = [](uint64_t a, uint64_t b) -> double { return b == 0 ? 0 : double(a) / double(b); };
  const double ms = 1e3, us = 1e6;
  return {
      {"db.parse_instance_ms", mean("db.parse_instance", ms), "ms"},
      {"db.subset_us", mean("db.subset", us), "us"},
      {"db.subset_facts", per("db.subset_facts", calls("db.subset")), "count"},
      {"db.block_partition_ms", mean("db.block_partition", ms), "ms"},
      {"query.parse_us", mean("query.parse", us), "us"},
      {"query.entails_us", mean("query.entails", us), "us"},
      {"planner.compile_ms", mean("planner.compile", ms), "ms"},
      {"planner.join_order_us", mean("planner.join_order", us), "us"},
      {"hypertree.nf_facts", per("hypertree.nf_facts", calls("planner.compile")), "count"},
      {"ocqa.rep_build_ms", mean("ocqa.rep_build", ms), "ms"},
      {"ocqa.seq_build_ms", mean("ocqa.seq_build", ms), "ms"},
      {"ocqa.rep_states", per("ocqa.rep_states", calls("ocqa.rep_build")), "count"},
      {"ocqa.rep_transitions", per("ocqa.rep_transitions", calls("ocqa.rep_build")), "count"},
      {"ocqa.seq_states", per("ocqa.seq_states", calls("ocqa.seq_build")), "count"},
      {"ocqa.seq_transitions", per("ocqa.seq_transitions", calls("ocqa.seq_build")), "count"},
      {"automata.fpras_ur_ms", mean("automata.fpras_ur", ms), "ms"},
      {"automata.fpras_us_ms", mean("automata.fpras_us", ms), "ms"},
      {"automata.union_trials",
       per("automata.union_trials", calls("automata.fpras_ur") + calls("automata.fpras_us")),
       "count"},
      {"repairs.denominators_ms", mean("repairs.denominators", ms), "ms"},
      {"repairs.relation_denominators_ms", mean("repairs.relation_denominators", ms), "ms"},
      {"repairs.crs_digits", tracer.Counter("repairs.crs_digits"), "count"},
      {"repairs.sampler_setup_ms", mean("repairs.sampler_setup", ms), "ms"},
      {"repairs.sample_ur_us", mean("repairs.sample_ur", us), "us"},
      {"repairs.sample_us_us", mean("repairs.sample_us", us), "us"},
      {"repairs.enumerate_ms", mean("repairs.enumerate", ms), "ms"},
      {"repairs.repairs_enumerated",
       per("repairs.repairs_enumerated", tracer.Counter("repairs.exact_requests")), "count"},
      {"service.execute_self_us", Median(totals.service_self_s) * us, "us"},
      {"service.result_cache_hit_ratio", ratio(totals.result_hits, totals.result_lookups),
       "ratio"},
      {"service.plan_cache_hit_ratio", ratio(totals.plan_hits, totals.plan_lookups), "ratio"},
      // LiveInstance::Add with its WAL append, and the whole publish with
      // its barrier append and sync: totals, as a client sees them.
      {"live.add_us", mean("live.add", us, true), "us"},
      {"live.snapshot_ms", mean("live.snapshot", ms, true), "ms"},
      {"wal.append_us", mean("wal.append", us), "us"},
      {"wal.sync_ms", mean("wal.sync", ms), "ms"},
      {"wal.scan_ms", mean("wal.scan", ms), "ms"},
      {"wal.replay_ms", mean("wal.replay", ms), "ms"},
      {"wal.records", tracer.Counter("wal.records"), "count"},
      {"wal.bytes", tracer.Counter("wal.bytes"), "B"},
      {"trace.overhead_pct",
       totals.untraced_s == 0 ? 0 : (totals.traced_s / totals.untraced_s - 1) * 100, "%"},
  };
}

}  // namespace perfbench
