// fpras: static services over three small inconsistent instances (chain,
// star, triangle), asked mode=fpras for candidate answers at several seeds,
// with a share of verbatim repeats.
#include <cmath>
#include <memory>
#include <set>

#include "db/textio.h"
#include "query/parser.h"
#include "gen.h"
#include "oracle.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Nominal length of one round on the reference host (README).
constexpr double kRoundSeconds = 1.3;
constexpr double kEpsilon = 0.2;
constexpr double kDelta = 0.1;
// False-alarm rate of the accuracy check over one run's requests.
constexpr double kAlarmRate = 1e-6;

struct FprasRequest {
  size_t instance;
  size_t answer;
  Line line;
  bool repeat;
};

}  // namespace

RunResult RunFpras(const Options& opt) {
  RunResult result;
  std::vector<FprasCase> cases = MakeFprasCases(opt.seed);
  std::vector<std::string> texts;
  for (const FprasCase& c : cases) texts.push_back(c.instance.Text());

  // Per instance: the witness answer at three seeds, the RF = 0 answer
  // once, and one verbatim repeat; the instances' requests interleave.
  std::vector<std::vector<FprasRequest>> per_instance(cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    const FprasCase& c = cases[i];
    size_t zero = c.answers.size() - 1;
    std::vector<std::pair<size_t, size_t>> asks;  // (answer, seed index)
    for (size_t k = 0; k < 3; ++k) {
      for (size_t a = 0; a < zero; ++a) asks.push_back({a, k});
    }
    asks.push_back({zero, 0});
    asks.push_back({0, 0});
    for (size_t pos = 0; pos < asks.size(); ++pos) {
      auto [answer, k] = asks[pos];
      std::string extra = "epsilon=" + std::to_string(kEpsilon) +
                          " delta=" + std::to_string(kDelta) +
                          " seed=" + std::to_string(RequestSeed(i * 100 + answer * 10 + k));
      per_instance[i].push_back(
          {i, answer,
           {QueryLine(c.query.Text(), c.answers[answer], "fpras", extra), {"fpras_ur", "fpras_us"}},
           pos + 1 == asks.size()});
    }
  }
  std::vector<FprasRequest> requests;
  for (size_t pos = 0; pos < per_instance[0].size(); ++pos) {
    for (const auto& list : per_instance) requests.push_back(list[pos]);
  }

  // Set-up: parse the instance texts and construct one service per instance.
  Clock::time_point setup_start = Clock::now();
  std::vector<std::unique_ptr<uocqa::ParsedInstance>> parsed;
  std::vector<std::unique_ptr<uocqa::QueryService>> services;
  for (const std::string& text : texts) {
    uocqa::Result<uocqa::ParsedInstance> p = uocqa::ParseInstanceText(text);
    if (!p.ok()) {
      result.Fail("instance text rejected: " + p.status().ToString());
      return result;
    }
    parsed.push_back(std::make_unique<uocqa::ParsedInstance>(std::move(p).value()));
    services.push_back(std::make_unique<uocqa::QueryService>(parsed.back()->db, parsed.back()->keys));
  }
  double setup_s = SecondsSince(setup_start);

  Rounds rounds(opt, kRoundSeconds, requests.size());
  Tracer tracer;
  LayerTotals totals;
  while (rounds.Next()) {
    if (rounds.round() > 0) {
      for (size_t i = 0; i < services.size(); ++i) {
        services[i] = std::make_unique<uocqa::QueryService>(parsed[i]->db, parsed[i]->keys);
      }
    }
    for (size_t r = 0; r < requests.size(); ++r) {
      const FprasRequest& req = requests[r];
      Served s = rounds.Serve(r, services[req.instance].get(), req.line, &result);
      if (req.repeat && s.response.status.ok() && !s.response.cache_hit) {
        result.Fail("verbatim repeat missed the result cache: " + req.line.text);
      }
    }
    if (!opt.trace) continue;

    // Traced replay of the round through the decomposed public calls.
    for (const auto& service : services) AddCacheStats(*service, &totals);
    std::vector<std::unique_ptr<uocqa::ParsedInstance>> dbs;
    std::vector<std::unique_ptr<TracedFpras>> engines;
    for (const std::string& text : texts) {
      Tracer::Scope span(&tracer, "db.parse_instance");
      dbs.push_back(std::make_unique<uocqa::ParsedInstance>(uocqa::ParseInstanceText(text).value()));
      engines.push_back(std::make_unique<TracedFpras>(&tracer, dbs.back()->db, dbs.back()->keys));
    }
    std::set<std::pair<size_t, std::string>> answered;
    for (size_t r = 0; r < requests.size(); ++r) {
      const FprasRequest& req = requests[r];
      tracer.SetRequest(static_cast<uint32_t>(r));
      Clock::time_point t0 = Clock::now();
      double layer_s = 0;
      {
        Tracer::Scope root(&tracer, "request");
        // A verbatim repeat is a result-cache hit: no layer is called.
        if (answered.insert({req.instance, req.line.text}).second) {
          uocqa::Request rq = uocqa::ParseRequestLine(req.line.text).value();
          bool ok = false;
          uocqa::ConjunctiveQuery q =
              TracedParseQuery(&tracer, rq.query_text, dbs[req.instance]->db, &ok);
          uocqa::FprasConfig config;
          config.epsilon = rq.epsilon;
          config.delta = rq.delta;
          config.seed = rq.seed;
          config.seed_schema = rq.seed_schema;
          config.threads = 1;
          double ur = 0, us = 0;
          std::map<std::string, std::string> f = PayloadFields(rounds.reference(r));
          double want_ur = -1, want_us = -1;
          ParseDouble(f["fpras_ur"], &want_ur);
          ParseDouble(f["fpras_us"], &want_us);
          if (!ok || !engines[req.instance]->Estimate(q, AnswerValues(rq.answer_text), config, &ur, &us) ||
              ur != want_ur || us != want_us) {
            result.Fail("decomposed FPRAS differs from the service: " + req.line.text);
          }
        }
        layer_s = root.ChildSeconds();
      }
      totals.traced_s += SecondsSince(t0);
      totals.AddLine(rounds.latency(r), layer_s);
    }
  }

  // Memory of serving only: read before the checks below allocate.
  double peak_rss_mb = PeakRssMb();

  // Accuracy against the oracle, on the first round's payloads (every
  // later round repeated them byte for byte).
  std::map<std::pair<size_t, size_t>, OracleCounts> oracle;
  size_t trials = 0, misses = 0;
  for (size_t r = 0; r < requests.size(); ++r) {
    const FprasRequest& req = requests[r];
    const std::string& payload = rounds.reference(r);
    if (req.repeat || payload.empty()) continue;
    const FprasCase& c = cases[req.instance];
    auto key = std::make_pair(req.instance, req.answer);
    if (!oracle.count(key)) {
      oracle[key] = OracleCount(c.instance, c.query, {c.answers[req.answer]});
      // Second path: the program's exact count through its own automata.
      const uocqa::ParsedInstance& p = *parsed[req.instance];
      uocqa::OcqaEngine engine(p.db, p.keys);
      uocqa::ConjunctiveQuery q = uocqa::ParseQuery(c.query.Text(), p.db.schema()).value();
      std::vector<uocqa::Value> answer = AnswerValues(c.answers[req.answer]);
      uocqa::Result<uocqa::BigInt> reps = engine.RepairsEntailingViaAutomaton(q, answer);
      uocqa::Result<uocqa::BigInt> seqs = engine.SequencesEntailingViaAutomaton(q, answer);
      if (!reps.ok() || !seqs.ok() ||
          reps->ToString() != U128ToString(oracle[key].repairs_entailing) ||
          seqs->ToString() != U128ToString(oracle[key].sequences_entailing)) {
        result.Fail("automaton exact counts differ from the oracle: " + req.line.text);
      }
    }
    const OracleCounts& o = oracle[key];
    std::map<std::string, std::string> f = PayloadFields(payload);
    double ur = -1, us = -1;
    if (!ParseDouble(f["fpras_ur"], &ur) || !ParseDouble(f["fpras_us"], &us) ||
        (ur == 0) != (us == 0) || ur < 0 || ur > 1 || us < 0 || us > 1) {
      result.Fail("fpras_ur/fpras_us malformed, not zero together or outside [0,1]: " + payload);
    }
    for (auto [est, rf] : {std::make_pair(ur, o.rf_ur()), std::make_pair(us, o.rf_us())}) {
      if (rf == 0) {
        if (est != 0) result.Fail("nonzero FPRAS estimate of RF = 0: " + req.line.text);
        continue;
      }
      ++trials;
      if (std::fabs(est - rf) > kEpsilon * rf) ++misses;
    }
  }
  size_t allowed = BinomialMargin(trials, kDelta, kAlarmRate);
  if (misses > allowed) {
    result.Fail("FPRAS missed epsilon on " + std::to_string(misses) + " of " +
                std::to_string(trials) + " estimates (allowed " + std::to_string(allowed) + ")");
  }

  if (opt.trace) {
    result.metrics = LayerMetrics(tracer, totals);
    tracer.Write(opt.work_dir + "/spans-fpras.tsv");
  } else {
    result.metrics = rounds.EndToEnd(setup_s);
  }
  const LineTimes& times = rounds.times();
  result.info = {{"rounds", static_cast<double>(rounds.rounds()), "count"},
                 {"peak_rss_mb", peak_rss_mb, "MB"},
                 {"fpras_p50_ms", Median(times.Mins(times.All())) * 1e3, "ms"},
                 {"request_mean_ms", Mean(times.Mins(times.All())) * 1e3, "ms"},
                 {"fpras_estimates_checked", static_cast<double>(trials), "count"},
                 {"fpras_estimates_outside_epsilon", static_cast<double>(misses), "count"}};
  return result;
}

}  // namespace perfbench
