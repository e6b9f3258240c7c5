// exact_mc: one static service over an instance of several hundred
// consistent facts, five conflicting blocks and two bystander relations;
// mode=exact and mode=mc requests interleave.
#include <cmath>
#include <memory>

#include "db/textio.h"
#include "gen.h"
#include "oracle.h"
#include "replay.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Nominal length of one round on the reference host (README).
constexpr double kRoundSeconds = 5.0;
constexpr size_t kSamples = 250;
// Per-estimate false-alarm rate of the Hoeffding check.
constexpr double kAlarmRate = 1e-9;

struct ExactMcRequest {
  size_t query;
  size_t answer;
  bool mc;
  Line line;
};

}  // namespace

RunResult RunExactMc(const Options& opt) {
  RunResult result;
  ExactMcCase c = MakeExactMcCase(opt.seed);
  std::string text = c.instance.Text();

  // Per (query, answer): one exact request, then mc at two seeds.
  std::vector<ExactMcRequest> requests;
  for (size_t a = 0; a < c.answers.size(); ++a) {
    for (size_t q = 0; q < c.queries.size(); ++q) {
      std::string query = c.queries[q].Text();
      requests.push_back(
          {q, a, false, {QueryLine(query, c.answers[a], "exact", ""), {"exact_ur", "exact_us"}}});
      for (size_t k = 0; k < 2; ++k) {
        std::string extra = "samples=" + std::to_string(kSamples) +
                            " seed=" + std::to_string(RequestSeed(a * 100 + q * 10 + k));
        requests.push_back(
            {q, a, true, {QueryLine(query, c.answers[a], "mc", extra), {"mc_ur", "mc_us"}}});
      }
    }
  }

  // Set-up: parse the instance text and construct the service.
  Clock::time_point setup_start = Clock::now();
  uocqa::Result<uocqa::ParsedInstance> p = uocqa::ParseInstanceText(text);
  if (!p.ok()) {
    result.Fail("instance text rejected: " + p.status().ToString());
    return result;
  }
  uocqa::ParsedInstance parsed = std::move(p).value();
  auto service = std::make_unique<uocqa::QueryService>(parsed.db, parsed.keys);
  double setup_s = SecondsSince(setup_start);

  std::vector<size_t> exact_lines, mc_lines;
  for (size_t r = 0; r < requests.size(); ++r) {
    (requests[r].mc ? mc_lines : exact_lines).push_back(r);
  }
  Rounds rounds(opt, kRoundSeconds, requests.size());
  Tracer tracer;
  LayerTotals totals;
  while (rounds.Next()) {
    if (rounds.round() > 0) service = std::make_unique<uocqa::QueryService>(parsed.db, parsed.keys);
    for (size_t r = 0; r < requests.size(); ++r) {
      rounds.Serve(r, service.get(), requests[r].line, &result);
    }
    if (!opt.trace) continue;

    // Traced replay of the round through the decomposed public calls.
    AddCacheStats(*service, &totals);
    std::unique_ptr<uocqa::ParsedInstance> db;
    {
      Tracer::Scope span(&tracer, "db.parse_instance");
      db = std::make_unique<uocqa::ParsedInstance>(uocqa::ParseInstanceText(text).value());
    }
    for (size_t r = 0; r < requests.size(); ++r) {
      const ExactMcRequest& req = requests[r];
      tracer.SetRequest(static_cast<uint32_t>(r));
      Clock::time_point t0 = Clock::now();
      double layer_s = 0;
      {
        Tracer::Scope root(&tracer, "request");
        uocqa::Request rq = uocqa::ParseRequestLine(req.line.text).value();
        bool ok = false;
        uocqa::ConjunctiveQuery q = TracedParseQuery(&tracer, rq.query_text, db->db, &ok);
        std::vector<uocqa::Value> answer = AnswerValues(rq.answer_text);
        std::map<std::string, std::string> f = PayloadFields(rounds.reference(r));
        bool same = ok;
        if (ok && req.mc) {
          for (bool sequences : {false, true}) {
            double got = TracedMonteCarlo(&tracer, db->db, db->keys, q, answer, rq.samples,
                                          rq.seed, sequences);
            double want = -1;
            ParseDouble(f[sequences ? "mc_us" : "mc_ur"], &want);
            same = same && got == want;
          }
        } else if (ok) {
          tracer.Count("repairs.exact_requests", 1);
          for (bool sequences : {false, true}) {
            same = same && TracedExact(&tracer, db->db, db->keys, q, answer, sequences) ==
                               f[sequences ? "exact_us" : "exact_ur"];
          }
        }
        if (!same) result.Fail("decomposed calls differ from the service: " + req.line.text);
        layer_s = root.ChildSeconds();
      }
      totals.traced_s += SecondsSince(t0);
      totals.AddLine(rounds.latency(r), layer_s);
    }
  }

  // Memory of serving only: read before the checks below allocate.
  double peak_rss_mb = PeakRssMb();

  // Check the first round's payloads (later rounds repeated them byte for
  // byte) against the oracle.
  std::map<std::pair<size_t, size_t>, OracleCounts> oracle;
  double hoeffding = std::sqrt(std::log(2 / kAlarmRate) / (2.0 * kSamples));
  for (size_t r = 0; r < requests.size(); ++r) {
    const ExactMcRequest& req = requests[r];
    const std::string& payload = rounds.reference(r);
    if (payload.empty()) continue;
    auto key = std::make_pair(req.query, req.answer);
    if (!oracle.count(key)) {
      oracle[key] = OracleCount(c.instance, c.queries[req.query], {c.answers[req.answer]});
    }
    const OracleCounts& o = oracle[key];
    std::map<std::string, std::string> f = PayloadFields(payload);
    if (req.mc) {
      double ur = -1, us = -1;
      if (!ParseDouble(f["mc_ur"], &ur) || !ParseDouble(f["mc_us"], &us) || ur < 0 || ur > 1 || us < 0 || us > 1 || std::fabs(ur - o.rf_ur()) > hoeffding ||
          std::fabs(us - o.rf_us()) > hoeffding) {
        result.Fail("mc estimate outside the Hoeffding bound " + std::to_string(hoeffding) +
                    " of the oracle: " + payload);
      }
      continue;
    }
    std::string want_ur = U128ToString(o.repairs_entailing) + "/" + U128ToString(o.repairs);
    std::string want_us =
        U128ToString(o.sequences_entailing) + "/" + U128ToString(o.sequences);
    if (f["exact_ur"] != want_ur || f["exact_us"] != want_us) {
      result.Fail("exact counts differ from the oracle (" + want_ur + ", " + want_us +
                  "): " + payload);
    }
    // The payload's own numerators: zero together, and never above their
    // denominators.
    auto numerator_of = [](const std::string& ratio) { return ratio.substr(0, ratio.find('/')); };
    auto at_most_one = [&](const std::string& ratio) {
      std::string n = numerator_of(ratio), d = ratio.substr(ratio.find('/') + 1);
      return n.size() < d.size() || (n.size() == d.size() && n <= d);
    };
    if ((numerator_of(f["exact_ur"]) == "0") != (numerator_of(f["exact_us"]) == "0") ||
        !at_most_one(f["exact_ur"]) || !at_most_one(f["exact_us"])) {
      result.Fail("RF_ur and RF_us numerators not zero together or outside [0,1]: " + payload);
    }
  }

  if (opt.trace) {
    result.metrics = LayerMetrics(tracer, totals);
    tracer.Write(opt.work_dir + "/spans-exact_mc.tsv");
  } else {
    result.metrics = rounds.EndToEnd(setup_s);
  }
  const LineTimes& times = rounds.times();
  result.info = {{"rounds", static_cast<double>(rounds.rounds()), "count"},
                 {"peak_rss_mb", peak_rss_mb, "MB"},
                 {"facts", static_cast<double>(parsed.db.size()), "count"},
                 {"exact_p50_ms", Median(times.Mins(exact_lines)) * 1e3, "ms"},
                 {"mc_p50_ms", Median(times.Mins(mc_lines)) * 1e3, "ms"},
                 {"request_mean_ms", Mean(times.Mins(times.All())) * 1e3, "ms"}};
  return result;
}

}  // namespace perfbench
