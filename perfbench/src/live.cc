// live: a live service with a write-ahead log at policy `batch`, fed a
// stream of add_fact lines, begin_snapshot every 100 facts and mc probes
// after each snapshot; each round ends with a restart that recovers a fresh
// LiveInstance from the log.
#include <cmath>
#include <filesystem>
#include <memory>
#include <unistd.h>

#include "db/blocks.h"
#include "db/textio.h"
#include "gen.h"
#include "replay.h"
#include "repairs/counting.h"
#include "repairs/denominators.h"
#include "service/canonical.h"
#include "service/live.h"
#include "service/wal.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Nominal length of one round on the reference host (README).
constexpr double kRoundSeconds = 3.0;
constexpr size_t kSamples = 64;

enum class OpKind { kAdd, kSnapshot, kProbe };

struct LiveOp {
  OpKind kind;
  size_t delta;          // the delta this op belongs to (or follows)
  const GenFact* fact;   // kAdd only
  Line line;
};

/// Removes a directory tree when it goes out of scope.
struct TempDir {
  std::string path;
  explicit TempDir(std::string p) : path(std::move(p)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

/// A live instance over a fresh parse of the base, as one restartable unit.
struct LiveStack {
  std::unique_ptr<uocqa::LiveInstance> live;
  std::unique_ptr<uocqa::QueryService> service;
};

std::unique_ptr<uocqa::LiveInstance> LoadBase(const std::string& base_text) {
  uocqa::ParsedInstance p = uocqa::ParseInstanceText(base_text).value();
  return std::make_unique<uocqa::LiveInstance>(std::move(p.db), std::move(p.keys));
}

std::string InstanceUpTo(const LiveCase& c, size_t deltas) {
  std::string text = c.base.Text();
  for (size_t d = 0; d < deltas; ++d) {
    for (const GenFact& f : c.deltas[d]) text += GenInstance::FactText(f) + "\n";
  }
  return text;
}

}  // namespace

RunResult RunLive(const Options& opt) {
  RunResult result;
  LiveCase c = MakeLiveCase(opt.seed);
  std::string base_text = c.base.Text();
  size_t ingested = 0;
  std::vector<LiveOp> ops;
  for (size_t d = 0; d < c.deltas.size(); ++d) {
    for (const GenFact& f : c.deltas[d]) {
      std::string args;
      for (const std::string& a : f.args) args += (args.empty() ? "" : ",") + a;
      ops.push_back({OpKind::kAdd, d, &f, {"add_fact rel=" + f.rel + " args='" + args + "'", {}}});
      ++ingested;
    }
    ops.push_back({OpKind::kSnapshot, d, nullptr, {"begin_snapshot", {}}});
    for (size_t i = 0; i < c.probe_answers.size(); ++i) {
      std::string extra = "samples=" + std::to_string(kSamples) +
                          " seed=" + std::to_string(RequestSeed(i));
      ops.push_back({OpKind::kProbe, d, nullptr,
                     {QueryLine(c.probe_query.Text(), c.probe_answers[i], "mc", extra),
                      {"mc_ur", "mc_us"}}});
    }
  }
  std::string dir_prefix = opt.work_dir + "/live-" + std::to_string(getpid()) + "-";

  // Set-up: parse the base, build the LiveInstance, open its fresh WAL and
  // construct the service. Returns the seconds the WAL open took: its
  // header sync waits on the disk, about 0.5 ms on a quiet host and up to
  // 20 ms on a busy one, so setup_s leaves it out and prints it apart.
  auto open_stack = [&](const std::string& wal_path, LiveStack* stack) {
    stack->live = LoadBase(base_text);
    Clock::time_point wal_start = Clock::now();
    uocqa::Result<uocqa::WalRecoveryInfo> info = uocqa::RecoverAndAttachWal(
        wal_path, uocqa::WalSyncPolicy::kBatch, stack->live.get(), nullptr);
    double wal_open_s = SecondsSince(wal_start);
    if (!info.ok()) throw std::runtime_error("WAL open failed: " + info.status().ToString());
    stack->service = std::make_unique<uocqa::QueryService>(*stack->live);
    return wal_open_s;
  };
  std::unique_ptr<TempDir> dir = std::make_unique<TempDir>(dir_prefix + "0");
  LiveStack stack;
  Clock::time_point setup_start = Clock::now();
  double wal_open_s = open_stack(dir->path + "/wal.log", &stack);
  double setup_s = SecondsSince(setup_start) - wal_open_s;

  std::shared_ptr<const uocqa::InstanceSnapshot> checked_state;  // round 0's end
  uocqa::KeySet checked_keys;
  std::vector<size_t> probe_lines, snapshot_lines, ingest_lines;
  for (size_t r = 0; r < ops.size(); ++r) {
    if (ops[r].kind == OpKind::kProbe) {
      probe_lines.push_back(r);
    } else {
      ingest_lines.push_back(r);
      if (ops[r].kind == OpKind::kSnapshot) snapshot_lines.push_back(r);
    }
  }
  std::vector<double> recoveries;
  double wal_bytes = 0;
  // Operation ops.size() of a round is the closing restart.
  Rounds rounds(opt, kRoundSeconds, ops.size() + 1);
  Tracer tracer;
  LayerTotals totals;
  while (rounds.Next()) {
    if (rounds.round() > 0) {
      dir = std::make_unique<TempDir>(dir_prefix + std::to_string(rounds.round()));
      open_stack(dir->path + "/wal.log", &stack);
    }
    std::string wal_path = dir->path + "/wal.log";
    for (size_t r = 0; r < ops.size(); ++r) {
      const LiveOp& op = ops[r];
      Served s = rounds.Serve(r, stack.service.get(), op.line, &result);
      if (op.kind != OpKind::kProbe || !s.response.status.ok()) continue;
      std::map<std::string, std::string> f = PayloadFields(s.response.payload);
      double ur = -1, us = -1;
      if (!ParseDouble(f["mc_ur"], &ur) || !ParseDouble(f["mc_us"], &us) || ur < 0 || ur > 1 ||
          us < 0 || us > 1) {
        result.Fail("probe payload malformed or outside [0,1]: " + s.response.payload);
      }
      // A probe survives a delta that left its footprint and the conflict
      // structure untouched, and only such a delta.
      if (s.response.cache_hit == c.delta_conflicts[op.delta]) {
        result.Fail(std::string("probe after a ") +
                    (c.delta_conflicts[op.delta] ? "conflicting delta hit" : "bystander delta missed") +
                    " the result cache: " + op.line.text);
      }
    }

    // Restart: drop the instance, recover a fresh one from the log.
    std::shared_ptr<const uocqa::InstanceSnapshot> final_state = stack.live->Current();
    if (rounds.round() == 0) checked_keys = stack.live->keys();
    stack = LiveStack();
    wal_bytes = static_cast<double>(std::filesystem::file_size(wal_path));
    LiveStack recovered;
    recovered.live = LoadBase(base_text);
    Clock::time_point restart_start = Clock::now();
    uocqa::Result<uocqa::WalRecoveryInfo> info = uocqa::RecoverAndAttachWal(
        wal_path, uocqa::WalSyncPolicy::kBatch, recovered.live.get(), nullptr);
    if (info.ok()) recovered.service = std::make_unique<uocqa::QueryService>(*recovered.live);
    double restart_s = SecondsSince(restart_start);
    rounds.Record(ops.size(), restart_s, info.ok(), &result);
    recoveries.push_back(restart_s);
    std::shared_ptr<const uocqa::InstanceSnapshot> back = recovered.live->Current();
    if (info.ok() &&
        (back->epoch != final_state->epoch || back->db->size() != final_state->db->size() ||
         back->fingerprint != final_state->fingerprint)) {
      result.Fail("recovered instance differs from the live one");
    }
    recovered = LiveStack();

    if (rounds.round() == 0) checked_state = final_state;
    if (!opt.trace) continue;

    // Traced replay: the same lines through LiveInstance, WalWriter and the
    // Monte-Carlo calls, on a WAL-less instance with a separately opened log.
    std::string traced_wal = dir->path + "/traced.log";
    std::unique_ptr<uocqa::LiveInstance> live;
    {
      Tracer::Scope span(&tracer, "db.parse_instance");
      uocqa::ParsedInstance p = uocqa::ParseInstanceText(base_text).value();
      live = std::make_unique<uocqa::LiveInstance>(std::move(p.db), std::move(p.keys));
    }
    std::unique_ptr<uocqa::WalWriter> writer =
        uocqa::WalWriter::Open(traced_wal, uocqa::WalSyncPolicy::kBatch, 0).value();
    for (size_t r = 0; r < ops.size(); ++r) {
      const LiveOp& op = ops[r];
      tracer.SetRequest(static_cast<uint32_t>(r));
      std::shared_ptr<const uocqa::InstanceSnapshot> prev = live->Current();
      std::shared_ptr<const uocqa::InstanceSnapshot> next;
      Clock::time_point t0 = Clock::now();
      double layer_s = 0;
      {
        Tracer::Scope root(&tracer, "request");
        if (op.kind == OpKind::kAdd) {
          Tracer::Scope add(&tracer, "live.add");
          uocqa::WalRecord record;
          record.relation = op.fact->rel;
          record.constants = op.fact->args;
          {
            Tracer::Scope append(&tracer, "wal.append");
            if (!writer->Append(record).ok()) result.Fail("WAL append failed");
          }
          if (!live->Add(op.fact->rel, op.fact->args).ok()) result.Fail("LiveInstance::Add failed");
        } else if (op.kind == OpKind::kSnapshot) {
          Tracer::Scope snap(&tracer, "live.snapshot");
          next = live->Snapshot();
          uocqa::WalRecord barrier;
          barrier.type = uocqa::WalRecord::Type::kBarrier;
          barrier.epoch = next->epoch;
          barrier.facts = next->db->size();
          barrier.fingerprint = next->fingerprint;
          {
            Tracer::Scope append(&tracer, "wal.append");
            if (!writer->Append(barrier).ok()) result.Fail("WAL append failed");
          }
          Tracer::Scope sync(&tracer, "wal.sync");
          if (!writer->BarrierSync().ok()) result.Fail("WAL sync failed");
        } else if (!rounds.reference_hit(r)) {
          // A cached probe calls no layer; the others re-run Monte-Carlo.
          uocqa::Request rq = uocqa::ParseRequestLine(op.line.text).value();
          bool ok = false;
          const uocqa::Database& db = *prev->db;
          uocqa::ConjunctiveQuery q = TracedParseQuery(&tracer, rq.query_text, db, &ok);
          std::vector<uocqa::Value> answer = AnswerValues(rq.answer_text);
          std::map<std::string, std::string> f = PayloadFields(rounds.reference(r));
          for (bool sequences : {false, true}) {
            double want = -1;
            ParseDouble(f[sequences ? "mc_us" : "mc_ur"], &want);
            if (!ok || TracedMonteCarlo(&tracer, db, live->keys(), q, answer, rq.samples, rq.seed,
                                        sequences) != want) {
              result.Fail("decomposed Monte-Carlo differs from the service: " + op.line.text);
            }
          }
        }
        layer_s = root.ChildSeconds();
      }
      totals.traced_s += SecondsSince(t0);
      totals.AddLine(rounds.latency(r), layer_s);
      if (op.kind != OpKind::kSnapshot) continue;
      // The publish's delta maintenance, re-done from the benchmark on the
      // same delta: a share of live.snapshot, checked against its result.
      uocqa::FactId first_new = static_cast<uocqa::FactId>(prev->db->size());
      uocqa::BlockPartition blocks = [&] {
        Tracer::Scope span(&tracer, "db.block_partition");
        return uocqa::BlockPartition::Update(*prev->blocks, *next->db, live->keys(), first_new);
      }();
      std::vector<uocqa::RelationId> changed;
      uocqa::RelationDenominators dens = [&] {
        Tracer::Scope span(&tracer, "repairs.relation_denominators");
        return uocqa::RelationDenominators::Update(*prev->denominators, *next->db, blocks,
                                                   first_new, &changed);
      }();
      if (dens.crs().ToString() != next->denominators->crs().ToString() ||
          dens.orep().ToString() != next->denominators->orep().ToString()) {
        result.Fail("re-maintained denominators differ from the snapshot's");
      }
      tracer.SetMax("repairs.crs_digits", static_cast<double>(dens.crs().ToString().size()));
    }
    writer.reset();
    std::shared_ptr<const uocqa::InstanceSnapshot> traced_final = live->Current();
    // |CRS| recomputed in full at the final size, beside the per-delta
    // maintenance above (repairs.denominators against
    // repairs.relation_denominators).
    if (TracedDenominator(&tracer, *traced_final->db, live->keys(), true).ToString() !=
        traced_final->denominators->crs().ToString()) {
      result.Fail("full |CRS| recompute differs from the delta-maintained one");
    }
    live = LoadBase(base_text);
    tracer.SetRequest(static_cast<uint32_t>(ops.size()));
    Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope root(&tracer, "request");
      uocqa::Result<uocqa::WalScan> scan = [&] {
        Tracer::Scope span(&tracer, "wal.scan");
        return uocqa::ScanWal(traced_wal);
      }();
      uocqa::Status replayed = [&] {
        Tracer::Scope span(&tracer, "wal.replay");
        return scan.ok() ? uocqa::ReplayWal(scan->records, live.get()) : scan.status();
      }();
      if (!replayed.ok() || live->Current()->fingerprint != traced_final->fingerprint) {
        result.Fail("traced replay of the WAL differs from the instance that wrote it");
      }
      if (scan.ok()) {
        tracer.SetMax("wal.records", static_cast<double>(scan->records.size()));
        tracer.SetMax("wal.bytes", static_cast<double>(scan->valid_bytes));
        if (static_cast<double>(scan->valid_bytes) != wal_bytes) {
          result.Fail("traced WAL bytes differ from the service's WAL");
        }
      }
    }
    totals.traced_s += SecondsSince(t0);
    totals.untraced_s += recoveries.back();
  }
  dir.reset();
  // Memory of serving only: read before the checks below allocate.
  double peak_rss_mb = PeakRssMb();

  // Checks on round 0 (later rounds repeated its payloads byte for byte).
  // A fresh load of the base plus every ingested fact.
  uocqa::ParsedInstance fresh = uocqa::ParseInstanceText(InstanceUpTo(c, c.deltas.size())).value();
  if (checked_state->epoch != c.deltas.size() || fresh.db.size() != checked_state->db->size() ||
      uocqa::InstanceFingerprint(fresh.db, fresh.keys) != checked_state->fingerprint) {
    result.Fail("live instance differs from a fresh load of the same facts");
  }
  // Delta-maintained denominators against a full recompute.
  uocqa::BlockPartition blocks = uocqa::BlockPartition::Compute(*checked_state->db, checked_keys);
  if (uocqa::CountOperationalRepairs(blocks).ToString() !=
          checked_state->denominators->orep().ToString() ||
      uocqa::CountCompleteSequencesExact(blocks).ToString() !=
          checked_state->denominators->crs().ToString()) {
    result.Fail("delta-maintained |ORep| or |CRS| differs from a full recompute");
  }
  // Every cached probe against a static service over a fresh load of
  // the same epoch.
  for (size_t r = 0; r < ops.size(); ++r) {
    if (ops[r].kind != OpKind::kProbe || !rounds.reference_hit(r)) continue;
    uocqa::ParsedInstance at = uocqa::ParseInstanceText(InstanceUpTo(c, ops[r].delta + 1)).value();
    uocqa::QueryService fresh_service(at.db, at.keys);
    Served s = Serve(&fresh_service, ops[r].line.text);
    if (s.response.payload != rounds.reference(r)) {
      result.Fail("cached probe differs from a fresh load of its epoch: " + ops[r].line.text);
    }
  }

  if (opt.trace) {
    result.metrics = LayerMetrics(tracer, totals);
    tracer.Write(opt.work_dir + "/spans-live.tsv");
  } else {
    result.metrics = rounds.EndToEnd(setup_s);
  }
  const LineTimes& times = rounds.times();
  result.info = {{"rounds", static_cast<double>(rounds.rounds()), "count"},
                 {"peak_rss_mb", peak_rss_mb, "MB"},
                 {"mc_p50_ms", Median(times.Mins(probe_lines)) * 1e3, "ms"},
                 {"request_mean_ms", Mean(times.Mins(probe_lines)) * 1e3, "ms"},
                 {"ingest_facts_per_s", ingested / times.Sum(ingest_lines), "facts/s"},
                 {"snapshot_p50_ms", Median(times.Mins(snapshot_lines)) * 1e3, "ms"},
                 {"recovery_s", Median(recoveries), "s"},
                 {"wal_bytes_per_fact", wal_bytes / ingested, "B"},
                 {"wal_open_ms", wal_open_s * 1e3, "ms"}};
  return result;
}

}  // namespace perfbench
