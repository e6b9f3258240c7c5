#include "replay.h"

#include "automata/fpras.h"
#include "base/rng.h"
#include "db/blocks.h"
#include "db/value.h"
#include "planner/cost.h"
#include "planner/join_order.h"
#include "query/eval.h"
#include "query/parser.h"
#include "repairs/counting.h"
#include "repairs/sampling.h"
#include "service/canonical.h"

namespace perfbench {

using uocqa::BigInt;
using uocqa::ConjunctiveQuery;
using uocqa::Database;
using uocqa::KeySet;
using uocqa::Value;

std::vector<Value> AnswerValues(const std::string& text) {
  std::vector<Value> out;
  size_t start = 0;
  while (!text.empty() && start <= text.size()) {
    size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    out.push_back(uocqa::ValuePool::Intern(text.substr(start, comma - start)));
    start = comma + 1;
  }
  return out;
}

ConjunctiveQuery TracedParseQuery(Tracer* tracer, const std::string& text, const Database& db,
                                  bool* ok) {
  Tracer::Scope span(tracer, "query.parse");
  uocqa::Result<ConjunctiveQuery> q = uocqa::ParseQuery(text, db.schema());
  *ok = q.ok();
  return q.ok() ? std::move(q).value() : ConjunctiveQuery();
}

std::vector<size_t> TracedJoinOrder(Tracer* tracer, const Database& db,
                                    const ConjunctiveQuery& query) {
  Tracer::Scope span(tracer, "planner.join_order");
  uocqa::CostModel model(db, query);
  return uocqa::PlanJoinOrder(db, query, model).order;
}

BigInt TracedDenominator(Tracer* tracer, const Database& db, const KeySet& keys,
                         bool sequences) {
  Tracer::Scope span(tracer, "repairs.denominators");
  uocqa::BlockPartition blocks = [&] {
    Tracer::Scope partition(tracer, "db.block_partition");
    return uocqa::BlockPartition::Compute(db, keys);
  }();
  BigInt out = sequences ? uocqa::CountCompleteSequencesExact(blocks)
                         : uocqa::CountOperationalRepairs(blocks);
  tracer->SetMax("repairs.crs_digits", sequences ? out.ToString().size() : 0);
  return out;
}

std::string TracedExact(Tracer* tracer, const Database& db, const KeySet& keys,
                        const ConjunctiveQuery& query, const std::vector<Value>& answer,
                        bool sequences) {
  std::vector<size_t> order = TracedJoinOrder(tracer, db, query);
  BigInt numerator = [&] {
    Tracer::Scope span(tracer, "repairs.enumerate");
    return sequences ? uocqa::CountSequencesEntailing(db, keys, query, answer, &order)
                     : uocqa::CountRepairsEntailing(db, keys, query, answer, &order);
  }();
  BigInt denominator = TracedDenominator(tracer, db, keys, sequences);
  // The repairs that call's enumeration visits: ForEachRepair over the same
  // partition, with a callback that only counts, outside the timed spans.
  double visited = 0;
  uocqa::ForEachRepair(uocqa::BlockPartition::Compute(db, keys),
                       [&](const std::vector<uocqa::BlockOutcome>&,
                           const std::vector<uocqa::FactId>&) {
                         ++visited;
                         return true;
                       });
  tracer->Count("repairs.repairs_enumerated", visited);
  return numerator.ToString() + "/" + denominator.ToString();
}

double TracedMonteCarlo(Tracer* tracer, const Database& db, const KeySet& keys,
                        const ConjunctiveQuery& query, const std::vector<Value>& answer,
                        size_t samples, uint64_t seed, bool sequences) {
  // Mirrors OcqaEngine::MonteCarloUr/Us: the sampler, the planned order,
  // then chunks of kMcChunk samples, chunk c drawn from RNG stream c.
  std::unique_ptr<uocqa::UniformRepairSampler> repairs;
  std::unique_ptr<uocqa::UniformSequenceSampler> seqs;
  {
    Tracer::Scope span(tracer, "repairs.sampler_setup");
    if (sequences) {
      seqs = std::make_unique<uocqa::UniformSequenceSampler>(db, keys);
    } else {
      repairs = std::make_unique<uocqa::UniformRepairSampler>(db, keys);
    }
  }
  std::vector<size_t> order = TracedJoinOrder(tracer, db, query);
  const size_t chunk = uocqa::OcqaEngine::kMcChunk;
  size_t hits = 0;
  for (size_t c = 0; c * chunk < samples; ++c) {
    uocqa::Rng rng = uocqa::Rng::Stream(seed, c);
    for (size_t i = c * chunk; i < std::min(samples, (c + 1) * chunk); ++i) {
      std::vector<uocqa::FactId> kept;
      if (sequences) {
        Tracer::Scope span(tracer, "repairs.sample_us");
        kept = uocqa::ApplySequence(db, seqs->Sample(rng));
      } else {
        Tracer::Scope span(tracer, "repairs.sample_ur");
        kept = repairs->Sample(rng);
      }
      tracer->Count("db.subset_facts", static_cast<double>(kept.size()));
      Database repair = [&] {
        Tracer::Scope span(tracer, "db.subset");
        return db.Subset(kept);
      }();
      Tracer::Scope span(tracer, "query.entails");
      uocqa::QueryEvaluator eval(repair, query, order);
      if (eval.Entails(answer)) ++hits;
    }
  }
  return samples == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(samples);
}

bool TracedFpras::Estimate(const ConjunctiveQuery& query, const std::vector<Value>& answer,
                           const uocqa::FprasConfig& config, double* ur, double* us) {
  std::string canonical = uocqa::CanonicalQueryText(query);
  auto it = plans_.find(canonical);
  if (it == plans_.end()) {
    Tracer::Scope span(tracer_, "planner.compile");
    uocqa::OcqaOptions options;
    options.threads = 1;
    uocqa::Result<uocqa::CompiledQuery> compiled = engine_.Compile(query, options);
    if (!compiled.ok()) return false;
    tracer_->Count("hypertree.nf_facts", static_cast<double>(compiled->nf().db.size()));
    it = plans_.emplace(canonical, std::make_unique<uocqa::CompiledQuery>(
                                       std::move(compiled).value()))
             .first;
  }
  const uocqa::CompiledQuery& plan = *it->second;
  bool first = built_.emplace(std::make_pair(canonical, answer), true).second;

  const uocqa::RepAutomaton* rep = nullptr;
  {
    std::unique_ptr<Tracer::Scope> span;
    if (first) span = std::make_unique<Tracer::Scope>(tracer_, "ocqa.rep_build");
    uocqa::Result<const uocqa::RepAutomaton*> r = plan.Rep(answer);
    if (!r.ok()) return false;
    rep = *r;
  }
  if (first) {
    tracer_->Count("ocqa.rep_states", static_cast<double>(rep->nfta.state_count()));
    tracer_->Count("ocqa.rep_transitions", static_cast<double>(rep->nfta.transition_count()));
  }
  double numerator = 0;
  {
    Tracer::Scope span(tracer_, "automata.fpras_ur");
    uocqa::NftaFpras fpras(rep->nfta, config);
    numerator = fpras.EstimateExactSize(rep->tree_size);
    tracer_->Count("automata.union_trials", static_cast<double>(fpras.union_estimations()));
  }
  if (!orep_) orep_ = std::make_unique<BigInt>(TracedDenominator(tracer_, db_, keys_, false));
  double denominator = orep_->ToDouble();
  *ur = denominator > 0 ? numerator / denominator : 0.0;

  const uocqa::SeqAutomaton* seq = nullptr;
  {
    std::unique_ptr<Tracer::Scope> span;
    if (first) span = std::make_unique<Tracer::Scope>(tracer_, "ocqa.seq_build");
    uocqa::Result<const uocqa::SeqAutomaton*> s = plan.Seq(answer);
    if (!s.ok()) return false;
    seq = *s;
  }
  if (first) {
    tracer_->Count("ocqa.seq_states", static_cast<double>(seq->nfta.state_count()));
    tracer_->Count("ocqa.seq_transitions", static_cast<double>(seq->nfta.transition_count()));
  }
  {
    Tracer::Scope span(tracer_, "automata.fpras_us");
    uocqa::NftaFpras fpras(seq->nfta, config);
    numerator = fpras.EstimateUpTo(seq->max_tree_size);
    tracer_->Count("automata.union_trials", static_cast<double>(fpras.union_estimations()));
  }
  if (!crs_) crs_ = std::make_unique<BigInt>(TracedDenominator(tracer_, db_, keys_, true));
  denominator = crs_->ToDouble();
  *us = denominator > 0 ? numerator / denominator : 0.0;
  return true;
}

}  // namespace perfbench
