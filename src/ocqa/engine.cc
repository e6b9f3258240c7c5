#include "ocqa/engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>

#include "automata/exact_count.h"
#include "db/blocks.h"
#include "planner/cost.h"
#include "planner/join_order.h"
#include "query/eval.h"
#include "repairs/sampling.h"

namespace uocqa {

namespace {

/// 0 = hardware concurrency, anything else verbatim.
size_t ResolveThreads(size_t threads) {
  return threads == 0 ? HardwareThreads() : threads;
}

/// Plans an atom order once against the full database for the exact and
/// Monte-Carlo paths, which evaluate the query over many repairs (the full
/// index under a removed-fact mask): entailment is order-independent, so
/// counts and estimates are unchanged — only search effort is.
std::vector<size_t> PlanOrderForTrials(const Database& db,
                                       const ConjunctiveQuery& query) {
  CostModel model(db, query);
  return PlanJoinOrder(db, query, model).order;
}

}  // namespace

ThreadPool* OcqaEngine::PoolFor(size_t threads) const {
  threads = ResolveThreads(threads);
  if (threads == 1) return nullptr;
  if (!pool_ || pool_->thread_count() != threads) {
    pool_ = std::make_unique<ThreadPool>(threads, metrics_);
  }
  return pool_.get();
}

void OcqaEngine::SetMetrics(MetricsRegistry* metrics) const {
  metrics_ = metrics;
  denominators_hist_ =
      metrics == nullptr
          ? nullptr
          : metrics->GetHistogram("uocqa_stage_denominators_us");
  // An already-built pool keeps its old handles; drop it so the next
  // PoolFor rebuild binds the new registry.
  pool_.reset();
}

Result<const RepAutomaton*> CompiledQuery::Rep(
    const std::vector<Value>& answer_tuple, bool classical_repairs) const {
  std::lock_guard<std::mutex> lock(*mu_);
  auto key = std::make_pair(classical_repairs, answer_tuple);
  auto it = rep_.find(key);
  if (it == rep_.end()) {
    RepAutomatonOptions options;
    options.classical_repairs = classical_repairs;
    UOCQA_ASSIGN_OR_RETURN(
        RepAutomaton rep,
        BuildRepAutomaton(nf_.db, keys_, nf_.query, nf_.decomposition,
                          answer_tuple, options));
    // Drop the useless states every solver below would pay for, then warm
    // the lazy views (symbol index + CSR/bitset compiled form) before
    // publishing: concurrent serving requests may only ever *read* the
    // memoized automaton, and every solver below runs on the compiled view.
    rep.nfta.Trim();
    rep.nfta.EnsureCompiled();
    it = rep_.emplace(std::move(key),
                      std::make_unique<RepAutomaton>(std::move(rep)))
             .first;
  }
  return static_cast<const RepAutomaton*>(it->second.get());
}

Result<const SeqAutomaton*> CompiledQuery::Seq(
    const std::vector<Value>& answer_tuple) const {
  std::lock_guard<std::mutex> lock(*mu_);
  auto it = seq_.find(answer_tuple);
  if (it == seq_.end()) {
    UOCQA_ASSIGN_OR_RETURN(
        SeqAutomaton seq,
        BuildSeqAutomaton(nf_.db, keys_, nf_.query, nf_.decomposition,
                          answer_tuple));
    seq.nfta.Trim();
    seq.nfta.EnsureCompiled();
    it = seq_.emplace(answer_tuple,
                      std::make_unique<SeqAutomaton>(std::move(seq)))
             .first;
  }
  return static_cast<const SeqAutomaton*>(it->second.get());
}

size_t CompiledQuery::cached_automata() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return rep_.size() + seq_.size();
}

Result<CompiledQuery> OcqaEngine::Compile(const ConjunctiveQuery& query,
                                          const OcqaOptions& options) const {
  if (!query.IsSelfJoinFree()) {
    return Status::InvalidArgument(
        "combined-complexity pipeline requires a self-join-free query");
  }
  if (!query.IsSafe()) return Status::InvalidArgument("unsafe query");
  // Cost-based planning replaces the legacy "first decomposition found":
  // the planner ranks candidate GHDs by estimated bag cost (ties keep the
  // legacy choice) and fixes the backtracking atom order. Planning runs
  // once here so the service plan cache amortizes it across requests.
  auto planning_start = std::chrono::steady_clock::now();
  UOCQA_ASSIGN_OR_RETURN(
      QueryPlan plan,
      PlanQuery(db_, query, options.max_width, options.planner));
  plan.planning_micros =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - planning_start)
          .count();
  CompiledQuery out;
  UOCQA_ASSIGN_OR_RETURN(out.nf_, ToNormalForm(db_, query, plan.decomposition));
  out.plan_ = std::move(plan);
  // Remap the key set onto the normal-form schema by relation name. Fresh
  // pad relations stay keyless (their facts are singleton blocks).
  for (const auto& [rel, positions] : keys_.Entries()) {
    RelationId nr = out.nf_.db.schema().Find(db_.schema().name(rel));
    if (nr == kInvalidRelation) continue;  // relation had no facts
    UOCQA_RETURN_IF_ERROR(out.keys_.SetKey(nr, positions));
  }
  return out;
}

void OcqaEngine::SeedDenominators(BigInt orep, BigInt crs) const {
  std::lock_guard<std::mutex> lock(denom_mu_);
  denom_facts_ = db_.size();
  orep_count_ = std::move(orep);
  crs_count_ = std::move(crs);
}

const BigInt& OcqaEngine::OrepCount(ThreadPool* pool) const {
  std::lock_guard<std::mutex> lock(denom_mu_);
  if (denom_facts_ != db_.size()) {
    orep_count_.reset();
    crs_count_.reset();
    denom_facts_ = db_.size();
  }
  if (!orep_count_.has_value()) {
    metrics::ScopedTimer timer(denominators_hist_);
    orep_count_ =
        CountOperationalRepairs(BlockPartition::Compute(db_, keys_, pool));
  }
  return *orep_count_;
}

const BigInt& OcqaEngine::CrsCount(ThreadPool* pool) const {
  std::lock_guard<std::mutex> lock(denom_mu_);
  if (denom_facts_ != db_.size()) {
    orep_count_.reset();
    crs_count_.reset();
    denom_facts_ = db_.size();
  }
  if (!crs_count_.has_value()) {
    metrics::ScopedTimer timer(denominators_hist_);
    crs_count_ =
        CountCompleteSequencesExact(BlockPartition::Compute(db_, keys_, pool));
  }
  return *crs_count_;
}

ExactFrequencies OcqaEngine::Exact(
    const ConjunctiveQuery& query,
    const std::vector<Value>& answer_tuple) const {
  std::vector<size_t> order = PlanOrderForTrials(db_, query);
  EntailingCounts counts =
      CountEntailing(db_, BlockPartition::Compute(db_, keys_), query,
                     answer_tuple, &order);
  ExactFrequencies out;
  out.ur = {std::move(counts.repairs), OrepCount(nullptr)};
  out.us = {std::move(counts.sequences), CrsCount(nullptr)};
  out.outcomes = counts.outcomes;
  return out;
}

Result<ApproxRF> OcqaEngine::ApproxUr(const ConjunctiveQuery& query,
                                      const std::vector<Value>& answer_tuple,
                                      const OcqaOptions& options) const {
  UOCQA_ASSIGN_OR_RETURN(CompiledQuery compiled, Compile(query, options));
  return ApproxUr(compiled, answer_tuple, options);
}

Result<ApproxRF> OcqaEngine::ApproxUs(const ConjunctiveQuery& query,
                                      const std::vector<Value>& answer_tuple,
                                      const OcqaOptions& options) const {
  UOCQA_ASSIGN_OR_RETURN(CompiledQuery compiled, Compile(query, options));
  return ApproxUs(compiled, answer_tuple, options);
}

Result<ApproxRF> OcqaEngine::ApproxUr(const CompiledQuery& compiled,
                                      const std::vector<Value>& answer_tuple,
                                      const OcqaOptions& options) const {
  UOCQA_ASSIGN_OR_RETURN(const RepAutomaton* rep, compiled.Rep(answer_tuple));
  ThreadPool* pool = PoolFor(options.threads);
  FprasConfig fpras_config = options.fpras;
  fpras_config.threads = ResolveThreads(options.threads);
  NftaFpras fpras(rep->nfta, fpras_config, pool);
  ApproxRF out;
  out.numerator = fpras.EstimateExactSize(rep->tree_size);
  out.denominator = OrepCount(pool).ToDouble();
  out.value = out.denominator > 0 ? out.numerator / out.denominator : 0.0;
  out.automaton_states = rep->nfta.state_count();
  out.automaton_transitions = rep->nfta.transition_count();
  out.union_trials = fpras.union_estimations();
  out.fpras_samples = fpras.klm_samples();
  return out;
}

Result<ApproxRF> OcqaEngine::ApproxUs(const CompiledQuery& compiled,
                                      const std::vector<Value>& answer_tuple,
                                      const OcqaOptions& options) const {
  UOCQA_ASSIGN_OR_RETURN(const SeqAutomaton* seq, compiled.Seq(answer_tuple));
  ThreadPool* pool = PoolFor(options.threads);
  FprasConfig fpras_config = options.fpras;
  fpras_config.threads = ResolveThreads(options.threads);
  NftaFpras fpras(seq->nfta, fpras_config, pool);
  ApproxRF out;
  out.numerator = fpras.EstimateUpTo(seq->max_tree_size);
  out.denominator = CrsCount(pool).ToDouble();
  out.value = out.denominator > 0 ? out.numerator / out.denominator : 0.0;
  out.automaton_states = seq->nfta.state_count();
  out.automaton_transitions = seq->nfta.transition_count();
  out.union_trials = fpras.union_estimations();
  out.fpras_samples = fpras.klm_samples();
  return out;
}

Result<BigInt> OcqaEngine::RepairsEntailingViaAutomaton(
    const ConjunctiveQuery& query, const std::vector<Value>& answer_tuple,
    const OcqaOptions& options) const {
  UOCQA_ASSIGN_OR_RETURN(CompiledQuery compiled, Compile(query, options));
  return RepairsEntailingViaAutomaton(compiled, answer_tuple);
}

Result<BigInt> OcqaEngine::SequencesEntailingViaAutomaton(
    const ConjunctiveQuery& query, const std::vector<Value>& answer_tuple,
    const OcqaOptions& options) const {
  UOCQA_ASSIGN_OR_RETURN(CompiledQuery compiled, Compile(query, options));
  return SequencesEntailingViaAutomaton(compiled, answer_tuple);
}

Result<BigInt> OcqaEngine::RepairsEntailingViaAutomaton(
    const CompiledQuery& compiled,
    const std::vector<Value>& answer_tuple) const {
  UOCQA_ASSIGN_OR_RETURN(const RepAutomaton* rep, compiled.Rep(answer_tuple));
  ExactTreeCounter counter(rep->nfta);
  return counter.CountExactSize(rep->tree_size);
}

Result<BigInt> OcqaEngine::SequencesEntailingViaAutomaton(
    const CompiledQuery& compiled,
    const std::vector<Value>& answer_tuple) const {
  UOCQA_ASSIGN_OR_RETURN(const SeqAutomaton* seq, compiled.Seq(answer_tuple));
  ExactTreeCounter counter(seq->nfta);
  return counter.CountUpTo(seq->max_tree_size);
}

Result<BigInt> OcqaEngine::ClassicalRepairsEntailingViaAutomaton(
    const ConjunctiveQuery& query, const std::vector<Value>& answer_tuple,
    const OcqaOptions& options) const {
  UOCQA_ASSIGN_OR_RETURN(CompiledQuery compiled, Compile(query, options));
  return ClassicalRepairsEntailingViaAutomaton(compiled, answer_tuple);
}

Result<BigInt> OcqaEngine::ClassicalRepairsEntailingViaAutomaton(
    const CompiledQuery& compiled,
    const std::vector<Value>& answer_tuple) const {
  UOCQA_ASSIGN_OR_RETURN(const RepAutomaton* rep,
                         compiled.Rep(answer_tuple, /*classical_repairs=*/true));
  ExactTreeCounter counter(rep->nfta);
  return counter.CountExactSize(rep->tree_size);
}

BigInt OcqaEngine::CountClassicalRepairs() const {
  BlockPartition blocks = BlockPartition::Compute(db_, keys_);
  BigInt out(1);
  for (const Block& b : blocks.blocks()) {
    out *= static_cast<uint64_t>(b.size());
  }
  return out;
}

BigInt OcqaEngine::ClassicalRepairsEntailingBruteForce(
    const ConjunctiveQuery& query,
    const std::vector<Value>& answer_tuple) const {
  QueryEvaluator eval(db_, query, PlanOrderForTrials(db_, query));
  uint64_t count = 0;
  ForEachConflictOutcome(
      db_, BlockPartition::Compute(db_, keys_), /*with_drop=*/false,
      [&](const std::vector<bool>& removed, const std::vector<size_t>&) {
        if (eval.Entails(answer_tuple, &removed)) ++count;
      });
  return BigInt(count);
}

Result<std::vector<std::vector<FactId>>> OcqaEngine::SampleEntailingRepairs(
    const ConjunctiveQuery& query, const std::vector<Value>& answer_tuple,
    size_t count, const OcqaOptions& options, uint64_t seed) const {
  UOCQA_ASSIGN_OR_RETURN(CompiledQuery compiled, Compile(query, options));
  return SampleEntailingRepairs(compiled, answer_tuple, count, options, seed);
}

Result<std::vector<std::vector<FactId>>> OcqaEngine::SampleEntailingRepairs(
    const CompiledQuery& compiled, const std::vector<Value>& answer_tuple,
    size_t count, const OcqaOptions& options, uint64_t seed) const {
  UOCQA_ASSIGN_OR_RETURN(const RepAutomaton* rep, compiled.Rep(answer_tuple));
  const NormalFormInstance& nf = compiled.nf();
  NftaFpras fpras(rep->nfta, options.fpras);
  Rng rng(seed);
  std::vector<std::vector<FactId>> out;
  for (size_t i = 0; i < count; ++i) {
    std::optional<LabeledTree> tree =
        fpras.Sample(rng, rep->nfta.initial(), rep->tree_size);
    if (!tree.has_value()) {
      if (out.empty()) {
        return Status::NotFound("no operational repair entails the answer");
      }
      break;
    }
    UOCQA_ASSIGN_OR_RETURN(std::vector<FactId> kept,
                           rep->DecodeRepair(*tree, nf.decomposition));
    // Map normal-form facts back to original fact ids; pad facts (fresh
    // relations, or the P_i pad tuple absent from the original database)
    // are dropped.
    std::vector<FactId> original;
    for (FactId f : kept) {
      const Fact& fact = nf.db.fact(f);
      RelationId orig_rel =
          db_.schema().Find(nf.db.schema().name(fact.relation));
      if (orig_rel == kInvalidRelation) continue;
      FactId orig = db_.Find(Fact(orig_rel, fact.args));
      if (orig != kInvalidFact) original.push_back(orig);
    }
    std::sort(original.begin(), original.end());
    out.push_back(std::move(original));
  }
  return out;
}

namespace {

/// Shared shape of both Monte-Carlo baselines: `samples` independent trials
/// in fixed chunks of OcqaEngine::kMcChunk, chunk c driven by RNG stream c
/// of `seed`, hit counts merged per chunk. The chunk layout never depends
/// on the pool, so the estimate is bit-identical at every thread count.
/// `make_trial()` builds one chunk's trial, which may own mutable scratch
/// (an evaluator, a mask) because a chunk runs on one lane.
template <typename MakeTrial>
double MonteCarloEstimate(size_t samples, uint64_t seed, ThreadPool* pool,
                          const MakeTrial& make_trial) {
  if (samples == 0) return 0.0;
  size_t chunks = (samples + OcqaEngine::kMcChunk - 1) / OcqaEngine::kMcChunk;
  std::vector<size_t> hits(chunks, 0);
  auto run_chunk = [&](size_t c) {
    auto trial = make_trial();
    Rng rng = Rng::Stream(seed, c);
    size_t begin = c * OcqaEngine::kMcChunk;
    size_t end = std::min(samples, begin + OcqaEngine::kMcChunk);
    size_t h = 0;
    for (size_t i = begin; i < end; ++i) {
      if (trial(rng)) ++h;
    }
    hits[c] = h;
  };
  ParallelForOn(pool, chunks, run_chunk, /*grain=*/1);
  size_t total = 0;
  for (size_t h : hits) total += h;
  return static_cast<double>(total) / static_cast<double>(samples);
}

}  // namespace

double OcqaEngine::MonteCarloUr(const ConjunctiveQuery& query,
                                const std::vector<Value>& answer_tuple,
                                size_t samples, uint64_t seed,
                                size_t threads) const {
  UniformRepairSampler sampler(db_, keys_);
  // Plan once, before any sampling draw: the order never changes a trial's
  // entailment outcome and the sampler RNG is untouched, so the estimate
  // stays bit-identical to the greedy-order implementation.
  std::vector<size_t> order = PlanOrderForTrials(db_, query);
  const BlockPartition& blocks = sampler.blocks();
  std::vector<size_t> conflict;
  for (size_t i = 0; i < blocks.block_count(); ++i) {
    if (blocks.block(i).size() >= 2) conflict.push_back(i);
  }
  return MonteCarloEstimate(samples, seed, PoolFor(threads), [&] {
    return [&, eval = QueryEvaluator(db_, query, order),
            removed = std::vector<bool>(db_.size(), false)](Rng& rng) mutable {
      std::vector<BlockOutcome> outcomes = sampler.SampleOutcomes(rng);
      // Every conflicting-block fact is rewritten, so no trial leaks into
      // the next; singleton facts stay unmarked.
      for (size_t i : conflict) {
        for (FactId f : blocks.block(i).facts) removed[f] = outcomes[i] != f;
      }
      return eval.Entails(answer_tuple, &removed);
    };
  });
}

double OcqaEngine::MonteCarloUs(const ConjunctiveQuery& query,
                                const std::vector<Value>& answer_tuple,
                                size_t samples, uint64_t seed,
                                size_t threads) const {
  UniformSequenceSampler sampler(db_, keys_);
  std::vector<size_t> order = PlanOrderForTrials(db_, query);
  return MonteCarloEstimate(samples, seed, PoolFor(threads), [&] {
    return [&, eval = QueryEvaluator(db_, query, order),
            removed = std::vector<bool>(db_.size(), false)](Rng& rng) mutable {
      // The sequence's operations remove exactly the facts ApplySequence
      // would leave out; mark them for this trial only.
      RepairingSequence seq = sampler.Sample(rng);
      for (const Operation& op : seq) {
        for (FactId f : op.facts) removed[f] = true;
      }
      bool hit = eval.Entails(answer_tuple, &removed);
      for (const Operation& op : seq) {
        for (FactId f : op.facts) removed[f] = false;
      }
      return hit;
    };
  });
}

}  // namespace uocqa
