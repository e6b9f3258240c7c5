// E15 — the flattened automaton hot path (compiled NFTA, bitset
// behaviours, pooled sampling, small-value BigInt) versus faithful in-file
// copies of the pre-flattening implementations:
//
//  * exact-count DP throughput: ExactTreeCounter (bitset behaviours +
//    memoized Combine) vs the legacy sorted-vector counter;
//  * FPRAS estimation throughput: NftaFpras (prefix-sum selection, pooled
//    trial trees, bitset membership) vs the legacy heap-tree estimator —
//    both run the *same* trials (estimates are asserted bit-identical), so
//    the wall-clock ratio is the per-trial throughput ratio;
//  * membership-oracle throughput: AcceptingStates probes/sec, compiled
//    bitset run vs the legacy recursive sorted-vector oracle.
//
// Pair names as BM_X / BM_LegacyX so tools/bench_report prints the
// speedup ratios. Acceptance (ISSUE 5): >= 3x FPRAS, >= 2x exact DP.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "automata/exact_count.h"
#include "automata/fpras.h"
#include "automata/nfta.h"
#include "base/bigint.h"
#include "base/hashing.h"
#include "base/rng.h"

namespace uocqa {
namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Ambiguous width-w automaton over unary {0,1}-trees: w parallel chains
/// accept the same strings (behaviour-set DP with overlapping unions).
Nfta AmbiguousStrings(size_t width) {
  Nfta a;
  NftaState q0 = a.AddState();
  NftaSymbol zero = a.InternSymbol("0");
  NftaSymbol one = a.InternSymbol("1");
  for (size_t i = 0; i < width; ++i) {
    NftaState qi = a.AddState();
    for (NftaSymbol s : {zero, one}) {
      a.AddTransition(q0, s, {qi});
      a.AddTransition(qi, s, {qi});
      a.AddTransition(qi, s, {});
    }
  }
  a.SetInitial(q0);
  return a;
}

/// Union-heavy sampling workload: w overlapping chain states under one
/// root (each accepts b-chains, pairs also accept c-steps), plus binary
/// branches — every cell has multi-component groups, so KLM trials with
/// rejection sampling dominate.
Nfta OverlapChains(size_t w) {
  Nfta a;
  NftaState q0 = a.AddState();
  NftaSymbol sa = a.InternSymbol("a");
  NftaSymbol sb = a.InternSymbol("b");
  NftaSymbol sc = a.InternSymbol("c");
  std::vector<NftaState> chain(w);
  for (size_t i = 0; i < w; ++i) {
    chain[i] = a.AddState();
    a.AddTransition(q0, sa, {chain[i]});
    a.AddTransition(chain[i], sb, {chain[i]});
    a.AddTransition(chain[i], sb, {});
    if (i % 2 == 0) {
      a.AddTransition(chain[i], sc, {chain[i]});
      a.AddTransition(chain[i], sc, {});
    }
  }
  for (size_t i = 0; i + 1 < w; ++i) {
    a.AddTransition(q0, sa, {chain[i], chain[i + 1]});
  }
  a.SetInitial(q0);
  return a;
}

// ---------------------------------------------------------------------------
// Legacy baseline 1: the sorted-vector membership oracle (pre-flattening
// Nfta::AcceptingStates, verbatim).
// ---------------------------------------------------------------------------

std::vector<NftaState> LegacyAcceptingStates(const Nfta& nfta,
                                             const LabeledTree& tree) {
  std::vector<std::vector<NftaState>> child_behaviors;
  child_behaviors.reserve(tree.children.size());
  for (const LabeledTree& c : tree.children) {
    child_behaviors.push_back(LegacyAcceptingStates(nfta, c));
  }
  std::vector<NftaState> out;
  for (const NftaTransition* t : nfta.TransitionsWithSymbol(tree.symbol)) {
    if (t->children.size() != tree.children.size()) continue;
    bool ok = true;
    for (size_t i = 0; i < t->children.size(); ++i) {
      if (!std::binary_search(child_behaviors[i].begin(),
                              child_behaviors[i].end(), t->children[i])) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(t->from);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Legacy baseline 2: the sorted-vector behaviour-set counter
// (pre-flattening ExactTreeCounter, verbatim: unmemoized Combine with a
// sort/unique per call, per-size CountUpTo walk).
// ---------------------------------------------------------------------------

class LegacyExactTreeCounter {
 public:
  explicit LegacyExactTreeCounter(const Nfta& nfta) : nfta_(nfta) {
    for (NftaState q = 0; q < nfta.state_count(); ++q) {
      for (const NftaTransition& t : nfta.TransitionsFrom(q)) {
        auto key = std::make_pair(t.symbol,
                                  static_cast<uint32_t>(t.children.size()));
        auto [it, inserted] = by_symbol_rank_.try_emplace(key);
        if (inserted) symbol_ranks_.push_back({t.symbol, t.children.size()});
        it->second.push_back(&t);
      }
    }
    levels_.resize(1);
  }

  BigInt CountUpTo(size_t max_size) {
    BigInt out;
    for (size_t s = 1; s <= max_size; ++s) out += CountExactSize(s);
    return out;
  }

  BigInt CountExactSize(size_t size) {
    if (nfta_.initial() == kNoNftaState) return BigInt();
    if (size == 0) return BigInt();
    ComputeUpTo(size);
    BigInt out;
    for (const auto& [bid, cnt] : levels_[size]) {
      const std::vector<NftaState>& b = behaviors_[bid];
      if (std::binary_search(b.begin(), b.end(), nfta_.initial())) out += cnt;
    }
    return out;
  }

 private:
  using BehaviorId = uint32_t;

  BehaviorId InternBehavior(std::vector<NftaState> states) {
    auto it = behavior_index_.find(states);
    if (it != behavior_index_.end()) return it->second;
    BehaviorId id = static_cast<BehaviorId>(behaviors_.size());
    behaviors_.push_back(states);
    behavior_index_.emplace(std::move(states), id);
    return id;
  }

  std::vector<NftaState> Combine(NftaSymbol sym,
                                 const std::vector<BehaviorId>& children)
      const {
    std::vector<NftaState> out;
    auto it = by_symbol_rank_.find(
        {sym, static_cast<uint32_t>(children.size())});
    if (it == by_symbol_rank_.end()) return out;
    for (const NftaTransition* t : it->second) {
      bool ok = true;
      for (size_t i = 0; i < children.size(); ++i) {
        const std::vector<NftaState>& b = behaviors_[children[i]];
        if (!std::binary_search(b.begin(), b.end(), t->children[i])) {
          ok = false;
          break;
        }
      }
      if (ok) out.push_back(t->from);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  void ComputeUpTo(size_t size) {
    while (levels_.size() <= size) {
      size_t s = levels_.size();
      std::unordered_map<BehaviorId, BigInt> level;
      for (const auto& [sym, rank] : symbol_ranks_) {
        if (rank == 0) {
          if (s != 1) continue;
          std::vector<NftaState> behavior = Combine(sym, {});
          if (!behavior.empty()) {
            level[InternBehavior(std::move(behavior))] += uint64_t{1};
          }
          continue;
        }
        if (s < rank + 1) continue;
        std::vector<BehaviorId> chosen(rank);
        std::function<void(size_t, size_t, BigInt)> rec =
            [&](size_t pos, size_t remaining, BigInt count) {
              if (pos == rank) {
                if (remaining != 0) return;
                std::vector<NftaState> behavior = Combine(sym, chosen);
                if (!behavior.empty()) {
                  level[InternBehavior(std::move(behavior))] += count;
                }
                return;
              }
              size_t max_here = remaining - (rank - pos - 1);
              for (size_t si = 1; si <= max_here; ++si) {
                if (si >= levels_.size()) break;
                for (const auto& [bid, cnt] : levels_[si]) {
                  chosen[pos] = bid;
                  rec(pos + 1, remaining - si, count * cnt);
                }
              }
            };
        rec(0, s - 1, BigInt(1));
      }
      levels_.push_back(std::move(level));
    }
  }

  const Nfta& nfta_;
  std::unordered_map<std::pair<uint32_t, uint32_t>,
                     std::vector<const NftaTransition*>,
                     PairHash<uint32_t, uint32_t>>
      by_symbol_rank_;
  std::vector<std::pair<NftaSymbol, size_t>> symbol_ranks_;
  std::vector<std::vector<NftaState>> behaviors_;
  std::unordered_map<std::vector<NftaState>, BehaviorId,
                     VectorHash<NftaState>>
      behavior_index_;
  std::vector<std::unordered_map<BehaviorId, BigInt>> levels_;
};

// ---------------------------------------------------------------------------
// Legacy baseline 3: the heap-tree FPRAS (pre-flattening NftaFpras,
// verbatim: linear-scan proportional selection, per-node heap LabeledTrees,
// MinIndex recomputing child sizes via Size(), find-then-operator[] cell
// lookups). Serial; consumes randomness identically to the flattened
// estimator, so estimates must match bit-for-bit.
// ---------------------------------------------------------------------------

class LegacyFpras {
 public:
  LegacyFpras(const Nfta& nfta, FprasConfig config)
      : nfta_(nfta), config_(config), rng_(config.seed) {}

  double EstimateUpTo(size_t max_size) {
    double total = 0;
    for (size_t s = 1; s <= max_size; ++s) total += EstimateExactSize(s);
    return total;
  }

  double EstimateExactSize(size_t size) {
    if (nfta_.initial() == kNoNftaState) return 0;
    return GetCell(nfta_.initial(), size).estimate;
  }

  size_t union_estimations() const { return union_estimations_; }

 private:
  struct Component {
    const NftaTransition* transition = nullptr;
    std::vector<size_t> child_sizes;
    double size = 0;
  };
  struct Group {
    std::vector<Component> components;
    double estimate = 0;
  };
  struct Cell {
    bool computed = false;
    double estimate = 0;
    std::vector<Group> groups;
  };

  Cell& GetCell(NftaState q, size_t size) {
    auto key = std::make_pair(q, size);
    auto it = cells_.find(key);
    if (it != cells_.end() && it->second.computed) return it->second;
    Cell& cell = cells_[key];
    if (cell.computed) return cell;
    cell.computed = true;
    if (size == 0) return cell;

    std::map<std::pair<NftaSymbol, std::vector<size_t>>, size_t> group_index;
    for (const NftaTransition& t : nfta_.TransitionsFrom(q)) {
      size_t rank = t.children.size();
      if (rank == 0) {
        if (size != 1) continue;
        Component c;
        c.transition = &t;
        c.size = 1.0;
        auto key2 =
            config_.group_disjoint_components
                ? std::make_pair(t.symbol, std::vector<size_t>{})
                : std::make_pair(NftaSymbol{0}, std::vector<size_t>{});
        auto [git, inserted] =
            group_index.try_emplace(key2, cell.groups.size());
        if (inserted) cell.groups.emplace_back();
        cell.groups[git->second].components.push_back(std::move(c));
        continue;
      }
      if (size < rank + 1) continue;
      std::vector<size_t> sizes(rank, 1);
      std::function<void(size_t, size_t)> rec = [&](size_t pos,
                                                    size_t remaining) {
        if (pos == rank) {
          if (remaining != 0) return;
          double prod = 1.0;
          for (size_t i = 0; i < rank && prod > 0; ++i) {
            prod *= GetCell(t.children[i], sizes[i]).estimate;
          }
          if (prod <= 0) return;
          Component c;
          c.transition = &t;
          c.child_sizes = sizes;
          c.size = prod;
          auto key2 =
              config_.group_disjoint_components
                  ? std::make_pair(t.symbol, sizes)
                  : std::make_pair(NftaSymbol{0}, std::vector<size_t>{});
          auto [git, inserted] =
              group_index.try_emplace(key2, cell.groups.size());
          if (inserted) cell.groups.emplace_back();
          cell.groups[git->second].components.push_back(std::move(c));
          return;
        }
        size_t max_here = remaining - (rank - pos - 1);
        for (size_t si = 1; si <= max_here; ++si) {
          sizes[pos] = si;
          rec(pos + 1, remaining - si);
        }
      };
      rec(0, size - 1);
    }

    double total = 0;
    for (Group& g : cell.groups) {
      g.estimate = EstimateGroup(&g);
      total += g.estimate;
    }
    cell.estimate = total;
    return cell;
  }

  int MinIndex(const Group& group, const LabeledTree& tree) const {
    std::vector<std::vector<NftaState>> behaviors;
    std::vector<size_t> child_sizes;
    behaviors.reserve(tree.children.size());
    for (const LabeledTree& c : tree.children) {
      behaviors.push_back(LegacyAcceptingStates(nfta_, c));
      child_sizes.push_back(c.Size());
    }
    for (size_t j = 0; j < group.components.size(); ++j) {
      const Component& comp = group.components[j];
      const NftaTransition* t = comp.transition;
      if (t->symbol != tree.symbol ||
          t->children.size() != tree.children.size() ||
          comp.child_sizes != child_sizes) {
        continue;
      }
      bool ok = true;
      for (size_t i = 0; i < t->children.size(); ++i) {
        if (!std::binary_search(behaviors[i].begin(), behaviors[i].end(),
                                t->children[i])) {
          ok = false;
          break;
        }
      }
      if (ok) return static_cast<int>(j);
    }
    return -1;
  }

  std::optional<LabeledTree> SampleComponent(Rng& rng, const Component& c) {
    LabeledTree out(c.transition->symbol);
    for (size_t i = 0; i < c.child_sizes.size(); ++i) {
      std::optional<LabeledTree> child =
          Sample(rng, c.transition->children[i], c.child_sizes[i]);
      if (!child.has_value()) return std::nullopt;
      out.children.push_back(std::move(*child));
    }
    return out;
  }

  double EstimateGroup(Group* group) {
    std::vector<Component>& comps = group->components;
    if (comps.empty()) return 0;
    double sum = 0;
    for (const Component& c : comps) sum += c.size;
    if (comps.size() == 1 || sum <= 0) return sum;

    ++union_estimations_;
    size_t m = comps.size();
    double eps = std::max(1e-3, config_.epsilon * 0.5);
    size_t samples = static_cast<size_t>(
        std::ceil(4.0 * static_cast<double>(m) *
                  std::log(4.0 / config_.delta) / (eps * eps)));
    samples = std::clamp(samples, config_.min_samples, config_.max_samples);

    uint64_t union_seed = rng_.NextU64();
    constexpr size_t kTrialChunk = 64;
    size_t chunks = (samples + kTrialChunk - 1) / kTrialChunk;
    size_t hits = 0;
    size_t performed = 0;
    for (size_t c = 0; c < chunks; ++c) {
      Rng rng = Rng::Stream(union_seed, c);
      size_t begin = c * kTrialChunk;
      size_t end = std::min(samples, begin + kTrialChunk);
      for (size_t i = begin; i < end; ++i) {
        double r = rng.UniformDouble() * sum;
        size_t j = 0;
        double acc = 0;
        for (; j + 1 < m; ++j) {
          acc += comps[j].size;
          if (r < acc) break;
        }
        std::optional<LabeledTree> t = SampleComponent(rng, comps[j]);
        if (!t.has_value()) continue;
        ++performed;
        int min_idx = MinIndex(*group, *t);
        assert(min_idx >= 0);
        if (static_cast<size_t>(min_idx) == j) ++hits;
      }
    }
    if (performed == 0) return 0;
    return sum * static_cast<double>(hits) / static_cast<double>(performed);
  }

  std::optional<LabeledTree> Sample(Rng& rng, NftaState q, size_t size) {
    Cell& cell = GetCell(q, size);
    if (cell.estimate <= 0 || cell.groups.empty()) return std::nullopt;
    for (size_t attempt = 0; attempt < config_.max_rejection_attempts;
         ++attempt) {
      double r = rng.UniformDouble() * cell.estimate;
      size_t gi = 0;
      double acc = 0;
      for (; gi + 1 < cell.groups.size(); ++gi) {
        acc += cell.groups[gi].estimate;
        if (r < acc) break;
      }
      Group& g = cell.groups[gi];
      if (g.components.empty()) continue;
      double csum = 0;
      for (const Component& c : g.components) csum += c.size;
      if (csum <= 0) continue;
      double rc = rng.UniformDouble() * csum;
      size_t j = 0;
      double cacc = 0;
      for (; j + 1 < g.components.size(); ++j) {
        cacc += g.components[j].size;
        if (rc < cacc) break;
      }
      std::optional<LabeledTree> t = SampleComponent(rng, g.components[j]);
      if (!t.has_value()) continue;
      int min_idx = MinIndex(g, *t);
      if (min_idx >= 0 && static_cast<size_t>(min_idx) == j) return t;
    }
    for (Group& g : cell.groups) {
      for (const Component& c : g.components) {
        std::optional<LabeledTree> t = SampleComponent(rng, c);
        if (t.has_value()) return t;
      }
    }
    return std::nullopt;
  }

  const Nfta& nfta_;
  FprasConfig config_;
  Rng rng_;
  std::map<std::pair<NftaState, size_t>, Cell> cells_;
  size_t union_estimations_ = 0;
};

// ---------------------------------------------------------------------------
// Benchmarks
// ---------------------------------------------------------------------------

constexpr size_t kExactDepth = 12;   // CountUpTo bound for the exact DP
constexpr size_t kFprasDepth = 14;   // EstimateUpTo bound for the FPRAS

void BM_ExactDp(benchmark::State& state) {
  Nfta a = AmbiguousStrings(static_cast<size_t>(state.range(0)));
  a.EnsureCompiled();
  std::string count;
  for (auto _ : state) {
    ExactTreeCounter counter(a);
    BigInt c = counter.CountUpTo(kExactDepth);
    benchmark::DoNotOptimize(c);
    count = c.ToString();
  }
  state.SetLabel("count=" + count);
}
BENCHMARK(BM_ExactDp)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_LegacyExactDp(benchmark::State& state) {
  Nfta a = AmbiguousStrings(static_cast<size_t>(state.range(0)));
  a.EnsureCompiled();
  std::string count;
  for (auto _ : state) {
    LegacyExactTreeCounter counter(a);
    BigInt c = counter.CountUpTo(kExactDepth);
    benchmark::DoNotOptimize(c);
    count = c.ToString();
  }
  // Cross-check: the flattened counter must produce the same exact count.
  ExactTreeCounter check(a);
  if (check.CountUpTo(kExactDepth).ToString() != count) {
    state.SkipWithError("exact counts diverged");
  }
  state.SetLabel("count=" + count);
}
BENCHMARK(BM_LegacyExactDp)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_FprasEstimate(benchmark::State& state) {
  Nfta a = OverlapChains(static_cast<size_t>(state.range(0)));
  a.EnsureCompiled();
  FprasConfig cfg;
  cfg.epsilon = 0.2;
  cfg.seed = 17;
  double est = 0;
  size_t unions = 0;
  for (auto _ : state) {
    NftaFpras fpras(a, cfg);
    est = fpras.EstimateUpTo(kFprasDepth);
    benchmark::DoNotOptimize(est);
    unions = fpras.union_estimations();
  }
  state.counters["unions"] = static_cast<double>(unions);
  state.counters["estimate"] = est;
}
BENCHMARK(BM_FprasEstimate)->Arg(6)->Arg(10)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_LegacyFprasEstimate(benchmark::State& state) {
  Nfta a = OverlapChains(static_cast<size_t>(state.range(0)));
  a.EnsureCompiled();
  FprasConfig cfg;
  cfg.epsilon = 0.2;
  cfg.seed = 17;
  // The legacy clone runs the sequential trial path, so the cross-check
  // runs NftaFpras under the same seed schema.
  cfg.seed_schema = 1;
  double est = 0;
  size_t unions = 0;
  for (auto _ : state) {
    LegacyFpras fpras(a, cfg);
    est = fpras.EstimateUpTo(kFprasDepth);
    benchmark::DoNotOptimize(est);
    unions = fpras.union_estimations();
  }
  // Cross-check: same trials, same randomness, bit-identical estimate.
  NftaFpras check(a, cfg);
  if (check.EstimateUpTo(kFprasDepth) != est) {
    state.SkipWithError("FPRAS estimates diverged from the legacy baseline");
  }
  state.counters["unions"] = static_cast<double>(unions);
  state.counters["estimate"] = est;
}
BENCHMARK(BM_LegacyFprasEstimate)->Arg(6)->Arg(10)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

/// A fixed probe set for the membership oracle: trees sampled from the
/// overlap automaton at several sizes (deterministic seed).
std::vector<LabeledTree> ProbeTrees(const Nfta& a, size_t count) {
  FprasConfig cfg;
  cfg.seed = 23;
  NftaFpras fpras(a, cfg);
  Rng rng(123);
  std::vector<LabeledTree> out;
  for (size_t size = 4; out.size() < count; size = 4 + (size - 1) % 12) {
    auto t = fpras.Sample(rng, a.initial(), size);
    if (t.has_value()) out.push_back(std::move(*t));
  }
  return out;
}

void BM_AcceptingStates(benchmark::State& state) {
  Nfta a = OverlapChains(static_cast<size_t>(state.range(0)));
  a.EnsureCompiled();
  std::vector<LabeledTree> probes = ProbeTrees(a, 64);
  size_t accepted = 0;
  for (auto _ : state) {
    for (const LabeledTree& t : probes) {
      std::vector<NftaState> b = a.AcceptingStates(t);
      benchmark::DoNotOptimize(b);
      accepted += b.size();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(probes.size()));
  state.counters["accepted"] = static_cast<double>(accepted);
}
BENCHMARK(BM_AcceptingStates)->Arg(4)->Arg(8);

void BM_LegacyAcceptingStates(benchmark::State& state) {
  Nfta a = OverlapChains(static_cast<size_t>(state.range(0)));
  a.EnsureCompiled();
  std::vector<LabeledTree> probes = ProbeTrees(a, 64);
  size_t accepted = 0;
  for (auto _ : state) {
    for (const LabeledTree& t : probes) {
      std::vector<NftaState> b = LegacyAcceptingStates(a, t);
      benchmark::DoNotOptimize(b);
      accepted += b.size();
    }
  }
  // Cross-check: both oracles agree on every probe.
  for (const LabeledTree& t : probes) {
    if (a.AcceptingStates(t) != LegacyAcceptingStates(a, t)) {
      state.SkipWithError("membership oracles diverged");
      break;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(probes.size()));
  state.counters["accepted"] = static_cast<double>(accepted);
}
BENCHMARK(BM_LegacyAcceptingStates)->Arg(4)->Arg(8);

}  // namespace
}  // namespace uocqa

BENCHMARK_MAIN();
