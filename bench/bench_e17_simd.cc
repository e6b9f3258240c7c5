// E17 — the runtime-dispatched SIMD kernel layer (base/simd_kernels.h)
// versus the always-compiled scalar reference backend:
//
//  * membership-oracle throughput on wide automata (512 / 1280 states, so
//    behaviour sets span 8 / 20 words): compiled bitset run with the
//    scalar kernels vs the widest backend this CPU supports;
//  * exact-count DP throughput (interning hashes, memo equality, batched
//    group combines) under the same scalar/SIMD split;
//  * FPRAS estimation (lockstep trial batches) on the SIMD backend.
//
// Every SIMD benchmark cross-checks its results against the scalar
// backend in-run (equal behaviour sets, equal exact counts, bit-identical
// estimates — the backends are bit-identical by contract), so a kernel
// divergence fails the benchmark rather than skewing it.
//
// Pair names as BM_ScalarX / BM_SimdX so tools/bench_report prints the
// ratios; `tools/bench_report --gate R ...` turns them into a regression
// gate. The target is >= 1.5x on the membership/bitset pairs.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "automata/compiled_nfta.h"
#include "automata/exact_count.h"
#include "automata/fpras.h"
#include "automata/nfta.h"
#include "base/bigint.h"
#include "base/simd_kernels.h"

namespace uocqa {
namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Union-heavy overlap automaton (bench_e15's OverlapChains): w chain
/// states under one root, each accepting b-chains, even ones also
/// c-chains, adjacent pairs also reachable together. With w in the
/// hundreds the per-symbol transition groups have hundreds of lanes and
/// behaviour sets span many words — the batched kernel probe's territory.
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

/// Ambiguous width-w automaton over unary {0,1}-trees (bench_e15's
/// workload): w parallel chains accept the same strings, so the exact DP
/// interns and combines many-word behaviour sets at width >= 512.
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

/// Compiles `a`'s lazy view under the given backend (CompiledNfta
/// snapshots simd::Active() at construction). Returns false if the
/// backend is not usable on this host.
bool CompileWith(const Nfta& a, simd::Backend b) {
  const simd::Kernels* k = simd::ForBackend(b);
  if (k == nullptr) return false;
  simd::SetActiveForTest(k);
  a.EnsureCompiled();
  simd::SetActiveForTest(nullptr);
  return true;
}

/// The widest backend this host runs — what simd::Active() selects when
/// no UOCQA_SIMD cap is set (the benchmark should measure the shipped
/// configuration even under a capped environment).
simd::Backend WidestBackend() {
  return simd::AvailableBackends().back()->backend;
}

// ---------------------------------------------------------------------------
// Membership probes: unary chains under the overlap root. b-chains are
// accepted by every chain state (all group lanes live), b-then-c chains
// only by the even ones (half the lanes die mid-probe), pair roots drive
// the rank-2 group.
// ---------------------------------------------------------------------------

LabeledTree Chain(NftaSymbol top, size_t top_len, NftaSymbol bottom,
                  size_t bottom_len) {
  LabeledTree t(top);
  LabeledTree* cur = &t;
  for (size_t i = 1; i < top_len; ++i) {
    cur->children.emplace_back(top);
    cur = &cur->children.back();
  }
  for (size_t i = 0; i < bottom_len; ++i) {
    cur->children.emplace_back(bottom);
    cur = &cur->children.back();
  }
  return t;
}

std::vector<LabeledTree> ProbeTrees(Nfta& a) {
  // InternSymbol returns the existing id for already-interned names.
  NftaSymbol sa = a.InternSymbol("a");
  NftaSymbol sb = a.InternSymbol("b");
  NftaSymbol sc = a.InternSymbol("c");
  std::vector<LabeledTree> out;
  for (size_t len = 1; len <= 8; ++len) {
    LabeledTree one(sa);
    one.children.push_back(Chain(sb, len, sb, 0));
    out.push_back(std::move(one));

    LabeledTree mixed(sa);
    mixed.children.push_back(Chain(sb, len, sc, 3));
    out.push_back(std::move(mixed));

    LabeledTree pair(sa);
    pair.children.push_back(Chain(sb, len, sb, 0));
    pair.children.push_back(Chain(sb, len + 1, sb, 0));
    out.push_back(std::move(pair));

    LabeledTree cs(sa);
    cs.children.push_back(Chain(sc, len, sc, 0));
    out.push_back(std::move(cs));
  }
  return out;
}

void MembershipBench(benchmark::State& state, simd::Backend backend) {
  Nfta a = OverlapChains(static_cast<size_t>(state.range(0)));
  if (!CompileWith(a, backend)) {
    state.SkipWithError("backend not available on this host");
    return;
  }
  const CompiledNfta& c = a.Compiled();
  std::vector<LabeledTree> probes = ProbeTrees(a);
  CompiledNfta::Workspace ws;
  size_t accepted = 0;
  for (auto _ : state) {
    for (const LabeledTree& t : probes) {
      std::vector<NftaState> b = c.AcceptingStates(t, &ws);
      benchmark::DoNotOptimize(b);
      accepted += b.size();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(probes.size()));
  state.counters["accepted"] = static_cast<double>(accepted);
  state.SetLabel(std::string("backend=") + c.kernels().name);

  // Cross-check: the SIMD run must return the scalar backend's behaviour
  // set on every probe (bit-identical kernel contract).
  if (backend != simd::Backend::kScalar) {
    Nfta ref = OverlapChains(static_cast<size_t>(state.range(0)));
    CompileWith(ref, simd::Backend::kScalar);
    CompiledNfta::Workspace ref_ws;
    for (const LabeledTree& t : probes) {
      if (c.AcceptingStates(t, &ws) !=
          ref.Compiled().AcceptingStates(t, &ref_ws)) {
        state.SkipWithError("SIMD membership diverged from scalar");
        return;
      }
    }
  }
}

void BM_ScalarMembership(benchmark::State& state) {
  MembershipBench(state, simd::Backend::kScalar);
}
BENCHMARK(BM_ScalarMembership)->Arg(511)->Arg(1279);

void BM_SimdMembership(benchmark::State& state) {
  MembershipBench(state, WidestBackend());
}
BENCHMARK(BM_SimdMembership)->Arg(511)->Arg(1279);

// ---------------------------------------------------------------------------
// Exact-count DP: interning hash + equality + batched combines over wide
// behaviour sets.
// ---------------------------------------------------------------------------

constexpr size_t kExactDepth = 12;

void ExactDpBench(benchmark::State& state, simd::Backend backend) {
  Nfta a = AmbiguousStrings(static_cast<size_t>(state.range(0)));
  if (!CompileWith(a, backend)) {
    state.SkipWithError("backend not available on this host");
    return;
  }
  std::string count;
  for (auto _ : state) {
    ExactTreeCounter counter(a);
    BigInt c = counter.CountUpTo(kExactDepth);
    benchmark::DoNotOptimize(c);
    count = c.ToString();
  }
  state.SetLabel(std::string("backend=") + a.Compiled().kernels().name +
                 " count=" + count);

  if (backend != simd::Backend::kScalar) {
    Nfta ref = AmbiguousStrings(static_cast<size_t>(state.range(0)));
    CompileWith(ref, simd::Backend::kScalar);
    ExactTreeCounter check(ref);
    if (check.CountUpTo(kExactDepth).ToString() != count) {
      state.SkipWithError("SIMD exact count diverged from scalar");
    }
  }
}

void BM_ScalarExactDp(benchmark::State& state) {
  ExactDpBench(state, simd::Backend::kScalar);
}
BENCHMARK(BM_ScalarExactDp)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_SimdExactDp(benchmark::State& state) {
  ExactDpBench(state, WidestBackend());
}
BENCHMARK(BM_SimdExactDp)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// FPRAS: lockstep trial batches on the active SIMD backend.
// ---------------------------------------------------------------------------

constexpr size_t kFprasDepth = 14;

void BM_V2Fpras(benchmark::State& state) {
  Nfta a = OverlapChains(static_cast<size_t>(state.range(0)));
  if (!CompileWith(a, WidestBackend())) {
    state.SkipWithError("backend not available on this host");
    return;
  }
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

  // Cross-check: the scalar backend must produce the bit-identical
  // estimate (the kernels are bit-identical by contract).
  Nfta ref = OverlapChains(static_cast<size_t>(state.range(0)));
  CompileWith(ref, simd::Backend::kScalar);
  NftaFpras check(ref, cfg);
  if (check.EstimateUpTo(kFprasDepth) != est) {
    state.SkipWithError("FPRAS estimate diverged between backends");
  }
}

BENCHMARK(BM_V2Fpras)->Arg(6)->Arg(10)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace uocqa

BENCHMARK_MAIN();
