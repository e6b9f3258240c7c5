// E10b — exact-uniform samplers (the data-complexity Monte-Carlo regime of
// [13]): throughput of the uniform repair and uniform sequence samplers,
// and the additive convergence of the MC baselines toward the exact RF.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "ocqa/engine.h"
#include "repairs/sampling.h"
#include "workload/generators.h"

namespace uocqa {
namespace {

GeneratedInstance MakeInstance(size_t blocks) {
  Rng rng(60 + blocks);
  ConjunctiveQuery q = ChainQuery(2);
  DbGenOptions gen;
  gen.blocks_per_relation = blocks;
  gen.min_block_size = 2;
  gen.max_block_size = 4;
  gen.domain_size = 3 * blocks;
  return GenerateDatabaseForQuery(rng, q, gen);
}

void BM_UniformRepairSampler(benchmark::State& state) {
  GeneratedInstance inst = MakeInstance(static_cast<size_t>(state.range(0)));
  UniformRepairSampler sampler(inst.db, inst.keys);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
  state.counters["facts"] = static_cast<double>(inst.db.size());
}
BENCHMARK(BM_UniformRepairSampler)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_UniformSequenceSampler(benchmark::State& state) {
  GeneratedInstance inst = MakeInstance(static_cast<size_t>(state.range(0)));
  UniformSequenceSampler sampler(inst.db, inst.keys);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(rng));
  }
  state.counters["facts"] = static_cast<double>(inst.db.size());
  state.counters["log2|CRS|"] =
      sampler.total_count().IsZero() ? 0 : sampler.total_count().Log2();
}
BENCHMARK(BM_UniformSequenceSampler)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_MonteCarloUrConvergence(benchmark::State& state) {
  GeneratedInstance inst = MakeInstance(4);
  ConjunctiveQuery q = ChainQuery(2);
  OcqaEngine engine(inst.db, inst.keys);
  ExactRF exact = engine.Exact(q, {}).ur;
  size_t samples = static_cast<size_t>(state.range(0));
  double err = 0;
  for (auto _ : state) {
    double mc = engine.MonteCarloUr(q, {}, samples, 9);
    err = std::abs(mc - exact.value());
    benchmark::DoNotOptimize(mc);
  }
  state.counters["abs_err"] = err;
}
BENCHMARK(BM_MonteCarloUrConvergence)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_MonteCarloUsConvergence(benchmark::State& state) {
  GeneratedInstance inst = MakeInstance(4);
  ConjunctiveQuery q = ChainQuery(2);
  OcqaEngine engine(inst.db, inst.keys);
  ExactRF exact = engine.Exact(q, {}).us;
  size_t samples = static_cast<size_t>(state.range(0));
  double err = 0;
  for (auto _ : state) {
    double mc = engine.MonteCarloUs(q, {}, samples, 10);
    err = std::abs(mc - exact.value());
    benchmark::DoNotOptimize(mc);
  }
  state.counters["abs_err"] = err;
}
BENCHMARK(BM_MonteCarloUsConvergence)->Arg(100)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace uocqa

BENCHMARK_MAIN();
