// E3 — ♯P-hardness versus approximability in the data (Theorems 3.4, 3.6):
// the brute-force exact numerator enumerates all of ORep(D, Sigma)
// (exponential in the number of conflict blocks), while the FPRAS pipeline
// (normal form -> Rep[k] NFTA -> union estimation) grows polynomially.
// Compare the per-call times as the block count sweeps.

#include <benchmark/benchmark.h>

#include "ocqa/engine.h"
#include "workload/generators.h"

namespace uocqa {
namespace {

GeneratedInstance MakeInstance(size_t blocks_per_rel) {
  Rng rng(500 + blocks_per_rel);
  ConjunctiveQuery q = ChainQuery(2);
  DbGenOptions gen;
  gen.blocks_per_relation = blocks_per_rel;
  gen.min_block_size = 2;
  gen.max_block_size = 3;
  gen.domain_size = blocks_per_rel + 4;
  return GenerateDatabaseForQuery(rng, q, gen);
}

void BM_ExactNumerator(benchmark::State& state) {
  size_t blocks = static_cast<size_t>(state.range(0));
  GeneratedInstance inst = MakeInstance(blocks);
  ConjunctiveQuery q = ChainQuery(2);
  OcqaEngine engine(inst.db, inst.keys);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Exact(q, {}).ur);
  }
  state.counters["facts"] = static_cast<double>(inst.db.size());
}
BENCHMARK(BM_ExactNumerator)->DenseRange(2, 8, 2)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_FprasNumerator(benchmark::State& state) {
  size_t blocks = static_cast<size_t>(state.range(0));
  GeneratedInstance inst = MakeInstance(blocks);
  ConjunctiveQuery q = ChainQuery(2);
  OcqaEngine engine(inst.db, inst.keys);
  OcqaOptions options;
  options.fpras.epsilon = 0.25;
  options.fpras.seed = 3;
  for (auto _ : state) {
    auto r = engine.ApproxUr(q, {}, options);
    benchmark::DoNotOptimize(r);
  }
  state.counters["facts"] = static_cast<double>(inst.db.size());
}
BENCHMARK(BM_FprasNumerator)->DenseRange(2, 8, 2)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace uocqa

BENCHMARK_MAIN();
