// E5 — FPRAS guarantee (Definition of FPRAS; Theorem 4.6): the estimate
// must satisfy Pr[|Â − A| <= ε·A] >= 1 − δ. For each ε we run the pipeline
// with many seeds on instances whose exact numerator is known and report
// the observed relative-error distribution and the fraction of runs within
// the ε band. Plain table output (values, not timings).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "ocqa/engine.h"
#include "workload/generators.h"

using namespace uocqa;

int main() {
  ConjunctiveQuery query = ChainQuery(2);
  const int kSeedsPerEps = 24;
  const int kInstances = 3;

  std::printf("E5: FPRAS epsilon-conformance for RF_ur (query: %s)\n\n",
              query.ToString().c_str());
  std::printf("%8s %10s %12s %12s %16s\n", "epsilon", "runs", "mean.err",
              "max.err", "within eps");

  for (double eps : {0.5, 0.25, 0.15}) {
    std::vector<double> errors;
    for (int i = 0; i < kInstances; ++i) {
      Rng rng(700 + i);
      DbGenOptions gen;
      gen.blocks_per_relation = 3;
      gen.min_block_size = 2;
      gen.max_block_size = 3;
      gen.domain_size = 5;
      GeneratedInstance inst = GenerateDatabaseForQuery(rng, query, gen);
      OcqaEngine engine(inst.db, inst.keys);
      ExactRF exact = engine.Exact(query, {}).ur;
      if (exact.numerator.IsZero()) continue;
      double truth = exact.value();
      for (int s = 1; s <= kSeedsPerEps; ++s) {
        OcqaOptions options;
        options.fpras.epsilon = eps;
        options.fpras.delta = 0.1;
        options.fpras.seed = static_cast<uint64_t>(s * 1000 + i);
        auto approx = engine.ApproxUr(query, {}, options);
        if (!approx.ok()) continue;
        errors.push_back(std::abs(approx->value - truth) / truth);
      }
    }
    double mean = 0, mx = 0;
    size_t within = 0;
    for (double e : errors) {
      mean += e;
      mx = std::max(mx, e);
      if (e <= eps) ++within;
    }
    if (!errors.empty()) mean /= static_cast<double>(errors.size());
    std::printf("%8.2f %10zu %12.4f %12.4f %15.1f%%\n", eps, errors.size(),
                mean, mx,
                errors.empty()
                    ? 0.0
                    : 100.0 * static_cast<double>(within) /
                          static_cast<double>(errors.size()));
  }
  std::printf("\nPaper target: within-eps fraction >= 1 - delta = 90%%.\n");
  return 0;
}
