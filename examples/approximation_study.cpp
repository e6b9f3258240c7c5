// The headline result as a runnable study: exact counting blows up
// exponentially with the database while the FPRAS pipeline stays
// polynomial (Theorems 3.4 + 3.6).
//
// We grow the number of conflict blocks of a fixed chain query's database
// and time (a) the brute-force exact numerator (enumerates all operational
// repairs) against (b) the automaton pipeline (normal form -> Rep[k] NFTA
// -> FPRAS estimate). The brute-force column grows with |ORep| = prod
// (n_B + 1); the FPRAS column grows polynomially with the automaton size.

#include <chrono>
#include <cstdio>

#include "db/blocks.h"
#include "ocqa/engine.h"
#include "repairs/counting.h"
#include "workload/generators.h"

using namespace uocqa;

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main() {
  ConjunctiveQuery query = ChainQuery(2);
  std::printf("query: %s\n\n", query.ToString().c_str());
  std::printf("%8s %8s %16s %12s %12s %12s %12s\n", "blocks", "facts",
              "|ORep|", "exact(ms)", "fpras(ms)", "RF exact", "RF fpras");

  // Brute force enumerates every operational repair; skip it once the
  // repair space exceeds this budget (it would take hours).
  const double kExactBudget = 2e6;

  for (size_t blocks_per_rel : {2, 4, 6, 8, 10, 12, 14}) {
    Rng rng(100 + blocks_per_rel);
    DbGenOptions gen;
    gen.blocks_per_relation = blocks_per_rel;
    gen.min_block_size = 2;
    gen.max_block_size = 3;
    gen.domain_size = blocks_per_rel + 4;
    GeneratedInstance inst = GenerateDatabaseForQuery(rng, query, gen);
    OcqaEngine engine(inst.db, inst.keys);

    BigInt orep =
        CountOperationalRepairs(BlockPartition::Compute(inst.db, inst.keys));
    bool run_exact = orep.ToDouble() <= kExactBudget;

    double exact_ms = 0;
    ExactRF exact;
    if (run_exact) {
      auto t0 = std::chrono::steady_clock::now();
      exact = engine.Exact(query, {}).ur;
      exact_ms = MillisSince(t0);
    }

    OcqaOptions options;
    options.fpras.epsilon = 0.2;
    options.fpras.seed = 1;
    auto t0 = std::chrono::steady_clock::now();
    auto approx = engine.ApproxUr(query, {}, options);
    double fpras_ms = MillisSince(t0);
    if (!approx.ok()) {
      std::fprintf(stderr, "pipeline error: %s\n",
                   approx.status().ToString().c_str());
      return 1;
    }

    char exact_time[32], exact_rf[32];
    if (run_exact) {
      std::snprintf(exact_time, sizeof(exact_time), "%.2f", exact_ms);
      std::snprintf(exact_rf, sizeof(exact_rf), "%.6f", exact.value());
    } else {
      std::snprintf(exact_time, sizeof(exact_time), "(skipped)");
      std::snprintf(exact_rf, sizeof(exact_rf), "-");
    }
    std::printf("%8zu %8zu %16s %12s %12.2f %12s %12.6f\n",
                blocks_per_rel * 2, inst.db.size(), orep.ToString().c_str(),
                exact_time, fpras_ms, exact_rf, approx->value);
  }
  std::printf(
      "\nThe exact column tracks |ORep| (exponential in the number of"
      "\nblocks) and is skipped once enumeration would exceed the budget;"
      "\nthe FPRAS keeps answering because its cost tracks the polynomial"
      "\nautomaton size — the shape of Theorems 3.4 + 3.6.\n");
  return 0;
}
