// The correctness oracle, written apart from the program: it reads the
// generator's structured instance, enumerates block outcomes (one fact or
// none per block of size >= 2, the fact of a singleton), evaluates the query
// with its own backtracking evaluator, and counts complete repairing
// sequences from its own per-block recurrences and their binomial
// interleaving. Counts are exact 128-bit integers; the oracle refuses an
// instance whose counts would overflow.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <string>
#include <vector>

#include "gen.h"

namespace perfbench {

using u128 = unsigned __int128;

struct OracleCounts {
  u128 repairs = 0;             // |ORep|
  u128 repairs_entailing = 0;   // numerator of RF_ur
  u128 sequences = 0;           // |CRS|
  u128 sequences_entailing = 0; // numerator of RF_us
  double rf_ur() const;
  double rf_us() const;
};

/// Exact RF_ur and RF_us counts of `answer` (one constant per answer
/// variable) for `query` over `instance`. Exponential in the number of
/// conflicting blocks; the workloads keep that in the thousands.
OracleCounts OracleCount(const GenInstance& instance, const GenQuery& query,
                         const std::vector<std::string>& answer);

std::string U128ToString(u128 v);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
