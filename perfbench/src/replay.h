// The traced run's decomposed calls: the same work a QueryService request
// does, re-done through the library's public functions with a span around
// each call, so every layer's time can be read off. Each function mirrors
// one engine entry point and returns the same answer bit for bit.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/bigint.h"
#include "db/database.h"
#include "db/keys.h"
#include "ocqa/engine.h"
#include "query/cq.h"
#include "trace.h"

namespace perfbench {

/// ParseQuery against the database's schema, traced as `query.parse`.
uocqa::ConjunctiveQuery TracedParseQuery(Tracer* tracer, const std::string& text,
                                         const uocqa::Database& db, bool* ok);

/// The join order OcqaEngine plans for its per-repair evaluations
/// (`planner.join_order`).
std::vector<size_t> TracedJoinOrder(Tracer* tracer, const uocqa::Database& db,
                                    const uocqa::ConjunctiveQuery& query);

/// |ORep| or |CRS| over a fresh block partition (`repairs.denominators`
/// around `db.block_partition`).
uocqa::BigInt TracedDenominator(Tracer* tracer, const uocqa::Database& db,
                                const uocqa::KeySet& keys, bool sequences);

/// OcqaEngine::ExactUr / ExactUs: "numerator/denominator".
std::string TracedExact(Tracer* tracer, const uocqa::Database& db, const uocqa::KeySet& keys,
                        const uocqa::ConjunctiveQuery& query,
                        const std::vector<uocqa::Value>& answer, bool sequences);

/// OcqaEngine::MonteCarloUr / MonteCarloUs at one lane.
double TracedMonteCarlo(Tracer* tracer, const uocqa::Database& db, const uocqa::KeySet& keys,
                        const uocqa::ConjunctiveQuery& query,
                        const std::vector<uocqa::Value>& answer, size_t samples,
                        uint64_t seed, bool sequences);

/// The FPRAS side of a service: a plan cache, the automaton first-build
/// spans, and memoized denominators, as one service epoch holds them.
class TracedFpras {
 public:
  TracedFpras(Tracer* tracer, const uocqa::Database& db, const uocqa::KeySet& keys)
      : tracer_(tracer), db_(db), keys_(keys), engine_(db, keys) {}
  /// OcqaEngine::ApproxUr / ApproxUs over the cached plan of `query`;
  /// false if the pipeline refused the query.
  bool Estimate(const uocqa::ConjunctiveQuery& query, const std::vector<uocqa::Value>& answer,
                const uocqa::FprasConfig& config, double* ur, double* us);

 private:
  Tracer* tracer_;
  const uocqa::Database& db_;
  const uocqa::KeySet& keys_;
  uocqa::OcqaEngine engine_;
  std::map<std::string, std::unique_ptr<uocqa::CompiledQuery>> plans_;
  std::map<std::pair<std::string, std::vector<uocqa::Value>>, bool> built_;
  std::unique_ptr<uocqa::BigInt> orep_, crs_;
};

/// Interns the comma-separated constants of an `answer=` field.
std::vector<uocqa::Value> AnswerValues(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
