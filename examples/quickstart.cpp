// Quickstart: the paper's Example 1.1.
//
// A data-integration pipeline ingested Emp(1, Alice) and Emp(1, Tom) from
// two sources, violating the primary key of Emp. Operational repairs allow
// deleting either fact *or both* (when we trust neither source), giving
// three repairs. This program builds the instance, enumerates repairs and
// complete repairing sequences, and computes the relative frequencies
// RF_ur / RF_us of the query "is there some employee with id 1?" exactly,
// via the compiled Rep[k]/Seq[k] tree automata, and via the FPRAS.

#include <cstdio>

#include "ocqa/engine.h"
#include "query/parser.h"
#include "repairs/counting.h"
#include "repairs/probabilistic.h"
#include "repairs/operations.h"

using namespace uocqa;

int main() {
  // 1. Schema, database, primary keys.
  Schema schema;
  schema.AddRelationOrDie("Emp", 2);
  Database db(schema);
  db.Add("Emp", {"1", "Alice"});
  db.Add("Emp", {"1", "Tom"});
  KeySet keys;
  keys.SetKeyOrDie(schema.Find("Emp"), {0});  // key(Emp) = {1} in the paper

  std::printf("Database D:\n%s", db.ToString().c_str());
  std::printf("Consistent w.r.t. key(Emp)={1}: %s\n\n",
              IsConsistent(db, keys) ? "yes" : "no");

  // 2. The three complete repairing sequences and operational repairs.
  std::printf("Complete repairing sequences:\n");
  for (const RepairingSequence& s : EnumerateCompleteSequences(db, keys)) {
    Database repair = db.Subset(ApplySequence(db, s));
    std::printf("  %-28s ->  {%s}\n", SequenceToString(db, s).c_str(),
                repair.empty() ? ""
                               : FactToString(repair.schema(),
                                              repair.fact(0)).c_str());
  }

  // 3. The query: is some employee with id 1 present?
  auto query = ParseQuery("Ans() :- Emp(x, y)");
  if (!query.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }

  OcqaEngine engine(db, keys);

  // 4. Exact relative frequencies (2 of the 3 repairs/sequences entail Q).
  ExactFrequencies exact = engine.Exact(*query, {});
  const ExactRF& ur = exact.ur;
  const ExactRF& us = exact.us;
  std::printf("\nRF_ur = %s / %s = %.6f\n", ur.numerator.ToString().c_str(),
              ur.denominator.ToString().c_str(), ur.value());
  std::printf("RF_us = %s / %s = %.6f\n", us.numerator.ToString().c_str(),
              us.denominator.ToString().c_str(), us.value());

  // 5. The same numerators through the compiled tree automata (Lemmas
  //    5.2 / 5.3): normal form -> Rep[k]/Seq[k] NFTA -> distinct-tree count.
  auto rep_count = engine.RepairsEntailingViaAutomaton(*query, {});
  auto seq_count = engine.SequencesEntailingViaAutomaton(*query, {});
  if (rep_count.ok() && seq_count.ok()) {
    std::printf("\nvia Rep[k] automaton: |{D' entailing Q}| = %s\n",
                rep_count->ToString().c_str());
    std::printf("via Seq[k] automaton: |{s entailing Q}|  = %s\n",
                seq_count->ToString().c_str());
  }

  // 6. FPRAS (Theorem 3.6) and Monte-Carlo baseline.
  OcqaOptions options;
  options.fpras.epsilon = 0.1;
  options.fpras.seed = 2024;
  auto approx = engine.ApproxUr(*query, {}, options);
  if (approx.ok()) {
    std::printf("\nFPRAS  RF_ur ~= %.6f  (automaton: %zu states, %zu "
                "transitions)\n",
                approx->value, approx->automaton_states,
                approx->automaton_transitions);
  }
  std::printf("MC     RF_ur ~= %.6f  (20000 uniform repair samples)\n",
              engine.MonteCarloUr(*query, {}, 20000, 7));

  // 7. Example 1.1's original motivation: non-uniform, trust-weighted
  //    operations. With both sources 50% reliable the paper derives repair
  //    probabilities 0.25 (empty), 0.375 (Alice), 0.375 (Tom).
  ProbabilisticRepairModel model(db, keys, TrustModel{});
  const std::vector<double>& dist = model.BlockDistribution(0);
  std::printf(
      "\nTrust-weighted repairs (Example 1.1, both sources 50%% reliable):\n"
      "  Pr[{Emp(1,Alice)}] = %.3f\n"
      "  Pr[{Emp(1,Tom)}]   = %.3f\n"
      "  Pr[{}]             = %.3f\n"
      "  Pr[query true]     = %.3f\n",
      dist[0], dist[1], dist[2], model.AnswerProbabilityExact(*query, {}));
  return 0;
}
