// Statistical properties tying the samplers to the exact counting layer:
//  * the uniform sequence sampler's *outcome marginals* match
//    CountSequencesForOutcome / |CRS| on the paper's §5.1 instance
//    (Example 5.4's quantity, as a distribution);
//  * per-answer-constant sweeps where the Rep[k] automaton count must track
//    the brute-force numerator for every candidate answer;
//  * the conditioned FPRAS pipeline RF_us on instances with nontrivial
//    interleaving.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "base/rng.h"
#include "ocqa/engine.h"
#include "query/parser.h"
#include "repairs/counting.h"
#include "repairs/operations.h"
#include "repairs/sampling.h"

namespace uocqa {
namespace {

TEST(DistributionTest, SequenceSamplerOutcomeMarginalsMatchExactCounts) {
  // §5.1 database: outcome probability under uniform sequences is
  // #sequences(outcome) / |CRS| — Example 5.4 computes one such count
  // (8640); here we check the whole distribution empirically.
  Schema s;
  s.AddRelationOrDie("P", 2);
  s.AddRelationOrDie("S", 2);
  s.AddRelationOrDie("T", 2);
  s.AddRelationOrDie("U", 2);
  Database db(s);
  db.Add("P", {"a1", "b"});
  db.Add("P", {"a1", "c"});
  db.Add("P", {"a2", "b"});
  db.Add("P", {"a2", "c"});
  db.Add("P", {"a2", "d"});
  db.Add("S", {"c", "d"});
  db.Add("S", {"c", "e"});
  db.Add("T", {"d", "a1"});
  db.Add("U", {"c", "f"});
  db.Add("U", {"c", "g"});
  db.Add("U", {"h", "i"});
  db.Add("U", {"h", "j"});
  db.Add("U", {"h", "k"});
  KeySet keys;
  for (const char* r : {"P", "S", "T", "U"}) {
    keys.SetKeyOrDie(s.Find(r), {0});
  }
  BlockPartition blocks = BlockPartition::Compute(db, keys);
  BigInt total = CountCompleteSequencesExact(blocks);

  // The paper's Example 5.4 outcome.
  auto find = [&](const char* rel, const char* a, const char* b) {
    return db.Find(MakeFact(db.schema(), rel, {a, b}));
  };
  std::vector<BlockOutcome> example54(6);
  example54[0] = find("P", "a1", "c");
  example54[1] = std::nullopt;
  example54[2] = find("S", "c", "d");
  example54[3] = find("T", "d", "a1");
  example54[4] = find("U", "c", "f");
  example54[5] = find("U", "h", "i");
  double p_example =
      BigInt::RatioAsDouble(CountSequencesForOutcome(blocks, example54),
                            total);
  EXPECT_NEAR(p_example, 8640.0 / total.ToDouble(), 1e-12);

  // Empirical marginal of that exact outcome under the uniform sampler.
  UniformSequenceSampler sampler(db, keys);
  ASSERT_EQ(sampler.total_count(), total);
  Rng rng(2024);
  const int kTrials = 40000;
  int hits = 0;
  for (int i = 0; i < kTrials; ++i) {
    RepairingSequence seq = sampler.Sample(rng);
    std::vector<FactId> kept = ApplySequence(db, seq);
    // Outcome of this sequence: which facts survived.
    std::vector<FactId> expected;
    for (const BlockOutcome& o : example54) {
      if (o.has_value()) expected.push_back(*o);
    }
    std::sort(expected.begin(), expected.end());
    if (kept == expected) ++hits;
  }
  double empirical = static_cast<double>(hits) / kTrials;
  // p ~= 8640 / |CRS|; allow 4-sigma binomial slack.
  double sigma = std::sqrt(p_example * (1 - p_example) / kTrials);
  EXPECT_NEAR(empirical, p_example, 4 * sigma + 1e-4)
      << "p=" << p_example << " hits=" << hits;
}

TEST(DistributionTest, AnswerSweepAutomatonMatchesBruteForce) {
  // For every candidate answer constant, the automaton numerator equals
  // the brute-force numerator (the combined pipeline is answer-aware).
  Schema s;
  s.AddRelationOrDie("R", 2);
  s.AddRelationOrDie("W", 2);
  Database db(s);
  db.Add("R", {"1", "a"});
  db.Add("R", {"1", "b"});
  db.Add("R", {"2", "a"});
  db.Add("R", {"3", "c"});
  db.Add("W", {"a", "x"});
  db.Add("W", {"b", "x"});
  db.Add("W", {"b", "y"});
  db.Add("W", {"c", "z"});
  KeySet keys;
  keys.SetKeyOrDie(s.Find("R"), {0});
  keys.SetKeyOrDie(s.Find("W"), {0});
  ConjunctiveQuery q = *ParseQuery("Ans(u) :- R(u,v), W(v,t)");
  OcqaEngine engine(db, keys);
  for (const char* candidate : {"1", "2", "3", "a", "nope"}) {
    std::vector<Value> answer = {ValuePool::Intern(candidate)};
    auto via_automaton = engine.RepairsEntailingViaAutomaton(q, answer);
    ASSERT_TRUE(via_automaton.ok()) << candidate;
    EXPECT_EQ(*via_automaton,
              CountRepairsEntailing(db, keys, q, answer))
        << "candidate " << candidate;
  }
}

TEST(DistributionTest, ApproxUsOnInterleavingHeavyInstance) {
  // RF_us through the full FPRAS pipeline on an instance whose sequence
  // counts involve nontrivial amplifiers (block sizes 3 and 2).
  Schema s;
  s.AddRelationOrDie("R", 2);
  s.AddRelationOrDie("V", 2);
  Database db(s);
  db.Add("R", {"1", "a"});
  db.Add("R", {"1", "b"});
  db.Add("R", {"1", "c"});
  db.Add("V", {"k", "a"});
  db.Add("V", {"k", "b"});
  KeySet keys;
  keys.SetKeyOrDie(s.Find("R"), {0});
  keys.SetKeyOrDie(s.Find("V"), {0});
  ConjunctiveQuery q = *ParseQuery("Ans() :- R(x,y), V(z,y)");
  OcqaEngine engine(db, keys);
  ExactRF exact = engine.Exact(q, {}).us;
  ASSERT_FALSE(exact.numerator.IsZero());
  OcqaOptions options;
  options.fpras.epsilon = 0.15;
  options.fpras.seed = 33;
  auto approx = engine.ApproxUs(q, {}, options);
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  EXPECT_NEAR(approx->value / exact.value(), 1.0, 0.25);
}

TEST(DistributionTest, RepairSamplerMarginalPerBlock) {
  // Per-block marginal of the uniform repair sampler: each of the n+1
  // outcomes of a size-n block appears with frequency 1/(n+1).
  Schema s;
  s.AddRelationOrDie("R", 2);
  Database db(s);
  db.Add("R", {"k", "a"});
  db.Add("R", {"k", "b"});
  db.Add("R", {"k", "c"});
  KeySet keys;
  keys.SetKeyOrDie(s.Find("R"), {0});
  UniformRepairSampler sampler(db, keys);
  Rng rng(5);
  std::map<std::vector<FactId>, int> counts;
  const int kTrials = 40000;
  for (int i = 0; i < kTrials; ++i) counts[sampler.Sample(rng)]++;
  ASSERT_EQ(counts.size(), 4u);  // three keep-one outcomes + empty
  for (const auto& [outcome, n] : counts) {
    EXPECT_NEAR(static_cast<double>(n) / kTrials, 0.25, 0.01);
  }
}

}  // namespace
}  // namespace uocqa
