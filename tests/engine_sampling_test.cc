// Tests for OcqaEngine::SampleEntailingRepairs: samples decode to
// consistent original-database repairs that entail the answer, with a
// near-uniform empirical distribution over the entailing repairs.

#include <gtest/gtest.h>

#include <map>

#include "ocqa/engine.h"
#include "query/eval.h"
#include "query/parser.h"
#include "repairs/counting.h"

namespace uocqa {
namespace {

TEST(EngineSamplingTest, SamplesAreEntailingRepairs) {
  Schema s;
  s.AddRelationOrDie("R", 2);
  s.AddRelationOrDie("W", 2);
  Database db(s);
  db.Add("R", {"1", "a"});
  db.Add("R", {"1", "b"});
  db.Add("W", {"a", "x"});
  db.Add("W", {"b", "x"});
  db.Add("W", {"b", "y"});  // conflicts with W(b,x) under key {0}? no: same
                            // key b, different tuples -> conflict.
  KeySet keys;
  keys.SetKeyOrDie(s.Find("R"), {0});
  keys.SetKeyOrDie(s.Find("W"), {0});
  ConjunctiveQuery q = *ParseQuery("Ans() :- R(x,y), W(y,z)");
  OcqaEngine engine(db, keys);

  auto samples = engine.SampleEntailingRepairs(q, {}, 300, {}, 31);
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  ASSERT_EQ(samples->size(), 300u);
  std::map<std::vector<FactId>, int> histogram;
  for (const std::vector<FactId>& kept : *samples) {
    Database repair = db.Subset(kept);
    EXPECT_TRUE(IsConsistent(repair, keys));
    EXPECT_TRUE(Entails(repair, q));
    histogram[kept]++;
  }
  // Support covers every entailing repair.
  BigInt entailing = CountRepairsEntailing(db, keys, q, {});
  EXPECT_EQ(histogram.size(), entailing.ToUint64());
  // Rough uniformity: every entailing repair hit at least once, max/min
  // frequency ratio bounded (approximate sampler; generous bound).
  int mn = 1 << 30, mx = 0;
  for (const auto& [kept, n] : histogram) {
    mn = std::min(mn, n);
    mx = std::max(mx, n);
  }
  EXPECT_GE(mn, 1);
  EXPECT_LE(mx, mn * 6) << "suspiciously skewed sampler";
}

TEST(EngineSamplingTest, NoEntailingRepairIsNotFound) {
  Schema s;
  s.AddRelationOrDie("R", 2);
  Database db(s);
  db.Add("R", {"1", "a"});
  db.Add("R", {"1", "b"});
  KeySet keys;
  keys.SetKeyOrDie(s.Find("R"), {0});
  ConjunctiveQuery q = *ParseQuery("Ans() :- R(x,y), Missing(y)");
  OcqaEngine engine(db, keys);
  auto samples = engine.SampleEntailingRepairs(q, {}, 10);
  EXPECT_FALSE(samples.ok());
  EXPECT_EQ(samples.status().code(), StatusCode::kNotFound);
}

TEST(EngineSamplingTest, UngroupedFprasStillCorrect) {
  // The ablation configuration must preserve correctness end to end.
  Schema s;
  s.AddRelationOrDie("R", 2);
  Database db(s);
  db.Add("R", {"1", "a"});
  db.Add("R", {"1", "b"});
  db.Add("R", {"2", "a"});
  KeySet keys;
  keys.SetKeyOrDie(s.Find("R"), {0});
  ConjunctiveQuery q = *ParseQuery("Ans() :- R(x,y)");
  OcqaEngine engine(db, keys);
  ExactRF exact = engine.Exact(q, {}).ur;
  OcqaOptions options;
  options.fpras.epsilon = 0.1;
  options.fpras.seed = 13;
  options.fpras.group_disjoint_components = false;
  auto approx = engine.ApproxUr(q, {}, options);
  ASSERT_TRUE(approx.ok());
  EXPECT_NEAR(approx->value / exact.value(), 1.0, 0.15);
}

}  // namespace
}  // namespace uocqa
