// End-to-end and cross-module properties:
//  * Proposition E.1: the normal form preserves both numerators;
//  * composite (multi-attribute) keys through the whole pipeline;
//  * degenerate instances (consistent databases, empty relations);
//  * classical subset repairs (♯SRepairs) denominators and numerators.

#include <gtest/gtest.h>

#include "base/rng.h"
#include "hypertree/ghd_search.h"
#include "hypertree/normal_form.h"
#include "ocqa/engine.h"
#include "query/eval.h"
#include "query/parser.h"
#include "repairs/counting.h"
#include "workload/generators.h"

namespace uocqa {
namespace {

KeySet RemapKeys(const KeySet& keys, const Schema& from, const Schema& to) {
  KeySet out;
  for (const auto& [rel, positions] : keys.Entries()) {
    RelationId nr = to.Find(from.name(rel));
    if (nr != kInvalidRelation) out.SetKeyOrDie(nr, positions);
  }
  return out;
}

class NormalFormPreservationTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(NormalFormPreservationTest, BothNumeratorsPreserved) {
  Rng rng(GetParam() * 97 + 11);
  // A query over two of the three relations: the third ("Extra") exercises
  // the P-chain of the construction.
  ConjunctiveQuery q = *ParseQuery("Ans() :- A(x,y), B(y,z)");
  Schema s = q.schema();
  s.AddRelationOrDie("Extra", 2);
  Database db(s);
  const char* ks[] = {"k1", "k2"};
  const char* vs[] = {"u", "v"};
  for (int i = 0; i < 4; ++i) {
    db.Add("A", {ks[rng.UniformIndex(2)], vs[rng.UniformIndex(2)]});
    db.Add("B", {vs[rng.UniformIndex(2)], ks[rng.UniformIndex(2)]});
  }
  db.Add("Extra", {"e", "1"});
  db.Add("Extra", {"e", "2"});  // a conflicted block of a non-query relation
  KeySet keys;
  for (const char* r : {"A", "B", "Extra"}) {
    keys.SetKeyOrDie(s.Find(r), {0});
  }

  auto h = DecomposeQuery(q);
  ASSERT_TRUE(h.ok());
  auto nf = ToNormalForm(db, q, *h);
  ASSERT_TRUE(nf.ok()) << nf.status().ToString();
  KeySet nf_keys = RemapKeys(keys, db.schema(), nf->db.schema());

  // Proposition E.1 (with the pad-fact fix documented in
  // docs/ARCHITECTURE.md, "Deviations and engineering notes").
  EXPECT_EQ(CountRepairsEntailing(db, keys, q, {}),
            CountRepairsEntailing(nf->db, nf_keys, nf->query, {}))
      << "seed " << GetParam();
  EXPECT_EQ(CountSequencesEntailing(db, keys, q, {}),
            CountSequencesEntailing(nf->db, nf_keys, nf->query, {}))
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalFormPreservationTest,
                         ::testing::Range(uint64_t{1}, uint64_t{11}));

TEST(CompositeKeyTest, PipelineWithTwoAttributeKey) {
  // key(R) = {1,2}: facts conflict only when both key attributes agree.
  Schema s;
  s.AddRelationOrDie("R", 3);
  s.AddRelationOrDie("W", 1);
  Database db(s);
  db.Add("R", {"a", "x", "1"});
  db.Add("R", {"a", "x", "2"});  // conflicts with the first
  db.Add("R", {"a", "y", "1"});  // different composite key: no conflict
  db.Add("W", {"1"});
  KeySet keys;
  keys.SetKeyOrDie(s.Find("R"), {0, 1});
  keys.SetKeyOrDie(s.Find("W"), {0});

  BlockPartition blocks = BlockPartition::Compute(db, keys);
  EXPECT_EQ(blocks.block_count(), 3u);
  EXPECT_EQ(blocks.ViolatingBlockCount(), 1u);
  EXPECT_EQ(CountOperationalRepairs(blocks).ToUint64(), 3u);

  ConjunctiveQuery q = *ParseQuery("Ans() :- R(a,b,c), W(c)");
  OcqaEngine engine(db, keys);
  ExactFrequencies exact = engine.Exact(q, {});
  auto via_automaton = engine.RepairsEntailingViaAutomaton(q, {});
  ASSERT_TRUE(via_automaton.ok()) << via_automaton.status().ToString();
  EXPECT_EQ(*via_automaton, exact.ur.numerator);
  auto seq_automaton = engine.SequencesEntailingViaAutomaton(q, {});
  ASSERT_TRUE(seq_automaton.ok());
  EXPECT_EQ(*seq_automaton, exact.us.numerator);
}

TEST(DegenerateTest, ConsistentDatabase) {
  Schema s;
  s.AddRelationOrDie("R", 2);
  Database db(s);
  db.Add("R", {"a", "b"});
  KeySet keys;
  keys.SetKeyOrDie(s.Find("R"), {0});
  ConjunctiveQuery q = *ParseQuery("Ans() :- R(x,y)");
  OcqaEngine engine(db, keys);
  ExactRF ur = engine.Exact(q, {}).ur;
  EXPECT_TRUE(ur.denominator.IsOne());
  EXPECT_TRUE(ur.numerator.IsOne());
  auto approx = engine.ApproxUr(q, {});
  ASSERT_TRUE(approx.ok());
  EXPECT_DOUBLE_EQ(approx->value, 1.0);
  auto approx_us = engine.ApproxUs(q, {});
  ASSERT_TRUE(approx_us.ok());
  EXPECT_DOUBLE_EQ(approx_us->value, 1.0);  // only the empty sequence
}

TEST(DegenerateTest, EmptyDatabase) {
  Schema s;
  s.AddRelationOrDie("R", 2);
  Database db(s);
  KeySet keys;
  keys.SetKeyOrDie(s.Find("R"), {0});
  ConjunctiveQuery q = *ParseQuery("Ans() :- R(x,y)");
  OcqaEngine engine(db, keys);
  ExactRF ur = engine.Exact(q, {}).ur;
  EXPECT_TRUE(ur.denominator.IsOne());  // the empty repair
  EXPECT_TRUE(ur.numerator.IsZero());
  auto approx = engine.ApproxUr(q, {});
  ASSERT_TRUE(approx.ok());
  EXPECT_DOUBLE_EQ(approx->value, 0.0);
}

TEST(ClassicalRepairTest, DenominatorAndNumerator) {
  Schema s;
  s.AddRelationOrDie("R", 2);
  Database db(s);
  db.Add("R", {"1", "a"});
  db.Add("R", {"1", "b"});
  db.Add("R", {"2", "a"});
  db.Add("R", {"2", "c"});
  KeySet keys;
  keys.SetKeyOrDie(s.Find("R"), {0});
  OcqaEngine engine(db, keys);
  // 2 blocks of size 2: 4 classical subset repairs vs 9 operational ones.
  EXPECT_EQ(engine.CountClassicalRepairs().ToUint64(), 4u);
  BlockPartition blocks = BlockPartition::Compute(db, keys);
  EXPECT_EQ(CountOperationalRepairs(blocks).ToUint64(), 9u);

  ConjunctiveQuery q = *ParseQuery("Ans(y) :- R(x,y)");
  std::vector<Value> answer = {ValuePool::Intern("a")};
  auto via_automaton = engine.ClassicalRepairsEntailingViaAutomaton(q, answer);
  ASSERT_TRUE(via_automaton.ok()) << via_automaton.status().ToString();
  EXPECT_EQ(*via_automaton,
            engine.ClassicalRepairsEntailingBruteForce(q, answer));
  // 'a' survives in 3 of the 4 classical repairs.
  EXPECT_EQ(via_automaton->ToUint64(), 3u);
}

TEST(AnswerTupleTest, UnknownConstantGivesZero) {
  Schema s;
  s.AddRelationOrDie("R", 2);
  Database db(s);
  db.Add("R", {"1", "a"});
  db.Add("R", {"1", "b"});
  KeySet keys;
  keys.SetKeyOrDie(s.Find("R"), {0});
  ConjunctiveQuery q = *ParseQuery("Ans(y) :- R(x,y)");
  OcqaEngine engine(db, keys);
  std::vector<Value> answer = {ValuePool::Intern("not-in-domain")};
  EXPECT_TRUE(engine.Exact(q, answer).ur.numerator.IsZero());
  auto via_automaton = engine.RepairsEntailingViaAutomaton(q, answer);
  ASSERT_TRUE(via_automaton.ok());
  EXPECT_TRUE(via_automaton->IsZero());
}

TEST(GeneratedPipelineTest, ExactAutomatonBruteForceAgreeAcrossShapes) {
  for (size_t arms = 2; arms <= 3; ++arms) {
    ConjunctiveQuery q = StarQuery(arms);
    Rng rng(arms * 1000);
    DbGenOptions gen;
    gen.blocks_per_relation = 2;
    gen.min_block_size = 1;
    gen.max_block_size = 2;
    gen.domain_size = 3;
    GeneratedInstance inst = GenerateDatabaseForQuery(rng, q, gen);
    OcqaEngine engine(inst.db, inst.keys);
    auto via_automaton = engine.RepairsEntailingViaAutomaton(q, {});
    ASSERT_TRUE(via_automaton.ok());
    EXPECT_EQ(*via_automaton,
              CountRepairsEntailing(inst.db, inst.keys, q, {}))
        << "arms " << arms;
  }
  // Cyclic width-2 query through the full pipeline.
  ConjunctiveQuery cyc = CycleQuery(3);
  Rng rng(77);
  DbGenOptions gen;
  gen.blocks_per_relation = 2;
  gen.min_block_size = 1;
  gen.max_block_size = 2;
  gen.domain_size = 3;
  GeneratedInstance inst = GenerateDatabaseForQuery(rng, cyc, gen);
  OcqaEngine engine(inst.db, inst.keys);
  auto via_automaton = engine.RepairsEntailingViaAutomaton(cyc, {});
  ASSERT_TRUE(via_automaton.ok());
  EXPECT_EQ(*via_automaton, CountRepairsEntailing(inst.db, inst.keys, cyc, {}));
}

}  // namespace
}  // namespace uocqa
