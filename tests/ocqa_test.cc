#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "automata/exact_count.h"
#include "base/rng.h"
#include "hypertree/ghd_search.h"
#include "hypertree/normal_form.h"
#include "ocqa/assignments.h"
#include "ocqa/engine.h"
#include "ocqa/rep_builder.h"
#include "ocqa/seq_builder.h"
#include "query/eval.h"
#include "query/parser.h"
#include "repairs/counting.h"

namespace uocqa {
namespace {

struct Instance {
  Database db;
  KeySet keys;
  ConjunctiveQuery query;
  std::vector<Value> answer;
};

/// Example 1.1 with the trivial Boolean query over Emp.
Instance EmpInstance() {
  Instance inst;
  Schema s;
  s.AddRelationOrDie("Emp", 2);
  inst.db = Database(s);
  inst.db.Add("Emp", {"1", "Alice"});
  inst.db.Add("Emp", {"1", "Tom"});
  inst.keys.SetKeyOrDie(s.Find("Emp"), {0});
  inst.query = *ParseQuery("Ans() :- Emp(x,y)");
  return inst;
}

/// The §5.1 instance: 13 facts, width-2 query.
Instance Paper51Instance() {
  Instance inst;
  Schema s;
  s.AddRelationOrDie("P", 2);
  s.AddRelationOrDie("S", 2);
  s.AddRelationOrDie("T", 2);
  s.AddRelationOrDie("U", 2);
  inst.db = Database(s);
  inst.db.Add("P", {"a1", "b"});
  inst.db.Add("P", {"a1", "c"});
  inst.db.Add("P", {"a2", "b"});
  inst.db.Add("P", {"a2", "c"});
  inst.db.Add("P", {"a2", "d"});
  inst.db.Add("S", {"c", "d"});
  inst.db.Add("S", {"c", "e"});
  inst.db.Add("T", {"d", "a1"});
  inst.db.Add("U", {"c", "f"});
  inst.db.Add("U", {"c", "g"});
  inst.db.Add("U", {"h", "i"});
  inst.db.Add("U", {"h", "j"});
  inst.db.Add("U", {"h", "k"});
  for (const char* r : {"P", "S", "T", "U"}) {
    inst.keys.SetKeyOrDie(s.Find(r), {0});
  }
  inst.query = *ParseQuery("Ans() :- P(x,y), S(y,z), T(z,x), U(y,w)");
  return inst;
}

/// A small acyclic instance with an answer variable.
Instance ChainInstance() {
  Instance inst;
  Schema s;
  s.AddRelationOrDie("R", 2);
  s.AddRelationOrDie("W", 2);
  inst.db = Database(s);
  inst.db.Add("R", {"1", "a"});
  inst.db.Add("R", {"1", "b"});
  inst.db.Add("R", {"2", "a"});
  inst.db.Add("W", {"a", "x"});
  inst.db.Add("W", {"a", "y"});
  inst.db.Add("W", {"b", "z"});
  inst.keys.SetKeyOrDie(s.Find("R"), {0});
  inst.keys.SetKeyOrDie(s.Find("W"), {0});
  inst.query = *ParseQuery("Ans(u) :- R(u,v), W(v,t)");
  inst.answer = {ValuePool::Intern("1")};
  return inst;
}

/// Builds the normal form + Rep automaton for an instance.
RepAutomaton BuildRep(const Instance& inst,
                      RepAutomatonOptions options = {}) {
  auto h = DecomposeQuery(inst.query);
  EXPECT_TRUE(h.ok()) << h.status().ToString();
  auto nf = ToNormalForm(inst.db, inst.query, *h);
  EXPECT_TRUE(nf.ok()) << nf.status().ToString();
  KeySet keys;
  for (const auto& [rel, positions] : inst.keys.Entries()) {
    RelationId nr = nf->db.schema().Find(inst.db.schema().name(rel));
    if (nr != kInvalidRelation) keys.SetKeyOrDie(nr, positions);
  }
  auto rep = BuildRepAutomaton(nf->db, keys, nf->query, nf->decomposition,
                               inst.answer, options);
  EXPECT_TRUE(rep.ok()) << rep.status().ToString();
  return std::move(rep).value();
}

// --- assignments -------------------------------------------------------------

TEST(AssignmentsTest, EnumeratesCoherentMappings) {
  Instance inst = ChainInstance();
  auto h = DecomposeQuery(inst.query);
  ASSERT_TRUE(h.ok());
  auto idx = AssignmentIndex::Build(inst.db, inst.query, *h, inst.answer);
  ASSERT_TRUE(idx.ok());
  // Some vertex holds R(u,v): with u pinned to 1, facts R(1,a), R(1,b).
  // W(v,t) must agree on v.
  size_t total = idx->TotalAssignments();
  EXPECT_GT(total, 0u);
  // Compatibility is symmetric and reflexive on a single assignment.
  for (DecompVertex v = 0; v < h->size(); ++v) {
    for (const VertexAssignment& a : idx->ForVertex(v)) {
      EXPECT_TRUE(AssignmentIndex::Compatible(a, a));
    }
  }
}

TEST(AssignmentsTest, AnswerTupleFiltersAssignments) {
  Instance inst = ChainInstance();
  auto h = DecomposeQuery(inst.query);
  ASSERT_TRUE(h.ok());
  auto idx1 = AssignmentIndex::Build(inst.db, inst.query, *h, inst.answer);
  auto idx2 = AssignmentIndex::Build(inst.db, inst.query, *h,
                                     {ValuePool::Intern("2")});
  ASSERT_TRUE(idx1.ok());
  ASSERT_TRUE(idx2.ok());
  // u=2 admits only R(2,a); strictly fewer options than u=1.
  EXPECT_LT(idx2->TotalAssignments(), idx1->TotalAssignments());
}

// --- Rep[k] ------------------------------------------------------------------

TEST(RepAutomatonTest, EmpNumeratorMatchesBruteForce) {
  Instance inst = EmpInstance();
  RepAutomaton rep = BuildRep(inst);
  ExactTreeCounter counter(rep.nfta);
  BigInt via_automaton = counter.CountExactSize(rep.tree_size);
  BigInt brute =
      CountRepairsEntailing(inst.db, inst.keys, inst.query, inst.answer);
  EXPECT_EQ(via_automaton, brute);
  EXPECT_EQ(brute.ToUint64(), 2u);
}

TEST(RepAutomatonTest, Paper51NumeratorMatchesBruteForce) {
  Instance inst = Paper51Instance();
  RepAutomaton rep = BuildRep(inst);
  ExactTreeCounter counter(rep.nfta);
  BigInt via_automaton = counter.CountExactSize(rep.tree_size);
  BigInt brute =
      CountRepairsEntailing(inst.db, inst.keys, inst.query, inst.answer);
  EXPECT_EQ(via_automaton, brute) << rep.nfta.DebugStats();
}

TEST(RepAutomatonTest, AnswerVariableInstance) {
  Instance inst = ChainInstance();
  RepAutomaton rep = BuildRep(inst);
  ExactTreeCounter counter(rep.nfta);
  EXPECT_EQ(counter.CountExactSize(rep.tree_size),
            CountRepairsEntailing(inst.db, inst.keys, inst.query,
                                  inst.answer));
  // Different answer constant, different count.
  Instance inst2 = ChainInstance();
  inst2.answer = {ValuePool::Intern("2")};
  RepAutomaton rep2 = BuildRep(inst2);
  ExactTreeCounter counter2(rep2.nfta);
  EXPECT_EQ(counter2.CountExactSize(rep2.tree_size),
            CountRepairsEntailing(inst2.db, inst2.keys, inst2.query,
                                  inst2.answer));
}

TEST(RepAutomatonTest, AcceptedTreesDecodeToEntailingRepairs) {
  Instance inst = EmpInstance();
  auto h = DecomposeQuery(inst.query);
  ASSERT_TRUE(h.ok());
  auto nf = ToNormalForm(inst.db, inst.query, *h);
  ASSERT_TRUE(nf.ok());
  KeySet keys;
  for (const auto& [rel, positions] : inst.keys.Entries()) {
    RelationId nr = nf->db.schema().Find(inst.db.schema().name(rel));
    if (nr != kInvalidRelation) keys.SetKeyOrDie(nr, positions);
  }
  auto rep = BuildRepAutomaton(nf->db, keys, nf->query, nf->decomposition,
                               inst.answer);
  ASSERT_TRUE(rep.ok());
  // Sample trees via the FPRAS sampler, decode them, check entailment.
  NftaFpras fpras(rep->nfta);
  Rng rng(17);
  std::set<std::vector<FactId>> repairs;
  for (int i = 0; i < 100; ++i) {
    auto tree = fpras.Sample(rng, rep->nfta.initial(), rep->tree_size);
    ASSERT_TRUE(tree.has_value());
    ASSERT_TRUE(rep->nfta.Accepts(*tree));
    auto kept = rep->DecodeRepair(*tree, nf->decomposition);
    ASSERT_TRUE(kept.ok()) << kept.status().ToString();
    Database repair = nf->db.Subset(*kept);
    EXPECT_TRUE(IsConsistent(repair, keys));
    QueryEvaluator eval(repair, nf->query);
    EXPECT_TRUE(eval.Entails(inst.answer));
    repairs.insert(*kept);
  }
  // Both entailing repairs (keep Alice / keep Tom) appear.
  EXPECT_EQ(repairs.size(), 2u);
}

TEST(RepAutomatonTest, ClassicalVariantMatchesBruteForce) {
  Instance inst = Paper51Instance();
  RepAutomatonOptions options;
  options.classical_repairs = true;
  RepAutomaton rep = BuildRep(inst, options);
  ExactTreeCounter counter(rep.nfta);
  OcqaEngine engine(inst.db, inst.keys);
  EXPECT_EQ(counter.CountExactSize(rep.tree_size),
            engine.ClassicalRepairsEntailingBruteForce(inst.query,
                                                       inst.answer));
}

// --- Seq[k] ------------------------------------------------------------------

TEST(SeqAutomatonTest, EmpSequenceNumeratorMatchesBruteForce) {
  Instance inst = EmpInstance();
  OcqaEngine engine(inst.db, inst.keys);
  auto via_automaton =
      engine.SequencesEntailingViaAutomaton(inst.query, inst.answer);
  ASSERT_TRUE(via_automaton.ok()) << via_automaton.status().ToString();
  BigInt brute =
      CountSequencesEntailing(inst.db, inst.keys, inst.query, inst.answer);
  EXPECT_EQ(*via_automaton, brute);
  EXPECT_EQ(brute.ToUint64(), 2u);
}

TEST(SeqAutomatonTest, TwoBlockSequenceNumeratorMatchesBruteForce) {
  Instance inst;
  Schema s;
  s.AddRelationOrDie("R", 2);
  s.AddRelationOrDie("W", 1);
  inst.db = Database(s);
  inst.db.Add("R", {"1", "a"});
  inst.db.Add("R", {"1", "b"});
  inst.db.Add("W", {"a"});
  inst.db.Add("W", {"b"});
  inst.keys.SetKeyOrDie(s.Find("R"), {0});
  inst.query = *ParseQuery("Ans() :- R(x,y), W(y)");
  OcqaEngine engine(inst.db, inst.keys);
  auto via_automaton =
      engine.SequencesEntailingViaAutomaton(inst.query, inst.answer);
  ASSERT_TRUE(via_automaton.ok()) << via_automaton.status().ToString();
  BigInt brute =
      CountSequencesEntailing(inst.db, inst.keys, inst.query, inst.answer);
  EXPECT_EQ(*via_automaton, brute);
}

TEST(SeqAutomatonTest, ThreeFactBlockWithInterleaving) {
  // One block of size 3 and one of size 2: nontrivial templates (-1/-2)
  // and amplifiers C(b,b') > 1.
  Instance inst;
  Schema s;
  s.AddRelationOrDie("R", 2);
  s.AddRelationOrDie("V", 2);
  inst.db = Database(s);
  inst.db.Add("R", {"1", "a"});
  inst.db.Add("R", {"1", "b"});
  inst.db.Add("R", {"1", "c"});
  inst.db.Add("V", {"k", "a"});
  inst.db.Add("V", {"k", "b"});
  inst.keys.SetKeyOrDie(s.Find("R"), {0});
  inst.keys.SetKeyOrDie(s.Find("V"), {0});
  inst.query = *ParseQuery("Ans() :- R(x,y), V(z,y)");
  OcqaEngine engine(inst.db, inst.keys);
  auto via_automaton =
      engine.SequencesEntailingViaAutomaton(inst.query, inst.answer);
  ASSERT_TRUE(via_automaton.ok()) << via_automaton.status().ToString();
  BigInt brute =
      CountSequencesEntailing(inst.db, inst.keys, inst.query, inst.answer);
  EXPECT_EQ(*via_automaton, brute);
  EXPECT_FALSE(brute.IsZero());
}

// --- engine end-to-end --------------------------------------------------------

TEST(EngineTest, ExactMatchesAutomatonOnAllInstances) {
  for (Instance inst : {EmpInstance(), ChainInstance(), Paper51Instance()}) {
    OcqaEngine engine(inst.db, inst.keys);
    auto via_automaton =
        engine.RepairsEntailingViaAutomaton(inst.query, inst.answer);
    ASSERT_TRUE(via_automaton.ok()) << via_automaton.status().ToString();
    EXPECT_EQ(*via_automaton,
              CountRepairsEntailing(inst.db, inst.keys, inst.query,
                                    inst.answer));
  }
}

TEST(EngineTest, ApproxUrTracksExact) {
  Instance inst = Paper51Instance();
  OcqaEngine engine(inst.db, inst.keys);
  ExactRF exact = engine.Exact(inst.query, inst.answer).ur;
  OcqaOptions options;
  options.fpras.epsilon = 0.1;
  options.fpras.seed = 21;
  auto approx = engine.ApproxUr(inst.query, inst.answer, options);
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  EXPECT_GT(approx->value, 0.0);
  EXPECT_NEAR(approx->value / exact.value(), 1.0, 0.2);
}

TEST(EngineTest, ApproxUsTracksExact) {
  Instance inst = EmpInstance();
  OcqaEngine engine(inst.db, inst.keys);
  ExactRF exact = engine.Exact(inst.query, inst.answer).us;
  OcqaOptions options;
  options.fpras.epsilon = 0.1;
  options.fpras.seed = 22;
  auto approx = engine.ApproxUs(inst.query, inst.answer, options);
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  EXPECT_NEAR(approx->value / exact.value(), 1.0, 0.2);
}

TEST(EngineTest, MonteCarloBaselinesConverge) {
  Instance inst = Paper51Instance();
  OcqaEngine engine(inst.db, inst.keys);
  ExactFrequencies exact = engine.Exact(inst.query, inst.answer);
  const ExactRF& ur = exact.ur;
  const ExactRF& us = exact.us;
  double mc_ur = engine.MonteCarloUr(inst.query, inst.answer, 20000, 5);
  double mc_us = engine.MonteCarloUs(inst.query, inst.answer, 20000, 6);
  EXPECT_NEAR(mc_ur, ur.value(), 0.02);
  EXPECT_NEAR(mc_us, us.value(), 0.02);
}

TEST(EngineTest, RejectsSelfJoins) {
  Instance inst = EmpInstance();
  OcqaEngine engine(inst.db, inst.keys);
  auto q = ParseQuery("Ans() :- Emp(x,y), Emp(y,z)");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(engine.ApproxUr(*q, {}).ok());
}

TEST(EngineTest, ZeroNumeratorWhenQueryUnsatisfiable) {
  Instance inst = EmpInstance();
  OcqaEngine engine(inst.db, inst.keys);
  auto q = ParseQuery("Ans() :- Emp(x,y), Missing(y)");
  ASSERT_TRUE(q.ok());
  auto count = engine.RepairsEntailingViaAutomaton(*q, {});
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_TRUE(count->IsZero());
  auto approx = engine.ApproxUr(*q, {});
  ASSERT_TRUE(approx.ok());
  EXPECT_DOUBLE_EQ(approx->value, 0.0);
}

// --- randomized cross-validation ----------------------------------------------

struct RandomCase {
  Instance inst;
};

RandomCase MakeRandomCase(uint64_t seed) {
  Rng rng(seed);
  RandomCase c;
  Schema s;
  s.AddRelationOrDie("A", 2);
  s.AddRelationOrDie("B", 2);
  c.inst.db = Database(s);
  // Random facts with small domains to force conflicts and joins.
  const char* keys1[] = {"k1", "k2"};
  const char* vals[] = {"u", "v", "w"};
  for (int i = 0; i < 5; ++i) {
    c.inst.db.Add("A", {keys1[rng.UniformIndex(2)],
                        vals[rng.UniformIndex(3)]});
    c.inst.db.Add("B", {vals[rng.UniformIndex(3)],
                        keys1[rng.UniformIndex(2)]});
  }
  c.inst.keys.SetKeyOrDie(s.Find("A"), {0});
  c.inst.keys.SetKeyOrDie(s.Find("B"), {0});
  c.inst.query = *ParseQuery("Ans() :- A(x,y), B(y,z)");
  return c;
}

class RandomInstanceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomInstanceTest, RepAutomatonMatchesBruteForce) {
  RandomCase c = MakeRandomCase(GetParam());
  OcqaEngine engine(c.inst.db, c.inst.keys);
  auto via_automaton =
      engine.RepairsEntailingViaAutomaton(c.inst.query, c.inst.answer);
  ASSERT_TRUE(via_automaton.ok()) << via_automaton.status().ToString();
  EXPECT_EQ(*via_automaton,
            CountRepairsEntailing(c.inst.db, c.inst.keys, c.inst.query,
                                  c.inst.answer))
      << "seed " << GetParam();
}

TEST_P(RandomInstanceTest, SeqAutomatonMatchesBruteForce) {
  RandomCase c = MakeRandomCase(GetParam());
  OcqaEngine engine(c.inst.db, c.inst.keys);
  auto via_automaton =
      engine.SequencesEntailingViaAutomaton(c.inst.query, c.inst.answer);
  ASSERT_TRUE(via_automaton.ok()) << via_automaton.status().ToString();
  EXPECT_EQ(*via_automaton,
            CountSequencesEntailing(c.inst.db, c.inst.keys, c.inst.query,
                                    c.inst.answer))
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInstanceTest,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

}  // namespace
}  // namespace uocqa
