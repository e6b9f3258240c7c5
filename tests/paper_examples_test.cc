// Golden tests reproducing, end to end, the worked examples the paper
// states with concrete numbers and figures:
//   * Example 1.1 (three repairs; uniform RF = 2/3; trust probabilities);
//   * the §5.1 instance: |ORep| = 432, the tree encoding of the repair
//     D' = {P(a1,c), S(c,d), T(d,a1), U(c,f), U(h,i)} (the paper's figure),
//     and the fact that (D, Q, H) is already in normal form;
//   * Example 5.4: s1 + s2 = 7560 + 1080 = 8640 sequences reach D';
//   * the §5.1 automata as a compiled plan serves them, trimmed to their
//     useful states, against the untrimmed construction.

#include <gtest/gtest.h>

#include "automata/exact_count.h"
#include "automata/fpras.h"
#include "base/thread_pool.h"
#include "db/blocks.h"
#include "hypertree/decomposition.h"
#include "ocqa/engine.h"
#include "ocqa/rep_builder.h"
#include "ocqa/seq_builder.h"
#include "query/parser.h"
#include "repairs/counting.h"

namespace uocqa {
namespace {

struct Paper51 {
  Database db;
  KeySet keys;
  ConjunctiveQuery query;
  HypertreeDecomposition h;

  Paper51() {
    Schema s;
    s.AddRelationOrDie("P", 2);
    s.AddRelationOrDie("S", 2);
    s.AddRelationOrDie("T", 2);
    s.AddRelationOrDie("U", 2);
    db = Database(s);
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
    for (const char* r : {"P", "S", "T", "U"}) {
      keys.SetKeyOrDie(s.Find(r), {0});
    }
    query = *ParseQuery("Ans() :- P(x,y), S(y,z), T(z,x), U(y,w)");
    // The width-2 decomposition from the paper's figure:
    //   root {x,y,z} / {P, S}; children {x,z} / {T} and {y,w} / {U}.
    VarId x = *query.FindVariable("x");
    VarId y = *query.FindVariable("y");
    VarId z = *query.FindVariable("z");
    VarId w = *query.FindVariable("w");
    DecompVertex root = h.AddNode({x, y, z}, {0, 1}, kInvalidVertex);
    h.AddNode({x, z}, {2}, root);
    h.AddNode({y, w}, {3}, root);
  }
};

TEST(Paper51Test, InstanceIsAlreadyInNormalForm) {
  Paper51 p;
  // Every relation of D occurs in Q; H is strongly complete and 2-uniform —
  // the paper builds the example directly in normal form.
  EXPECT_TRUE(IsInNormalForm(p.db, p.query, p.h));
  EXPECT_EQ(p.h.Width(), 2u);
}

TEST(Paper51Test, RepairCountIs432) {
  Paper51 p;
  BlockPartition blocks = BlockPartition::Compute(p.db, p.keys);
  EXPECT_EQ(CountOperationalRepairs(blocks).ToUint64(), 432u);
}

TEST(Paper51Test, TreeEncodingOfThePapersRepair) {
  Paper51 p;
  auto rep = BuildRepAutomaton(p.db, p.keys, p.query, p.h, {});
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  // One node per block plus the ε root.
  EXPECT_EQ(rep->tree_size, 7u);

  // The paper's figure encodes D' = {P(a1,c), S(c,d), T(d,a1), U(c,f),
  // U(h,i)} as: ε → P(a1,c) → ⊥ → S(c,d), branching into the T path and
  // the U path. Our child order is (T, U) per the fixture.
  Nfta& nfta = rep->nfta;
  auto sym = [&](const char* s) { return nfta.InternSymbol(s); };
  LabeledTree t_branch(sym("T(d,a1)"));
  LabeledTree u_branch(sym("U(c,f)"), {LabeledTree(sym("U(h,i)"))});
  LabeledTree tree(
      sym("_eps"),
      {LabeledTree(
          sym("P(a1,c)"),
          {LabeledTree(sym("_bot"),
                       {LabeledTree(sym("S(c,d)"),
                                    {t_branch, u_branch})})})});
  EXPECT_EQ(tree.Size(), rep->tree_size);
  EXPECT_TRUE(nfta.Accepts(tree)) << nfta.TreeToString(tree);

  // Decoding recovers exactly D'.
  auto kept = rep->DecodeRepair(tree, p.h);
  ASSERT_TRUE(kept.ok());
  Database repair = p.db.Subset(*kept);
  EXPECT_EQ(repair.size(), 5u);
  for (const char* fact : {"P(a1,c)", "S(c,d)", "T(d,a1)", "U(c,f)",
                           "U(h,i)"}) {
    bool found = false;
    for (const Fact& f : repair.facts()) {
      if (FactToString(repair.schema(), f) == fact) found = true;
    }
    EXPECT_TRUE(found) << fact;
  }

  // A tree keeping both P(a1,b) and P(a1,c) cannot exist: labels are one
  // per block; flipping the ⊥ to a different block's fact must be rejected.
  LabeledTree bad(
      sym("_eps"),
      {LabeledTree(
          sym("P(a1,c)"),
          {LabeledTree(sym("P(a1,b)"),  // wrong block position
                       {LabeledTree(sym("S(c,d)"),
                                    {t_branch, u_branch})})})});
  EXPECT_FALSE(nfta.Accepts(bad));
}

TEST(Paper51Test, DistinctTreesEqualEntailingRepairs) {
  Paper51 p;
  auto rep = BuildRepAutomaton(p.db, p.keys, p.query, p.h, {});
  ASSERT_TRUE(rep.ok());
  ExactTreeCounter counter(rep->nfta);
  EXPECT_EQ(counter.CountExactSize(rep->tree_size),
            CountRepairsEntailing(p.db, p.keys, p.query, {}));
}

TEST(Paper51Test, SeqAutomatonOnNormalFormInstance) {
  Paper51 p;
  auto seq = BuildSeqAutomaton(p.db, p.keys, p.query, p.h, {});
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  ExactTreeCounter counter(seq->nfta);
  EXPECT_EQ(counter.CountUpTo(seq->max_tree_size),
            CountSequencesEntailing(p.db, p.keys, p.query, {}));
}

// CompiledQuery::Rep/Seq trim the automata they serve (Nfta::Trim); the
// builders stay the untrimmed construction. On this instance the Seq
// automaton drops from over 12000 states to about 400, with equal exact
// counts and bit-identical FPRAS estimates. The untrimmed Seq FPRAS takes
// seconds per call, so the Seq side runs one seed (the smaller instances
// of automaton_trim_test run the full seed grid).
TEST(Paper51Test, TrimmedAutomataMatchTheConstruction) {
  Paper51 p;
  OcqaEngine engine(p.db, p.keys);
  Result<CompiledQuery> compiled = engine.Compile(p.query);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const NormalFormInstance& nf = compiled->nf();
  auto raw_rep = BuildRepAutomaton(nf.db, compiled->keys(), nf.query,
                                   nf.decomposition, {});
  ASSERT_TRUE(raw_rep.ok());
  auto raw_seq = BuildSeqAutomaton(nf.db, compiled->keys(), nf.query,
                                   nf.decomposition, {});
  ASSERT_TRUE(raw_seq.ok());
  Result<const RepAutomaton*> rep = compiled->Rep({});
  ASSERT_TRUE(rep.ok());
  Result<const SeqAutomaton*> seq = compiled->Seq({});
  ASSERT_TRUE(seq.ok());
  EXPECT_LT((*rep)->nfta.state_count(), raw_rep->nfta.state_count());
  EXPECT_LT((*seq)->nfta.state_count() * 10, raw_seq->nfta.state_count());

  ExactTreeCounter rep_raw(raw_rep->nfta), rep_trim((*rep)->nfta);
  EXPECT_EQ(rep_trim.CountExactSize(raw_rep->tree_size),
            rep_raw.CountExactSize(raw_rep->tree_size));
  ExactTreeCounter seq_raw(raw_seq->nfta), seq_trim((*seq)->nfta);
  EXPECT_EQ(seq_trim.CountUpTo(raw_seq->max_tree_size),
            seq_raw.CountUpTo(raw_seq->max_tree_size));

  ThreadPool pool(4);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    for (int schema : {1, 2}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        FprasConfig config;
        config.seed = seed;
        config.seed_schema = schema;
        config.threads = threads;
        ThreadPool* lanes = threads == 1 ? nullptr : &pool;
        NftaFpras rep_a(raw_rep->nfta, config, lanes);
        NftaFpras rep_b((*rep)->nfta, config, lanes);
        EXPECT_EQ(rep_a.EstimateExactSize(raw_rep->tree_size),
                  rep_b.EstimateExactSize(raw_rep->tree_size))
            << "seed " << seed << " schema " << schema;
        EXPECT_EQ(rep_a.union_estimations(), rep_b.union_estimations());
        if (seed != 1 || threads == 1) continue;
        NftaFpras seq_a(raw_seq->nfta, config, lanes);
        NftaFpras seq_b((*seq)->nfta, config, lanes);
        EXPECT_EQ(seq_a.EstimateUpTo(raw_seq->max_tree_size),
                  seq_b.EstimateUpTo(raw_seq->max_tree_size))
            << "schema " << schema;
        EXPECT_EQ(seq_a.union_estimations(), seq_b.union_estimations());
      }
    }
  }
}

TEST(Example54Test, AmplifierFactorsMatchThePaper) {
  // s1 = 1*C(1,0)*3*1*C(3,1)*1*C(4,3)*C(4,4)*1*C(5,4)*2*1*C(7,5) = 7560
  // s2 = 1*C(1,0)*3*1*C(3,1)*1*C(4,3)*C(4,4)*1*C(5,4)*1*C(6,5)   = 1080
  BigInt s1 = BigInt(1) * Binomial(1, 0) * uint64_t{3} * Binomial(3, 1) *
              Binomial(4, 3) * Binomial(4, 4) * Binomial(5, 4) *
              uint64_t{2} * Binomial(7, 5);
  BigInt s2 = BigInt(1) * Binomial(1, 0) * uint64_t{3} * Binomial(3, 1) *
              Binomial(4, 3) * Binomial(4, 4) * Binomial(5, 4) *
              Binomial(6, 5);
  EXPECT_EQ(s1.ToUint64(), 7560u);
  EXPECT_EQ(s2.ToUint64(), 1080u);
  EXPECT_EQ((s1 + s2).ToUint64(), 8640u);
}

}  // namespace
}  // namespace uocqa
