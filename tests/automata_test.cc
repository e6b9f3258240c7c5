#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "automata/exact_count.h"
#include "automata/fpras.h"
#include "automata/nfta.h"
#include "base/rng.h"
#include "test_automata.h"

namespace uocqa {
namespace {

/// Unary "string" automaton accepting all {0,1}-strings (as unary trees) of
/// any positive length: L_s = 2^s.
Nfta BinaryStringsAutomaton() {
  Nfta a;
  NftaState q = a.AddState();
  NftaSymbol zero = a.InternSymbol("0");
  NftaSymbol one = a.InternSymbol("1");
  a.AddTransition(q, zero, {q});
  a.AddTransition(q, one, {q});
  a.AddTransition(q, zero, {});
  a.AddTransition(q, one, {});
  a.SetInitial(q);
  return a;
}

TEST(NftaTest, MembershipAndRuns) {
  Nfta a = BinaryStringsAutomaton();
  NftaSymbol zero = a.InternSymbol("0");
  NftaSymbol one = a.InternSymbol("1");
  LabeledTree t(zero, {LabeledTree(one, {LabeledTree(zero)})});
  EXPECT_TRUE(a.Accepts(t));
  EXPECT_EQ(a.CountAcceptingRuns(t), 1u);
  EXPECT_EQ(a.TreeToString(t), "0(1(0))");

  // Branching tree rejected (rank-2 transitions missing).
  LabeledTree bad(zero, {LabeledTree(one), LabeledTree(one)});
  EXPECT_FALSE(a.Accepts(bad));
}

TEST(NftaTest, AmbiguityRunsVersusDistinctTrees) {
  Nfta a = AmbiguousAutomaton(3);
  NftaSymbol sa = a.InternSymbol("a");
  NftaSymbol sb = a.InternSymbol("b");
  LabeledTree t(sa, {LabeledTree(sb)});
  EXPECT_TRUE(a.Accepts(t));
  EXPECT_EQ(a.CountAcceptingRuns(t), 3u);  // one per parallel branch
  ExactTreeCounter counter(a);
  EXPECT_EQ(counter.CountExactSize(2).ToUint64(), 1u);  // distinct trees!
}

TEST(NftaTest, TransitionsDeduplicated) {
  Nfta a;
  NftaState q = a.AddState();
  NftaSymbol s = a.InternSymbol("s");
  a.AddTransition(q, s, {});
  a.AddTransition(q, s, {});
  EXPECT_EQ(a.transition_count(), 1u);
}

TEST(ExactCountTest, BinaryStringsPowersOfTwo) {
  Nfta a = BinaryStringsAutomaton();
  ExactTreeCounter counter(a);
  for (size_t s = 1; s <= 10; ++s) {
    EXPECT_EQ(counter.CountExactSize(s).ToUint64(), uint64_t{1} << s)
        << "size " << s;
  }
  // Union over sizes: 2 + 4 + ... + 2^5 = 62.
  EXPECT_EQ(counter.CountUpTo(5).ToUint64(), 62u);
}

TEST(ExactCountTest, FullBinaryTreesAreCatalan) {
  Nfta a = FullBinaryTreeAutomaton();
  ExactTreeCounter counter(a);
  EXPECT_EQ(counter.CountExactSize(1).ToUint64(), 1u);
  EXPECT_EQ(counter.CountExactSize(2).ToUint64(), 0u);
  EXPECT_EQ(counter.CountExactSize(3).ToUint64(), 1u);
  EXPECT_EQ(counter.CountExactSize(5).ToUint64(), 2u);
  EXPECT_EQ(counter.CountExactSize(7).ToUint64(), 5u);
  EXPECT_EQ(counter.CountExactSize(9).ToUint64(), 14u);
  EXPECT_EQ(counter.CountExactSize(11).ToUint64(), 42u);
}

TEST(ExactCountTest, OverlappingUnions) {
  // q0 -a-> q1 (b-strings length exactly 1) and q0 -a-> q2 (b or c, length
  // 1): L(q0,2) = {a(b)} ∪ {a(b), a(c)} = 2 trees.
  Nfta a;
  NftaState q0 = a.AddState();
  NftaState q1 = a.AddState();
  NftaState q2 = a.AddState();
  NftaSymbol sa = a.InternSymbol("a");
  NftaSymbol sb = a.InternSymbol("b");
  NftaSymbol sc = a.InternSymbol("c");
  a.AddTransition(q0, sa, {q1});
  a.AddTransition(q0, sa, {q2});
  a.AddTransition(q1, sb, {});
  a.AddTransition(q2, sb, {});
  a.AddTransition(q2, sc, {});
  a.SetInitial(q0);
  ExactTreeCounter counter(a);
  EXPECT_EQ(counter.CountExactSize(2).ToUint64(), 2u);
}

// Brute-force enumeration of all trees over the automaton's alphabet with
// max rank 2, used to cross-check the exact counter on random automata.
void EnumerateTrees(size_t symbols, size_t size,
                    std::vector<LabeledTree>* out) {
  if (size == 0) return;
  for (NftaSymbol s = 0; s < symbols; ++s) {
    if (size == 1) {
      out->push_back(LabeledTree(s));
      continue;
    }
    // One child.
    std::vector<LabeledTree> subs;
    EnumerateTrees(symbols, size - 1, &subs);
    for (const LabeledTree& c : subs) {
      out->push_back(LabeledTree(s, {c}));
    }
    // Two children.
    for (size_t left = 1; left + 1 <= size - 1; ++left) {
      std::vector<LabeledTree> ls, rs;
      EnumerateTrees(symbols, left, &ls);
      EnumerateTrees(symbols, size - 1 - left, &rs);
      for (const LabeledTree& l : ls) {
        for (const LabeledTree& r : rs) {
          out->push_back(LabeledTree(s, {l, r}));
        }
      }
    }
  }
}

class RandomAutomatonTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomAutomatonTest, ExactCounterMatchesBruteForce) {
  Rng rng(GetParam());
  Nfta a;
  size_t n_states = 2 + rng.UniformIndex(3);
  size_t n_symbols = 1 + rng.UniformIndex(2);
  for (size_t i = 0; i < n_states; ++i) a.AddState();
  for (size_t s = 0; s < n_symbols; ++s) {
    a.InternSymbol("s" + std::to_string(s));
  }
  size_t n_transitions = 3 + rng.UniformIndex(8);
  for (size_t i = 0; i < n_transitions; ++i) {
    NftaState from = static_cast<NftaState>(rng.UniformIndex(n_states));
    NftaSymbol sym = static_cast<NftaSymbol>(rng.UniformIndex(n_symbols));
    size_t rank = rng.UniformIndex(3);  // 0, 1 or 2
    std::vector<NftaState> children;
    for (size_t r = 0; r < rank; ++r) {
      children.push_back(static_cast<NftaState>(rng.UniformIndex(n_states)));
    }
    a.AddTransition(from, sym, std::move(children));
  }
  a.SetInitial(0);

  ExactTreeCounter counter(a);
  for (size_t size = 1; size <= 5; ++size) {
    std::vector<LabeledTree> all;
    EnumerateTrees(n_symbols, size, &all);
    uint64_t brute = 0;
    for (const LabeledTree& t : all) {
      if (a.Accepts(t)) ++brute;
    }
    EXPECT_EQ(counter.CountExactSize(size).ToUint64(), brute)
        << "seed=" << GetParam() << " size=" << size << " "
        << a.DebugStats();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAutomatonTest,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

// --- FPRAS -------------------------------------------------------------------

TEST(FprasTest, ExactOnUnambiguousAutomaton) {
  // Components never overlap; the estimator is exact (no sampling).
  Nfta a = BinaryStringsAutomaton();
  NftaFpras fpras(a);
  EXPECT_DOUBLE_EQ(fpras.EstimateExactSize(6), 64.0);
  EXPECT_DOUBLE_EQ(fpras.EstimateUpTo(5), 62.0);
  EXPECT_EQ(fpras.union_estimations(), 0u);
}

TEST(FprasTest, CollapsesAmbiguity) {
  Nfta a = AmbiguousAutomaton(4);
  FprasConfig cfg;
  cfg.epsilon = 0.1;
  cfg.seed = 99;
  NftaFpras fpras(a, cfg);
  // Distinct trees of size s: exactly one (a(b(...b))).
  for (size_t s = 2; s <= 6; ++s) {
    EXPECT_NEAR(fpras.EstimateExactSize(s), 1.0, 0.15) << "size " << s;
  }
  EXPECT_GT(fpras.union_estimations(), 0u);
}

TEST(FprasTest, PartialOverlapEstimates) {
  // L(q0,2) from OverlappingUnions: exact value 2.
  Nfta a;
  NftaState q0 = a.AddState();
  NftaState q1 = a.AddState();
  NftaState q2 = a.AddState();
  NftaSymbol sa = a.InternSymbol("a");
  NftaSymbol sb = a.InternSymbol("b");
  NftaSymbol sc = a.InternSymbol("c");
  a.AddTransition(q0, sa, {q1});
  a.AddTransition(q0, sa, {q2});
  a.AddTransition(q1, sb, {});
  a.AddTransition(q2, sb, {});
  a.AddTransition(q2, sc, {});
  a.SetInitial(q0);
  FprasConfig cfg;
  cfg.epsilon = 0.05;
  cfg.seed = 7;
  NftaFpras fpras(a, cfg);
  EXPECT_NEAR(fpras.EstimateExactSize(2), 2.0, 0.2);
}

TEST(FprasTest, AccuracySweepOnRandomAutomata) {
  // End-to-end (1 ± eps) conformance against the exact counter, across
  // seeds. Allows a small slack on top of eps for estimator bias.
  const double kEps = 0.15;
  int total = 0;
  int within = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 1000 + 17);
    Nfta a;
    size_t n_states = 2 + rng.UniformIndex(3);
    for (size_t i = 0; i < n_states; ++i) a.AddState();
    for (size_t s = 0; s < 2; ++s) a.InternSymbol("s" + std::to_string(s));
    for (size_t i = 0; i < 8; ++i) {
      NftaState from = static_cast<NftaState>(rng.UniformIndex(n_states));
      NftaSymbol sym = static_cast<NftaSymbol>(rng.UniformIndex(2));
      size_t rank = rng.UniformIndex(3);
      std::vector<NftaState> children;
      for (size_t r = 0; r < rank; ++r) {
        children.push_back(
            static_cast<NftaState>(rng.UniformIndex(n_states)));
      }
      a.AddTransition(from, sym, std::move(children));
    }
    a.SetInitial(0);
    ExactTreeCounter counter(a);
    FprasConfig cfg;
    cfg.epsilon = kEps;
    cfg.seed = seed;
    NftaFpras fpras(a, cfg);
    for (size_t size = 2; size <= 6; ++size) {
      double exact = counter.CountExactSize(size).ToDouble();
      double approx = fpras.EstimateExactSize(size);
      ++total;
      if (exact == 0.0) {
        if (approx == 0.0) ++within;
        continue;
      }
      if (std::abs(approx - exact) <= 1.5 * kEps * exact) ++within;
    }
  }
  // At least 90% of the estimates within the (slack-extended) bound.
  EXPECT_GE(within * 10, total * 9) << within << "/" << total;
}

TEST(FprasTest, SampleProducesAcceptedTrees) {
  Nfta a = FullBinaryTreeAutomaton();
  NftaFpras fpras(a);
  Rng rng(5);
  std::set<LabeledTree> seen;
  for (int i = 0; i < 200; ++i) {
    auto t = fpras.Sample(rng, a.initial(), 7);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->Size(), 7u);
    EXPECT_TRUE(a.Accepts(*t));
    seen.insert(*t);
  }
  // All 5 full binary trees with 7 nodes should appear.
  EXPECT_EQ(seen.size(), 5u);
}

TEST(FprasTest, SampleFromEmptyLanguage) {
  Nfta a = FullBinaryTreeAutomaton();
  NftaFpras fpras(a);
  Rng rng(6);
  EXPECT_FALSE(fpras.Sample(rng, a.initial(), 2).has_value());  // even size
}

TEST(FprasTest, DeterministicGivenSeed) {
  Nfta a = AmbiguousAutomaton(3);
  FprasConfig cfg;
  cfg.seed = 123;
  NftaFpras f1(a, cfg);
  NftaFpras f2(a, cfg);
  EXPECT_DOUBLE_EQ(f1.EstimateUpTo(6), f2.EstimateUpTo(6));
}

}  // namespace
}  // namespace uocqa
