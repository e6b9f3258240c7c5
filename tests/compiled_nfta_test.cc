// CompiledNfta: structural equivalence with the mutable Nfta it flattens,
// bitset-run equivalence with the legacy sorted-vector membership oracle,
// bit-identity pins for the FPRAS selection/sampling rewrite, and the
// co-acceptance relation behind the FPRAS's disjoint-union shortcut.

#include "automata/compiled_nfta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "automata/exact_count.h"
#include "automata/fpras.h"
#include "automata/nfta.h"
#include "base/rng.h"
#include "test_automata.h"

namespace uocqa {
namespace {

Nfta RandomAutomaton(uint64_t seed) {
  Rng rng(seed);
  Nfta a;
  size_t n_states = 2 + rng.UniformIndex(4);
  size_t n_symbols = 1 + rng.UniformIndex(3);
  for (size_t i = 0; i < n_states; ++i) a.AddState();
  for (size_t s = 0; s < n_symbols; ++s) {
    a.InternSymbol("s" + std::to_string(s));
  }
  size_t n_transitions = 4 + rng.UniformIndex(10);
  for (size_t i = 0; i < n_transitions; ++i) {
    NftaState from = static_cast<NftaState>(rng.UniformIndex(n_states));
    NftaSymbol sym = static_cast<NftaSymbol>(rng.UniformIndex(n_symbols));
    size_t rank = rng.UniformIndex(4);  // 0..3
    std::vector<NftaState> children;
    for (size_t r = 0; r < rank; ++r) {
      children.push_back(static_cast<NftaState>(rng.UniformIndex(n_states)));
    }
    a.AddTransition(from, sym, std::move(children));
  }
  a.SetInitial(0);
  return a;
}

// The pre-flattening membership oracle, kept verbatim as the reference:
// bottom-up sorted behaviour vectors probed by binary_search.
std::vector<NftaState> LegacyAcceptingStates(const Nfta& a,
                                             const LabeledTree& tree) {
  std::vector<std::vector<NftaState>> child_behaviors;
  child_behaviors.reserve(tree.children.size());
  for (const LabeledTree& c : tree.children) {
    child_behaviors.push_back(LegacyAcceptingStates(a, c));
  }
  std::vector<NftaState> out;
  for (const NftaTransition* t : a.TransitionsWithSymbol(tree.symbol)) {
    if (t->children.size() != tree.children.size()) continue;
    bool ok = true;
    for (size_t i = 0; i < t->children.size(); ++i) {
      if (!std::binary_search(child_behaviors[i].begin(),
                              child_behaviors[i].end(), t->children[i])) {
        ok = false;
        break;
      }
    }
    if (ok) out.push_back(t->from);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void EnumerateTrees(size_t symbols, size_t size, size_t max_rank,
                    std::vector<LabeledTree>* out) {
  if (size == 0) return;
  for (NftaSymbol s = 0; s < symbols; ++s) {
    if (size == 1) {
      out->push_back(LabeledTree(s));
      continue;
    }
    if (max_rank >= 1) {
      std::vector<LabeledTree> subs;
      EnumerateTrees(symbols, size - 1, max_rank, &subs);
      for (const LabeledTree& c : subs) {
        out->push_back(LabeledTree(s, {c}));
      }
    }
    if (max_rank >= 2) {
      for (size_t left = 1; left + 1 <= size - 1; ++left) {
        std::vector<LabeledTree> ls, rs;
        EnumerateTrees(symbols, left, max_rank, &ls);
        EnumerateTrees(symbols, size - 1 - left, max_rank, &rs);
        for (const LabeledTree& l : ls) {
          for (const LabeledTree& r : rs) {
            out->push_back(LabeledTree(s, {l, r}));
          }
        }
      }
    }
  }
}

// --- CSR structure -----------------------------------------------------------

class CompiledStructureTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompiledStructureTest, CsrMatchesSourceAutomaton) {
  Nfta a = RandomAutomaton(GetParam());
  const CompiledNfta& c = a.Compiled();

  EXPECT_EQ(c.state_count(), a.state_count());
  EXPECT_EQ(c.symbol_count(), a.symbol_count());
  EXPECT_EQ(c.transition_count(), a.transition_count());
  EXPECT_EQ(c.max_rank(), a.MaxRank());
  EXPECT_EQ(c.initial(), a.initial());
  EXPECT_EQ(c.words_per_set(), (a.state_count() + 63) / 64);

  // The by-from view is the dense id order; every transition matches its
  // source, children inlined in the arena in order.
  size_t total = 0;
  for (NftaState q = 0; q < a.state_count(); ++q) {
    const std::vector<NftaTransition>& src = a.TransitionsFrom(q);
    CompiledNfta::IdRange range = c.TransitionsFrom(q);
    ASSERT_EQ(range.size(), src.size()) << "state " << q;
    for (size_t i = 0; i < src.size(); ++i) {
      CompiledNfta::TransitionId id = range.begin + i;
      EXPECT_EQ(c.from(id), src[i].from);
      EXPECT_EQ(c.symbol(id), src[i].symbol);
      ASSERT_EQ(c.rank(id), src[i].children.size());
      for (size_t k = 0; k < src[i].children.size(); ++k) {
        EXPECT_EQ(c.children(id)[k], src[i].children[k]);
      }
    }
    total += src.size();
  }
  EXPECT_EQ(total, c.transition_count());

  // The by-symbol view contains exactly the transitions of each symbol.
  for (NftaSymbol s = 0; s < a.symbol_count(); ++s) {
    CompiledNfta::IdRange range = c.TransitionsWithSymbol(s);
    EXPECT_EQ(range.size(), a.TransitionsWithSymbol(s).size());
    for (uint32_t i = range.begin; i < range.end; ++i) {
      EXPECT_EQ(c.symbol(c.group_id(i)), s);
    }
  }

  // (symbol, rank) groups partition all ids; GroupIndex agrees.
  size_t grouped = 0;
  for (size_t gi = 0; gi < c.symbol_rank_groups().size(); ++gi) {
    const CompiledNfta::SymbolRankGroup& g = c.symbol_rank_groups()[gi];
    EXPECT_EQ(c.GroupIndex(g.symbol, g.rank), static_cast<int32_t>(gi));
    for (uint32_t i = g.ids_begin; i < g.ids_end; ++i) {
      CompiledNfta::TransitionId id = c.group_id(i);
      EXPECT_EQ(c.symbol(id), g.symbol);
      EXPECT_EQ(c.rank(id), g.rank);
      ++grouped;
    }
  }
  EXPECT_EQ(grouped, c.transition_count());
  EXPECT_EQ(c.GroupIndex(0, 17), -1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledStructureTest,
                         ::testing::Range(uint64_t{1}, uint64_t{16}));

// --- membership equivalence --------------------------------------------------

class CompiledMembershipTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompiledMembershipTest, BitsetRunMatchesLegacyOracle) {
  Nfta a = RandomAutomaton(GetParam() * 131 + 7);
  const CompiledNfta& c = a.Compiled();
  CompiledNfta::Workspace ws;
  std::vector<uint64_t> behavior(c.words_per_set());
  for (size_t size = 1; size <= 5; ++size) {
    std::vector<LabeledTree> all;
    EnumerateTrees(a.symbol_count(), size, 2, &all);
    for (const LabeledTree& t : all) {
      std::vector<NftaState> legacy = LegacyAcceptingStates(a, t);
      // Nfta::AcceptingStates (the compiled delegate) and the raw bitset
      // run agree with the legacy sorted-vector oracle.
      EXPECT_EQ(a.AcceptingStates(t), legacy);
      EXPECT_EQ(c.AcceptingStates(t, &ws), legacy);
      c.BehaviorOf(t, &ws, behavior.data());
      std::vector<NftaState> bits;
      c.AppendSetBits(behavior.data(), &bits);
      EXPECT_EQ(bits, legacy);
      // Accepts / AcceptsFrom agree with membership and with run counting
      // (a tree is accepted iff it has at least one accepting run).
      bool accepted = std::binary_search(legacy.begin(), legacy.end(),
                                         a.initial());
      EXPECT_EQ(a.Accepts(t), accepted);
      EXPECT_EQ(c.Accepts(t, &ws), accepted);
      EXPECT_EQ(a.CountAcceptingRuns(t) > 0, accepted);
      for (NftaState q = 0; q < a.state_count(); ++q) {
        EXPECT_EQ(c.AcceptsFrom(q, t, &ws),
                  std::binary_search(legacy.begin(), legacy.end(), q));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledMembershipTest,
                         ::testing::Range(uint64_t{1}, uint64_t{16}));

TEST(CompiledNftaTest, RebuiltAfterMutation) {
  Nfta a;
  NftaState q = a.AddState();
  NftaSymbol x = a.InternSymbol("x");
  a.AddTransition(q, x, {});
  a.SetInitial(q);
  EXPECT_FALSE(a.Accepts(LabeledTree(x, {LabeledTree(x)})));
  // Mutating the automaton invalidates the compiled view.
  a.AddTransition(q, x, {q});
  EXPECT_TRUE(a.Accepts(LabeledTree(x, {LabeledTree(x)})));
  EXPECT_EQ(a.Compiled().transition_count(), 2u);
  // New states widen the bitsets.
  NftaState q2 = a.AddState();
  NftaSymbol y = a.InternSymbol("y");
  a.AddTransition(q2, y, {});
  a.AddTransition(q, x, {q2});
  EXPECT_TRUE(a.Accepts(LabeledTree(x, {LabeledTree(y)})));
}

TEST(CompiledNftaTest, SnapshotOutlivesMutation) {
  Nfta a;
  NftaState q = a.AddState();
  NftaSymbol x = a.InternSymbol("x");
  a.AddTransition(q, x, {});
  a.SetInitial(q);
  std::shared_ptr<const CompiledNfta> snap = a.CompiledShared();
  a.AddTransition(q, x, {q});
  // The snapshot still describes the automaton as it was.
  EXPECT_EQ(snap->transition_count(), 1u);
  EXPECT_EQ(a.Compiled().transition_count(), 2u);
  CompiledNfta::Workspace ws;
  EXPECT_FALSE(snap->Accepts(LabeledTree(x, {LabeledTree(x)}), &ws));
}

TEST(CompiledNftaTest, WorkspaceReusableAcrossAutomata) {
  CompiledNfta::Workspace ws;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    Nfta a = RandomAutomaton(seed);
    const CompiledNfta& c = a.Compiled();
    std::vector<LabeledTree> all;
    EnumerateTrees(a.symbol_count(), 3, 2, &all);
    for (const LabeledTree& t : all) {
      EXPECT_EQ(c.AcceptingStates(t, &ws), LegacyAcceptingStates(a, t));
    }
  }
}

// --- Trim --------------------------------------------------------------------

// A random rank <= 2 automaton over 1-3 symbols whose state ids interleave
// three roles: live states (random transitions among live states, some of
// which also use a dead child), planted dead states (every transition has
// a dead child, so none accepts a tree) and planted unreachable states
// (productive, but no live or dead state's transition names them).
Nfta RandomAutomatonWithDeadStates(uint64_t seed) {
  Rng rng(seed);
  Nfta a;
  size_t n_states = 6 + rng.UniformIndex(10);
  size_t n_symbols = 1 + rng.UniformIndex(3);
  enum Role { kLive, kDead, kUnreachable };
  std::vector<Role> role(n_states, kLive);
  std::vector<NftaState> live, dead, unreachable;
  for (size_t q = 0; q < n_states; ++q) {
    a.AddState();
    // The initial state 0 stays live, states 1 and 2 plant one dead and
    // one unreachable state, and every other role is drawn.
    if (q == 1) role[q] = kDead;
    if (q == 2) role[q] = kUnreachable;
    if (q > 2) role[q] = static_cast<Role>(rng.UniformIndex(3));
    (role[q] == kLive ? live : role[q] == kDead ? dead : unreachable)
        .push_back(static_cast<NftaState>(q));
  }
  for (size_t s = 0; s < n_symbols; ++s) {
    a.InternSymbol("s" + std::to_string(s));
  }
  auto pick = [&](const std::vector<NftaState>& from) {
    return from[rng.UniformIndex(from.size())];
  };
  auto symbol = [&] {
    return static_cast<NftaSymbol>(rng.UniformIndex(n_symbols));
  };
  size_t n_transitions = 6 + rng.UniformIndex(14);
  for (size_t i = 0; i < n_transitions; ++i) {
    size_t rank = rng.UniformIndex(3);
    std::vector<NftaState> children;
    for (size_t r = 0; r < rank; ++r) children.push_back(pick(live));
    if (!dead.empty() && rank > 0 && rng.UniformIndex(3) == 0) {
      children[rng.UniformIndex(rank)] = pick(dead);
    }
    a.AddTransition(pick(live), symbol(), std::move(children));
  }
  for (NftaState d : dead) {
    // A self-loop and a mixed binary transition, both through a dead child.
    a.AddTransition(d, symbol(), {pick(dead)});
    a.AddTransition(d, symbol(), {pick(live), d});
  }
  for (NftaState u : unreachable) {
    a.AddTransition(u, symbol(), {});
    a.AddTransition(u, symbol(), {pick(live), pick(unreachable)});
  }
  a.SetInitial(0);
  return a;
}

// The reference trim: the naive fixpoints, and the survivors listed in
// their original order (the renumbering Trim must produce).
std::vector<NftaState> ReferenceSurvivors(const Nfta& a) {
  std::vector<bool> productive(a.state_count(), false);
  auto useful = [&](const NftaTransition& t) {
    for (NftaState c : t.children) {
      if (!productive[c]) return false;
    }
    return true;
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (NftaState q = 0; q < a.state_count(); ++q) {
      if (productive[q]) continue;
      for (const NftaTransition& t : a.TransitionsFrom(q)) {
        if (useful(t)) {
          productive[q] = changed = true;
          break;
        }
      }
    }
  }
  std::vector<bool> reached(a.state_count(), false);
  if (productive[a.initial()]) reached[a.initial()] = true;
  for (bool changed = true; changed;) {
    changed = false;
    for (NftaState q = 0; q < a.state_count(); ++q) {
      if (!reached[q]) continue;
      for (const NftaTransition& t : a.TransitionsFrom(q)) {
        if (!useful(t)) continue;
        for (NftaState c : t.children) {
          if (!reached[c]) reached[c] = changed = true;
        }
      }
    }
  }
  std::vector<NftaState> out;
  for (NftaState q = 0; q < a.state_count(); ++q) {
    if (reached[q]) out.push_back(q);
  }
  return out;
}

class TrimTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TrimTest, PreservesLanguageOrderAndIsIdempotent) {
  Nfta a = RandomAutomatonWithDeadStates(GetParam() * 7919 + 3);
  Nfta t = a;
  t.Trim();
  std::vector<NftaState> survivors = ReferenceSurvivors(a);

  if (survivors.empty()) {
    EXPECT_EQ(t.state_count(), 1u);
    EXPECT_EQ(t.transition_count(), 0u);
  } else {
    // Survivors in their original order, each with its useful transitions
    // in their original order.
    ASSERT_EQ(t.state_count(), survivors.size());
    std::vector<NftaState> new_id(a.state_count(), kNoNftaState);
    for (size_t i = 0; i < survivors.size(); ++i) {
      new_id[survivors[i]] = static_cast<NftaState>(i);
    }
    EXPECT_EQ(t.initial(), new_id[a.initial()]);
    size_t transitions = 0;
    for (size_t i = 0; i < survivors.size(); ++i) {
      std::vector<NftaTransition> want;
      for (const NftaTransition& tr : a.TransitionsFrom(survivors[i])) {
        NftaTransition m{static_cast<NftaState>(i), tr.symbol, tr.children};
        bool useful = true;
        for (NftaState& c : m.children) {
          useful = useful && new_id[c] != kNoNftaState;
          c = new_id[c];
        }
        if (useful) want.push_back(std::move(m));
      }
      EXPECT_EQ(t.TransitionsFrom(static_cast<NftaState>(i)), want)
          << "state " << survivors[i];
      transitions += want.size();
    }
    EXPECT_EQ(t.transition_count(), transitions);
    // The planted dead and unreachable states are gone.
    EXPECT_LT(t.state_count(), a.state_count());
  }
  EXPECT_EQ(t.symbol_count(), a.symbol_count());

  ExactTreeCounter ca(a), ct(t);
  for (size_t size = 1; size <= 8; ++size) {
    EXPECT_EQ(ct.CountExactSize(size), ca.CountExactSize(size))
        << "size " << size;
  }
  for (size_t size = 1; size <= 6; ++size) {
    std::vector<LabeledTree> trees;
    EnumerateTrees(a.symbol_count(), size, 2, &trees);
    for (const LabeledTree& tree : trees) {
      ASSERT_EQ(t.Accepts(tree), a.Accepts(tree)) << a.TreeToString(tree);
    }
  }

  Nfta again = t;
  again.Trim();
  EXPECT_EQ(again.state_count(), t.state_count());
  EXPECT_EQ(again.initial(), t.initial());
  EXPECT_EQ(again.transition_count(), t.transition_count());
  for (NftaState q = 0; q < t.state_count(); ++q) {
    EXPECT_EQ(again.TransitionsFrom(q), t.TransitionsFrom(q));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrimTest,
                         ::testing::Range(uint64_t{1}, uint64_t{41}));

TEST(TrimTest, EmptyLanguageLeavesOneBareInitialState) {
  Nfta a;
  NftaState dead = a.AddState();
  NftaState leaf = a.AddState();
  NftaSymbol x = a.InternSymbol("x");
  NftaSymbol y = a.InternSymbol("y");
  a.AddTransition(leaf, y, {});
  a.AddTransition(dead, x, {dead, leaf});
  a.SetInitial(dead);
  EXPECT_FALSE(a.Accepts(LabeledTree(y)));
  a.EnsureCompiled();  // a stale compiled view must not survive the trim
  a.Trim();
  EXPECT_EQ(a.state_count(), 1u);
  EXPECT_EQ(a.transition_count(), 0u);
  EXPECT_EQ(a.initial(), 0u);
  EXPECT_EQ(a.symbol_count(), 2u);
  EXPECT_EQ(a.Compiled().state_count(), 1u);
  EXPECT_TRUE(a.TransitionsWithSymbol(y).empty());
  EXPECT_FALSE(a.Accepts(LabeledTree(y)));
  ExactTreeCounter counter(a);
  EXPECT_EQ(counter.CountUpTo(6), BigInt(0));
  NftaFpras fpras(a);
  EXPECT_EQ(fpras.EstimateUpTo(6), 0.0);
  EXPECT_EQ(fpras.union_estimations(), 0u);
}

// --- workspace reuse ---------------------------------------------------------

// One Workspace reused across automata of very different widths: EnsureSlots
// must regrow (and the stale contents of a previous, narrower automaton must
// never leak into results).
TEST(CompiledWorkspaceTest, EnsureSlotsRegrowsAcrossAutomata) {
  CompiledNfta::Workspace ws;

  // Small automaton first (1 word per set) to warm the workspace small.
  Nfta small = RandomAutomaton(12);
  {
    const CompiledNfta& c = small.Compiled();
    LabeledTree leaf(0);
    (void)c.Accepts(leaf, &ws);
  }
  size_t warm = ws.slots.size();

  // Wide automaton: 200 states (4 words per set), accepting chain through
  // high states only.
  Nfta wide;
  for (int i = 0; i < 200; ++i) wide.AddState();
  NftaSymbol sx = wide.InternSymbol("x");
  wide.AddTransition(190, sx, {});            // leaf accepted at state 190
  wide.AddTransition(199, sx, {190});         // unary on top
  wide.SetInitial(199);
  const CompiledNfta& c = wide.Compiled();
  ASSERT_EQ(c.words_per_set(), 4u);

  LabeledTree tree(sx, {LabeledTree(sx)});
  EXPECT_TRUE(c.Accepts(tree, &ws));
  EXPECT_GT(ws.slots.size(), warm);  // regrew for the wider sets

  // Deep tree forces slot-stack growth beyond the initial EnsureSlots.
  Nfta chain;
  for (int i = 0; i < 64; ++i) chain.AddState();
  NftaSymbol cy = chain.InternSymbol("y");
  chain.AddTransition(0, cy, {});
  chain.AddTransition(0, cy, {0});
  chain.SetInitial(0);
  const CompiledNfta& cc = chain.Compiled();
  LabeledTree spine(cy);
  for (int i = 0; i < 50; ++i) spine = LabeledTree(cy, {spine});
  EXPECT_TRUE(cc.Accepts(spine, &ws));

  // And the small automaton still evaluates correctly with the (now large)
  // workspace — no stale high words bleed through.
  std::vector<NftaState> again;
  {
    const CompiledNfta& cs = small.Compiled();
    LabeledTree leaf(0);
    again = cs.AcceptingStates(leaf, &ws);
    for (NftaState q : again) EXPECT_LT(q, cs.state_count());
  }
}

// AppendSetBits with bits only above word 0 (high-word-only sets): the
// 200-state automaton above accepts only at states 190/199, so the bitset
// run's result words 0..2 are zero and word 3 carries everything.
TEST(CompiledWorkspaceTest, AppendSetBitsHighWordOnly) {
  Nfta wide;
  for (int i = 0; i < 200; ++i) wide.AddState();
  NftaSymbol sx = wide.InternSymbol("x");
  wide.AddTransition(190, sx, {});
  wide.AddTransition(199, sx, {190});
  wide.SetInitial(199);
  const CompiledNfta& c = wide.Compiled();

  CompiledNfta::Workspace ws;
  std::vector<NftaState> leaf_states =
      c.AcceptingStates(LabeledTree(sx), &ws);
  EXPECT_EQ(leaf_states, std::vector<NftaState>{190});
  std::vector<NftaState> top_states =
      c.AcceptingStates(LabeledTree(sx, {LabeledTree(sx)}), &ws);
  EXPECT_EQ(top_states, std::vector<NftaState>{199});
}

// --- FPRAS bit-identity pins -------------------------------------------------
//
// The flattening rewrote proportional selection (prefix sums + binary
// search instead of a linear scan) and tree construction (pooled nodes
// instead of heap LabeledTrees). Both are contractually RNG-neutral: one
// uniform per pick, selecting the same index, sampling children in the
// same order. The sample traces were recorded from the pre-rewrite
// implementation at fixed seeds, and the row-caching sampler reproduces
// them; any drift in estimates or sampled trees is a regression.

TEST(FprasBitIdentityTest, SampleTracesPinned) {
  {
    Nfta a = FullBinaryTreeAutomaton();
    FprasConfig cfg;
    NftaFpras f(a, cfg);
    Rng rng(5);
    const char* kTrace[] = {
        "x(x,x(x(x,x),x(x,x)))", "x(x(x,x),x(x,x(x,x)))",
        "x(x(x,x),x(x(x,x),x))", "x(x(x(x,x),x(x,x)),x)",
        "x(x,x(x,x(x,x(x,x))))", "x(x(x(x(x,x),x),x),x)",
        "x(x(x,x(x,x(x,x))),x)", "x(x,x(x,x(x,x(x,x))))",
        "x(x,x(x,x(x,x(x,x))))", "x(x,x(x,x(x,x(x,x))))"};
    for (int i = 0; i < 10; ++i) {
      auto t = f.Sample(rng, a.initial(), 9);
      ASSERT_TRUE(t.has_value());
      EXPECT_EQ(a.TreeToString(*t), kTrace[i]) << "draw " << i;
    }
  }
  {
    // Rejection-heavy trace: random automaton with overlapping components.
    Nfta a = RandomAutomaton(3017);
    FprasConfig cfg;
    cfg.seed = 11;
    NftaFpras f(a, cfg);
    Rng rng(42);
    const char* kTrace[] = {
        "s0(s0(s0,s0(s0,s0)))",   "s0(s0(s0(s0),s0(s0)))",
        "s0(s0(s0(s0(s0(s0)))))", "s0(s0(s0(s0(s0,s0))))",
        "s0(s0(s0,s0(s0(s0))))",  "s0(s0(s0(s0),s0(s0)))",
        "s0(s0(s0(s0(s0(s0)))))", "s0(s0(s0(s0,s0),s0))",
        "s0(s0(s0,s0(s0),s0))",   "s0(s0(s0(s0),s0(s0)))"};
    for (int i = 0; i < 10; ++i) {
      auto t = f.Sample(rng, a.initial(), 6);
      ASSERT_TRUE(t.has_value());
      EXPECT_EQ(a.TreeToString(*t), kTrace[i]) << "draw " << i;
    }
  }
}

TEST(FprasBitIdentityTest, OverlapSampleTracesPinned) {
  struct Pin {
    uint64_t seed;
    const char* trace[6];
  };
  const Pin kPins[] = {
      {7,
       {"a(b(c(b(b))))", "a(c(c(b(b))))", "a(b(c),b(b))", "a(b,b(c(c)))",
        "a(b(b(b)),b)", "a(c(c(c(b))))"}},
      {21,
       {"a(b,c(b(b)))", "a(b(b),b(b))", "a(c(b),b(b))", "a(b(c(b)),b)",
        "a(b(b),c(b))", "a(c(b(b(b))))"}},
      {1234567,
       {"a(c(b(b)),b)", "a(b,c(c(b)))", "a(c,b(b(b)))", "a(c(b(c(c))))",
        "a(b(b(b)),c)", "a(b(b),c(b))"}}};
  for (const Pin& pin : kPins) {
    Nfta a = OverlapAutomaton();
    FprasConfig cfg;
    cfg.epsilon = 0.15;
    cfg.seed = pin.seed;
    NftaFpras f(a, cfg);
    // Match the recording: estimates computed first, then sampling.
    (void)f.EstimateUpTo(7);
    Rng rng(pin.seed ^ 0xabcdef);
    for (int i = 0; i < 6; ++i) {
      auto t = f.Sample(rng, a.initial(), 5);
      ASSERT_TRUE(t.has_value());
      EXPECT_EQ(a.TreeToString(*t), pin.trace[i])
          << "seed " << pin.seed << " draw " << i;
    }
  }
}

// Estimate pins, recorded once; any change to the trials' RNG consumption
// or evaluation shows up here.
TEST(FprasBitIdentityTest, AmbiguousEstimatesPinnedV2) {
  Nfta a = AmbiguousAutomaton(4);
  FprasConfig cfg;
  cfg.epsilon = 0.1;
  cfg.seed = 99;
  NftaFpras f(a, cfg);
  const double kPinned[] = {
      0.99606082426193399, 1.0109703926468721, 1.0121563810411285,
      0.9979245203100513,  1.0040238891947986, 0.99758566648312086,
      1.0021601931466813};
  for (size_t s = 2; s <= 8; ++s) {
    EXPECT_EQ(f.EstimateExactSize(s), kPinned[s - 2]) << "size " << s;
  }
  EXPECT_EQ(f.EstimateUpTo(8), 7.0208818670845865);
  EXPECT_EQ(f.union_estimations(), 7u);
}

TEST(FprasBitIdentityTest, OverlapEstimatesPinnedV2) {
  struct Pin {
    uint64_t seed;
    double upto7;
  };
  const Pin kPins[] = {{7, 338.80674671240706},
                       {21, 339.16180674671239},
                       {1234567, 338.71602820659422}};
  for (const Pin& pin : kPins) {
    Nfta a = OverlapAutomaton();
    FprasConfig cfg;
    cfg.epsilon = 0.15;
    cfg.seed = pin.seed;
    // The estimate is a function of (automaton, config) only — any thread
    // count must reproduce the serial bits (RNG streams are keyed by the
    // global trial index, so chunk partitioning is irrelevant).
    for (size_t threads : {size_t{1}, size_t{3}}) {
      cfg.threads = threads;
      NftaFpras f(a, cfg);
      EXPECT_EQ(f.EstimateUpTo(7), pin.upto7)
          << "seed " << pin.seed << " threads " << threads;
      EXPECT_EQ(f.union_estimations(), 21u);
    }
  }
}

TEST(FprasBitIdentityTest, RandomAutomataEstimatesPinnedV2) {
  struct Pin {
    uint64_t seed;
    double upto7;
    size_t unions;
  };
  const Pin kPins[] = {{1, 37.549305043244701, 11}, {2, 1.0, 0},
                       {3, 43.153455284552848, 10}, {4, 31.895191331802813, 5},
                       {5, 0.0, 0},                 {6, 1.0, 0}};
  for (const Pin& pin : kPins) {
    Nfta a = RandomAutomaton(pin.seed * 1000 + 17);
    FprasConfig cfg;
    cfg.epsilon = 0.2;
    cfg.seed = pin.seed;
    NftaFpras f(a, cfg);
    EXPECT_EQ(f.EstimateUpTo(7), pin.upto7) << "seed " << pin.seed;
    EXPECT_EQ(f.union_estimations(), pin.unions) << "seed " << pin.seed;
  }
}

TEST(FprasBitIdentityTest, ExactCountsPinned) {
  struct Pin {
    uint64_t seed;
    const char* upto9;
    size_t behaviors;
  };
  const Pin kPins[] = {{1, "197", 3}, {2, "1", 1},   {3, "277", 3},
                       {4, "128", 9}, {5, "0", 1},   {6, "1", 1}};
  for (const Pin& pin : kPins) {
    Nfta a = RandomAutomaton(pin.seed * 1000 + 17);
    ExactTreeCounter c(a);
    EXPECT_EQ(c.CountUpTo(9).ToString(), pin.upto9) << "seed " << pin.seed;
    EXPECT_EQ(c.BehaviorCount(), pin.behaviors) << "seed " << pin.seed;
  }
}

// --- co-acceptance -----------------------------------------------------------

using StatePair = std::pair<NftaState, NftaState>;

StatePair Ordered(NftaState p, NftaState q) {
  return p < q ? StatePair{p, q} : StatePair{q, p};
}

// The reference relation: the naive fixpoint over ordered state pairs, each
// co-accepting pair with a witness tree built from the first transition
// pair (same symbol and rank) whose child pairs all have witnesses.
std::map<StatePair, LabeledTree> ReferenceCoAcceptance(const Nfta& a) {
  std::map<StatePair, LabeledTree> witness;
  auto try_pair = [&](NftaState p, NftaState q) {
    for (const NftaTransition& tp : a.TransitionsFrom(p)) {
      for (const NftaTransition& tq : a.TransitionsFrom(q)) {
        if (tp.symbol != tq.symbol ||
            tp.children.size() != tq.children.size()) {
          continue;
        }
        std::vector<LabeledTree> kids;
        for (size_t k = 0; k < tp.children.size(); ++k) {
          auto it = witness.find(Ordered(tp.children[k], tq.children[k]));
          if (it == witness.end()) break;
          kids.push_back(it->second);
        }
        if (kids.size() < tp.children.size()) continue;
        witness.emplace(StatePair{p, q},
                        LabeledTree(tp.symbol, std::move(kids)));
        return true;
      }
    }
    return false;
  };
  for (bool changed = true; changed;) {
    changed = false;
    for (NftaState p = 0; p < a.state_count(); ++p) {
      for (NftaState q = p; q < a.state_count(); ++q) {
        if (witness.count({p, q}) == 0 && try_pair(p, q)) changed = true;
      }
    }
  }
  return witness;
}

class CoAcceptanceTest : public ::testing::TestWithParam<uint64_t> {};

// Over the TrimTest automata (planted dead and unreachable states): every
// verdict matches the reference fixpoint, a co-accepting verdict has a
// witness tree both states accept, and a disjoint verdict has no common
// tree of size <= 6. Pairs are asked in two orders, so verdicts are
// decided both from scratch and on top of memoized neighbours.
TEST_P(CoAcceptanceTest, MatchesTheReferenceFixpoint) {
  Nfta a = RandomAutomatonWithDeadStates(GetParam() * 7919 + 3);
  size_t n = a.state_count();
  std::map<StatePair, LabeledTree> witness = ReferenceCoAcceptance(a);
  std::vector<char> common(n * n, 0);
  for (size_t size = 1; size <= 6; ++size) {
    std::vector<LabeledTree> trees;
    EnumerateTrees(a.symbol_count(), size, 2, &trees);
    for (const LabeledTree& tree : trees) {
      std::vector<NftaState> acc = a.AcceptingStates(tree);
      for (NftaState p : acc) {
        for (NftaState q : acc) common[p * n + q] = 1;
      }
    }
  }
  std::vector<StatePair> pairs;
  for (NftaState p = 0; p < n; ++p) {
    for (NftaState q = 0; q < n; ++q) pairs.push_back({p, q});
  }
  std::shared_ptr<const CompiledNfta> compiled = a.CompiledShared();
  size_t verdicts[2] = {0, 0};  // disjoint, co-accepting
  for (bool reverse : {false, true}) {
    if (reverse) std::reverse(pairs.begin(), pairs.end());
    CoAcceptance co(*compiled);
    for (const auto& [p, q] : pairs) {
      bool verdict = co.CoAccepting(p, q);
      ++verdicts[verdict];
      auto it = witness.find(Ordered(p, q));
      ASSERT_EQ(verdict, it != witness.end()) << "pair " << p << "," << q;
      if (verdict) {
        std::vector<NftaState> acc = a.AcceptingStates(it->second);
        EXPECT_TRUE(std::binary_search(acc.begin(), acc.end(), p) &&
                    std::binary_search(acc.begin(), acc.end(), q))
            << "pair " << p << "," << q << " witness "
            << a.TreeToString(it->second);
      } else {
        EXPECT_FALSE(common[p * n + q]) << "pair " << p << "," << q;
      }
    }
  }
  // The planted dead state 1 co-accepts nothing; the planted unreachable
  // state 2 has a leaf transition, so it co-accepts with itself.
  EXPECT_GT(verdicts[0], 0u);
  EXPECT_GT(verdicts[1], 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoAcceptanceTest,
                         ::testing::Range(uint64_t{1}, uint64_t{41}));

// A union whose components are disjoint (b-chains under q1, c-chains under
// q2) is decided without sampling, and exactly.
TEST(FprasDisjointUnionTest, DisjointUnionsDrawNoSamples) {
  Nfta a;
  NftaState q0 = a.AddState();
  NftaState q1 = a.AddState();
  NftaState q2 = a.AddState();
  NftaSymbol sa = a.InternSymbol("a");
  NftaSymbol sb = a.InternSymbol("b");
  NftaSymbol sc = a.InternSymbol("c");
  a.AddTransition(q0, sa, {q1});
  a.AddTransition(q0, sa, {q2});
  a.AddTransition(q1, sb, {q1});
  a.AddTransition(q1, sb, {});
  a.AddTransition(q2, sc, {q2});
  a.AddTransition(q2, sc, {});
  a.SetInitial(q0);
  ExactTreeCounter exact(a);
  FprasConfig cfg;
  cfg.seed = 7;
  NftaFpras f(a, cfg);
  EXPECT_EQ(f.EstimateUpTo(7), std::stod(exact.CountUpTo(7).ToString()));
  EXPECT_GT(f.union_estimations(), 0u);
  EXPECT_EQ(f.klm_samples(), 0u);
}

// OverlapAutomaton's unions overlap (q1 and q2 both accept b-chains), so
// they still run Karp–Luby–Madras trials, and stay within epsilon.
TEST(FprasDisjointUnionTest, OverlappingUnionsStillSampleWithinEpsilon) {
  Nfta a = OverlapAutomaton();
  ExactTreeCounter exact(a);
  double want = std::stod(exact.CountUpTo(7).ToString());
  FprasConfig cfg;
  cfg.epsilon = 0.15;
  cfg.seed = 7;
  NftaFpras f(a, cfg);
  double got = f.EstimateUpTo(7);
  EXPECT_GT(f.klm_samples(), 0u);
  EXPECT_NEAR(got / want, 1.0, cfg.epsilon);
}

}  // namespace
}  // namespace uocqa
