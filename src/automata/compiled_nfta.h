// An immutable, cache-friendly compilation of an Nfta.
//
// The mutable Nfta stores one heap vector of NftaTransition per from-state,
// each transition owning its own heap vector of children — three pointer
// hops per transition probe, and behaviour sets as sorted state vectors
// probed by binary search. Every answer the engine produces (exact counts,
// FPRAS estimates, Monte-Carlo trials) bottoms out in millions of such
// probes, so this module flattens the automaton once into:
//
//  * a CSR layout: all transition children inlined in one contiguous arena
//    (`children_`), transition metadata in parallel flat arrays, ids dense
//    and pre-sorted by from-state so the by-from view is an index range;
//  * secondary CSR indexes over the same ids grouped by root symbol and by
//    (symbol, rank) — the probe orders of the membership oracle and of the
//    exact-count DP respectively;
//  * behaviour sets as fixed-width bitsets (`words_per_set()` uint64 words
//    per set): O(1) membership, word-wise hash/equality, and a bottom-up
//    "bitset run" (BehaviorOf / Accepts) that reuses caller-owned scratch
//    instead of allocating per tree node.
//
// A CompiledNfta is self-contained (it copies everything it needs), so it
// stays valid after the source Nfta is destroyed, and it is safe to share
// read-only across threads. Obtain one lazily via Nfta::Compiled().

#ifndef UOCQA_AUTOMATA_COMPILED_NFTA_H_
#define UOCQA_AUTOMATA_COMPILED_NFTA_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/hashing.h"
#include "base/simd_kernels.h"
#include "automata/nfta.h"

namespace uocqa {

class CompiledNfta {
 public:
  using TransitionId = uint32_t;

  /// A contiguous range of dense transition ids.
  struct IdRange {
    TransitionId begin = 0;
    TransitionId end = 0;
    size_t size() const { return end - begin; }
    bool empty() const { return begin == end; }
  };

  /// One (symbol, rank) group of the by-(symbol, rank) index. `ids` indexes
  /// into group_ids().
  struct SymbolRankGroup {
    NftaSymbol symbol = 0;
    uint32_t rank = 0;
    uint32_t ids_begin = 0;
    uint32_t ids_end = 0;
    // Offsets into the structure-of-arrays probe arenas (probe_from_ /
    // probe_child_) that mirror this group for the batched kernel probe.
    uint32_t probe_from_begin = 0;
    uint32_t probe_child_begin = 0;
  };

  explicit CompiledNfta(const Nfta& nfta);

  size_t state_count() const { return state_count_; }
  size_t symbol_count() const { return symbol_offsets_.empty() ? 0 : symbol_offsets_.size() - 1; }
  size_t transition_count() const { return from_.size(); }
  size_t max_rank() const { return max_rank_; }
  NftaState initial() const { return initial_; }

  // -- flat transition accessors --------------------------------------------
  NftaState from(TransitionId t) const { return from_[t]; }
  NftaSymbol symbol(TransitionId t) const { return symbol_[t]; }
  uint32_t rank(TransitionId t) const {
    return child_begin_[t + 1] - child_begin_[t];
  }
  /// Pointer to this transition's `rank(t)` children in the shared arena.
  const NftaState* children(TransitionId t) const {
    return children_arena_.data() + child_begin_[t];
  }

  // -- grouped views ---------------------------------------------------------
  /// Transitions from state q. Ids are dense and sorted by from-state, so
  /// this is a contiguous id range (no indirection).
  IdRange TransitionsFrom(NftaState q) const {
    if (q >= state_count_) return {};
    return {from_offsets_[q], from_offsets_[q + 1]};
  }

  /// Ids of transitions with root symbol s (see group_ids()).
  IdRange TransitionsWithSymbol(NftaSymbol s) const {
    if (s + 1 >= symbol_offsets_.size()) return {};
    return {symbol_offsets_[s], symbol_offsets_[s + 1]};
  }

  /// The distinct (symbol, rank) groups, in first-appearance order — the
  /// iteration domain of the exact-count DP.
  const std::vector<SymbolRankGroup>& symbol_rank_groups() const {
    return symbol_rank_groups_;
  }
  /// Index into symbol_rank_groups() for (s, rank), or -1 if absent.
  int32_t GroupIndex(NftaSymbol s, uint32_t rank) const {
    auto it = group_index_.find({s, rank});
    return it == group_index_.end() ? -1 : it->second;
  }
  /// The indirection array behind TransitionsWithSymbol / the groups: the
  /// id at position i of the by-symbol (and by-(symbol, rank)) ordering.
  TransitionId group_id(uint32_t i) const { return group_ids_[i]; }

  /// The structure-of-arrays view of group `gi` (an index into
  /// symbol_rank_groups()) for the batched kernel probe: from-states
  /// contiguous, children grouped by position.
  simd::GroupProbe ProbeForGroup(int32_t gi) const {
    const SymbolRankGroup& g = symbol_rank_groups_[static_cast<size_t>(gi)];
    simd::GroupProbe p;
    p.count = g.ids_end - g.ids_begin;
    p.rank = g.rank;
    p.from = probe_from_.data() + g.probe_from_begin;
    p.child = probe_child_.data() + g.probe_child_begin;
    return p;
  }

  /// The kernel backend this automaton was compiled against (snapshotted
  /// from simd::Active() at construction, so one evaluation never mixes
  /// backends).
  const simd::Kernels& kernels() const { return *k_; }

  // -- bitset behaviours -----------------------------------------------------
  /// uint64 words per state set (fixed width: ceil(state_count / 64)).
  size_t words_per_set() const { return words_per_set_; }

  /// Caller-owned scratch for the bitset runs below. Reusable across calls
  /// and across automata (buffers regrow as needed); never shared between
  /// threads.
  struct Workspace {
    std::vector<uint64_t> slots;  // stack of behaviour sets, wps words each
    // Child-set pointer scratch for the combine step. Safe to share across
    // the whole recursion: a node only fills it after all child subtrees
    // have finished evaluating, and the combine consumes it immediately.
    std::vector<const uint64_t*> child_ptrs;
    void EnsureSlots(size_t n, size_t wps) {
      if (slots.size() < n * wps) slots.resize(n * wps);
    }
  };

  /// Writes the behaviour of `tree` (the set of states accepting it) into
  /// `out` (words_per_set() words). Allocation-free once `ws` is warm.
  void BehaviorOf(const LabeledTree& tree, Workspace* ws, uint64_t* out) const;

  /// Behaviour of a node given its children's behaviours (the DP step):
  /// out = { from(t) : t in group(symbol, rank), children accepted }.
  /// `child_sets[i]` must point at words_per_set() words. `out` must not
  /// alias any child set.
  void CombineBehaviors(NftaSymbol sym, const uint64_t* const* child_sets,
                        uint32_t rank, uint64_t* out) const;

  /// Does the automaton accept `tree` from the initial state?
  bool Accepts(const LabeledTree& tree, Workspace* ws) const;
  /// Does state q accept `tree`?
  bool AcceptsFrom(NftaState q, const LabeledTree& tree, Workspace* ws) const;

  /// All states q accepting `tree`, sorted ascending (legacy interface;
  /// allocates the result vector only).
  std::vector<NftaState> AcceptingStates(const LabeledTree& tree,
                                         Workspace* ws) const;

  /// Appends the set bits of a words_per_set()-word set, ascending.
  void AppendSetBits(const uint64_t* words, std::vector<NftaState>* out) const;

  /// O(1) bit test on a words_per_set()-word set.
  static bool TestBit(const uint64_t* words, NftaState q) {
    return (words[q >> 6] >> (q & 63)) & 1u;
  }
  static void SetBit(uint64_t* words, NftaState q) {
    words[q >> 6] |= uint64_t{1} << (q & 63);
  }

 private:
  /// Recursive bitset run: evaluates `tree`'s behaviour into slot `base` of
  /// ws; slots above `base` are scratch for the subtree.
  void EvalInto(const LabeledTree& tree, Workspace* ws, size_t base) const;

  size_t state_count_ = 0;
  NftaState initial_ = kNoNftaState;
  size_t max_rank_ = 0;
  size_t words_per_set_ = 0;

  // CSR transition storage; ids sorted by from-state.
  std::vector<NftaState> from_;          // per transition
  std::vector<NftaSymbol> symbol_;       // per transition
  std::vector<uint32_t> child_begin_;    // per transition, +1 sentinel
  std::vector<NftaState> children_arena_;
  std::vector<TransitionId> from_offsets_;  // per state, +1 sentinel

  // Secondary index: ids sorted by (symbol, rank); symbol_offsets_ slices it
  // by symbol, symbol_rank_groups_ by (symbol, rank).
  std::vector<TransitionId> group_ids_;
  std::vector<uint32_t> symbol_offsets_;  // per symbol, +1 sentinel
  std::vector<SymbolRankGroup> symbol_rank_groups_;

  // Structure-of-arrays mirror of the groups for the batched kernel probe:
  // per group, `count` from-states then rank*count children grouped by
  // child position (child c of the group's transition i sits at
  // probe_child_begin + c*count + i).
  std::vector<NftaState> probe_from_;
  std::vector<NftaState> probe_child_;

  const simd::Kernels* k_ = nullptr;  // backend snapshot (never null)
  std::unordered_map<std::pair<uint32_t, uint32_t>, int32_t,
                     PairHash<uint32_t, uint32_t>>
      group_index_;
};

/// Which pairs of states accept a common tree (of any size). The relation
/// is the least fixpoint of: (p, q) co-accept if transitions
/// (p, a, p1..pr) and (q, a, q1..qr) with the same symbol and rank have
/// every (pi, qi) co-accepting — the productive states of the product
/// automaton, so it is sound and complete. A diagonal pair (p, p) is just
/// "p is productive" and only needs equal transitions, which keeps its
/// exploration on the diagonal.
///
/// Decided lazily: a query explores only the undecided pairs reachable from
/// it (decided pairs are leaves), runs the fixpoint over them and memoizes
/// every explored verdict. Not thread-safe; the FPRAS asks from its serial
/// cell-build path only.
class CoAcceptance {
 public:
  /// `c` must outlive this object.
  explicit CoAcceptance(const CompiledNfta& c) : c_(c) {}

  /// Do p and q accept some common tree?
  bool CoAccepting(NftaState p, NftaState q);

 private:
  static uint64_t Key(NftaState p, NftaState q) {
    if (p > q) std::swap(p, q);
    return (uint64_t{p} << 32) | q;
  }
  void Decide(uint64_t key);

  const CompiledNfta& c_;
  std::unordered_map<uint64_t, bool> verdict_;
};

}  // namespace uocqa

#endif  // UOCQA_AUTOMATA_COMPILED_NFTA_H_
