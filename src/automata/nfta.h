// Top-down nondeterministic finite tree automata over finite ordered
// node-labelled trees (paper Appendix D).
//
// A = (S, Lambda, s_init, delta) with delta ⊆ S × Lambda × S^{<=k}. A run on
// a tree assigns states to nodes such that every node carries a transition
// consistent with its label and its children's states; A accepts if some run
// labels the root with s_init. L_n(A) is the set of accepted trees with
// exactly n nodes; ♯NFTA asks for |⋃_{i<=n} L_i(A)|.

#ifndef UOCQA_AUTOMATA_NFTA_H_
#define UOCQA_AUTOMATA_NFTA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/hashing.h"

namespace uocqa {

class CompiledNfta;

using NftaState = uint32_t;
using NftaSymbol = uint32_t;

constexpr NftaState kNoNftaState = static_cast<NftaState>(-1);

struct NftaTransition {
  NftaState from = 0;
  NftaSymbol symbol = 0;
  std::vector<NftaState> children;  // rank = children.size()

  bool operator==(const NftaTransition& o) const {
    return from == o.from && symbol == o.symbol && children == o.children;
  }
  bool operator<(const NftaTransition& o) const {
    if (from != o.from) return from < o.from;
    if (symbol != o.symbol) return symbol < o.symbol;
    return children < o.children;
  }
};

/// A finite ordered node-labelled tree.
struct LabeledTree {
  NftaSymbol symbol = 0;
  std::vector<LabeledTree> children;

  LabeledTree() = default;
  explicit LabeledTree(NftaSymbol s) : symbol(s) {}
  LabeledTree(NftaSymbol s, std::vector<LabeledTree> c)
      : symbol(s), children(std::move(c)) {}

  size_t Size() const;
  bool operator==(const LabeledTree& o) const {
    return symbol == o.symbol && children == o.children;
  }
  bool operator!=(const LabeledTree& o) const { return !(*this == o); }
  bool operator<(const LabeledTree& o) const;
};

struct LabeledTreeHash {
  size_t operator()(const LabeledTree& t) const;
};

class Nfta {
 public:
  /// Adds a fresh state.
  NftaState AddState();

  /// Adds `n` fresh states, returning the first.
  NftaState AddStates(size_t n);

  size_t state_count() const { return state_count_; }

  /// Interns a symbol by name.
  NftaSymbol InternSymbol(const std::string& name);
  const std::string& SymbolName(NftaSymbol s) const { return symbol_names_[s]; }
  size_t symbol_count() const { return symbol_names_.size(); }

  /// Adds a transition (deduplicated).
  void AddTransition(NftaState from, NftaSymbol symbol,
                     std::vector<NftaState> children);

  void SetInitial(NftaState s) { initial_ = s; }
  NftaState initial() const { return initial_; }

  const std::vector<NftaTransition>& TransitionsFrom(NftaState s) const;
  size_t transition_count() const { return transition_count_; }
  size_t MaxRank() const { return max_rank_; }

  /// Drops every useless state in linear time: first the productive states
  /// (those accepting some tree), then those reachable from the initial
  /// state through transitions whose children are all productive. Every
  /// other state, and every transition touching one, goes. The language of
  /// every surviving state is unchanged. Survivors are renumbered in their
  /// original relative order, each keeps its surviving transitions in their
  /// original order, and symbols are untouched (symbol ids stay valid). An
  /// empty language leaves one initial state with no transitions. Idempotent;
  /// invalidates the lazy views like AddTransition does.
  void Trim();

  /// All states q that accept `tree` (the tree's behaviour), sorted.
  std::vector<NftaState> AcceptingStates(const LabeledTree& tree) const;

  /// Does the automaton accept the tree (from the initial state)?
  bool Accepts(const LabeledTree& tree) const;

  /// Does state q accept the tree?
  bool AcceptsFrom(NftaState q, const LabeledTree& tree) const;

  /// Number of accepting runs on `tree` from the initial state (uint64;
  /// asserts no overflow for the sizes used in tests).
  uint64_t CountAcceptingRuns(const LabeledTree& tree) const;

  /// Renders a tree with this automaton's symbol names:
  /// "sym(child1,child2)".
  std::string TreeToString(const LabeledTree& tree) const;

  std::string DebugStats() const;

  /// Transitions with a given root symbol (lazily indexed; invalidated by
  /// AddTransition).
  const std::vector<const NftaTransition*>& TransitionsWithSymbol(
      NftaSymbol s) const;

  /// Forces the lazy symbol index to be built now. Call before handing the
  /// automaton to concurrent readers (the parallel FPRAS trials): once the
  /// index is fresh, TransitionsWithSymbol/AcceptingStates are read-only and
  /// safe to call from many threads, provided no AddTransition intervenes.
  void EnsureSymbolIndex() const;

  /// The flattened immutable view of this automaton (compiled_nfta.h): CSR
  /// transitions, by-symbol/by-rank indexes, bitset behaviour runs. Built
  /// lazily on first use and rebuilt if states/symbols/transitions were
  /// added since. Same concurrency contract as EnsureSymbolIndex: call once
  /// (e.g. via EnsureCompiled) before handing the automaton to concurrent
  /// readers; afterwards the returned reference is safe to share across
  /// threads as long as the automaton is not mutated.
  const CompiledNfta& Compiled() const;

  /// Warms both lazy views (symbol index + compiled form).
  void EnsureCompiled() const;

  /// Shared ownership of the compiled view: stays valid even if this Nfta
  /// is mutated (which rebuilds its own view) or destroyed.
  std::shared_ptr<const CompiledNfta> CompiledShared() const;

 private:
  size_t state_count_ = 0;
  NftaState initial_ = kNoNftaState;
  std::vector<std::string> symbol_names_;
  std::unordered_map<std::string, NftaSymbol> symbol_index_;
  std::vector<std::vector<NftaTransition>> transitions_;  // by from-state
  size_t transition_count_ = 0;
  size_t max_rank_ = 0;
  std::vector<NftaTransition> empty_;

  // Lazy symbol -> transitions index (rebuilt when stale).
  mutable std::vector<std::vector<const NftaTransition*>> by_symbol_;
  mutable size_t indexed_transition_count_ = 0;
  std::vector<const NftaTransition*> empty_ptrs_;

  // Lazy compiled view (shared_ptr so Nfta stays copyable; copies share the
  // immutable snapshot until one of them mutates and rebuilds its own).
  mutable std::shared_ptr<const CompiledNfta> compiled_;
};

}  // namespace uocqa

#endif  // UOCQA_AUTOMATA_NFTA_H_
