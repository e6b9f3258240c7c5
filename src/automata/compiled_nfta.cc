#include "automata/compiled_nfta.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace uocqa {

CompiledNfta::CompiledNfta(const Nfta& nfta) : k_(&simd::Active()) {
  state_count_ = nfta.state_count();
  initial_ = nfta.initial();
  max_rank_ = nfta.MaxRank();
  words_per_set_ = (state_count_ + 63) / 64;

  size_t n_trans = nfta.transition_count();
  from_.reserve(n_trans);
  symbol_.reserve(n_trans);
  child_begin_.reserve(n_trans + 1);
  from_offsets_.reserve(state_count_ + 1);

  // Pass 1: flatten transitions in (from-state, insertion) order, inlining
  // all children into one arena. Ids are therefore dense and pre-sorted by
  // from-state: the by-from view is a plain index range.
  size_t total_children = 0;
  for (NftaState q = 0; q < state_count_; ++q) {
    for (const NftaTransition& t : nfta.TransitionsFrom(q)) {
      total_children += t.children.size();
    }
  }
  children_arena_.reserve(total_children);
  for (NftaState q = 0; q < state_count_; ++q) {
    from_offsets_.push_back(static_cast<TransitionId>(from_.size()));
    for (const NftaTransition& t : nfta.TransitionsFrom(q)) {
      from_.push_back(t.from);
      symbol_.push_back(t.symbol);
      child_begin_.push_back(static_cast<uint32_t>(children_arena_.size()));
      children_arena_.insert(children_arena_.end(), t.children.begin(),
                             t.children.end());
    }
  }
  from_offsets_.push_back(static_cast<TransitionId>(from_.size()));
  child_begin_.push_back(static_cast<uint32_t>(children_arena_.size()));

  // Pass 2: secondary index sorted by (symbol, rank), stable so each group
  // keeps the (from, insertion) order of pass 1.
  group_ids_.resize(from_.size());
  for (size_t i = 0; i < group_ids_.size(); ++i) {
    group_ids_[i] = static_cast<TransitionId>(i);
  }
  std::stable_sort(group_ids_.begin(), group_ids_.end(),
                   [this](TransitionId a, TransitionId b) {
                     if (symbol_[a] != symbol_[b]) {
                       return symbol_[a] < symbol_[b];
                     }
                     return rank(a) < rank(b);
                   });
  size_t n_symbols = nfta.symbol_count();
  symbol_offsets_.assign(n_symbols + 1, 0);
  for (TransitionId id : group_ids_) ++symbol_offsets_[symbol_[id] + 1];
  for (size_t s = 0; s < n_symbols; ++s) {
    symbol_offsets_[s + 1] += symbol_offsets_[s];
  }
  for (uint32_t i = 0; i < group_ids_.size(); ++i) {
    TransitionId id = group_ids_[i];
    NftaSymbol sym = symbol_[id];
    uint32_t r = rank(id);
    if (symbol_rank_groups_.empty() ||
        symbol_rank_groups_.back().symbol != sym ||
        symbol_rank_groups_.back().rank != r) {
      group_index_.emplace(
          std::make_pair(sym, r),
          static_cast<int32_t>(symbol_rank_groups_.size()));
      symbol_rank_groups_.push_back({sym, r, i, i + 1});
    } else {
      symbol_rank_groups_.back().ids_end = i + 1;
    }
  }

  // Pass 3: structure-of-arrays probe arenas. Each group's from-states and
  // per-position children become contiguous lanes so the kernel probe can
  // test whole strides of transitions without the per-transition id/child
  // indirection of the CSR view.
  //
  // combine_group's output is a set (plus an order-insensitive count), so
  // the probe lanes may be stored in any order. Sort them by the bitset
  // word their first child (then their from-state) lands in: automata born
  // from real queries have strongly clustered state numbering, so after
  // sorting most vector-width blocks touch a single child word and a
  // single out word — the vector backends detect that and replace their
  // gathers/scatters with broadcasts and OR-reduces.
  probe_from_.reserve(from_.size());
  probe_child_.reserve(children_arena_.size());
  std::vector<TransitionId> lane_order;
  for (SymbolRankGroup& g : symbol_rank_groups_) {
    g.probe_from_begin = static_cast<uint32_t>(probe_from_.size());
    g.probe_child_begin = static_cast<uint32_t>(probe_child_.size());
    lane_order.assign(group_ids_.begin() + g.ids_begin,
                      group_ids_.begin() + g.ids_end);
    std::stable_sort(lane_order.begin(), lane_order.end(),
                     [this, &g](TransitionId a, TransitionId b) {
                       if (g.rank > 0) {
                         uint32_t wa = children(a)[0] >> 6;
                         uint32_t wb = children(b)[0] >> 6;
                         if (wa != wb) return wa < wb;
                       }
                       return (from_[a] >> 6) < (from_[b] >> 6);
                     });
    for (TransitionId id : lane_order) probe_from_.push_back(from_[id]);
    for (uint32_t c = 0; c < g.rank; ++c) {
      for (TransitionId id : lane_order) {
        probe_child_.push_back(children(id)[c]);
      }
    }
  }
}

void CompiledNfta::CombineBehaviors(NftaSymbol sym,
                                    const uint64_t* const* child_sets,
                                    uint32_t rank, uint64_t* out) const {
  k_->clear_words(out, words_per_set_);
  int32_t gi = GroupIndex(sym, rank);
  if (gi < 0) return;
  k_->combine_group(ProbeForGroup(gi), child_sets, out);
}

void CompiledNfta::EvalInto(const LabeledTree& tree, Workspace* ws,
                            size_t base) const {
  size_t wps = words_per_set_;
  size_t rank = tree.children.size();
  ws->EnsureSlots(base + 1 + rank, wps);
  // Child i's result lands in slot base+1+i; its own recursion scribbles on
  // slots >= base+2+i, which only ever hold results of *later* siblings —
  // not yet written — so results survive until the combine below.
  for (size_t i = 0; i < rank; ++i) {
    EvalInto(tree.children[i], ws, base + 1 + i);
  }
  // All EnsureSlots growth for this subtree happened above, so pointers
  // taken from here on are stable.
  uint64_t* slot = ws->slots.data() + base * wps;
  if (rank == 0) {
    CombineBehaviors(tree.symbol, nullptr, 0, slot);
    return;
  }
  // Collect child-set pointers in the workspace scratch (allocation-free
  // once warm; safe to share across the recursion — see Workspace).
  if (ws->child_ptrs.size() < rank) ws->child_ptrs.resize(rank);
  const uint64_t** child_ptrs = ws->child_ptrs.data();
  for (size_t i = 0; i < rank; ++i) {
    child_ptrs[i] = ws->slots.data() + (base + 1 + i) * wps;
  }
  CombineBehaviors(tree.symbol, child_ptrs, static_cast<uint32_t>(rank),
                   slot);
}

void CompiledNfta::BehaviorOf(const LabeledTree& tree, Workspace* ws,
                              uint64_t* out) const {
  if (words_per_set_ == 0) return;
  EvalInto(tree, ws, 0);
  std::memcpy(out, ws->slots.data(), words_per_set_ * sizeof(uint64_t));
}

bool CompiledNfta::Accepts(const LabeledTree& tree, Workspace* ws) const {
  return AcceptsFrom(initial_, tree, ws);
}

bool CompiledNfta::AcceptsFrom(NftaState q, const LabeledTree& tree,
                               Workspace* ws) const {
  if (q == kNoNftaState || q >= state_count_) return false;
  EvalInto(tree, ws, 0);
  return TestBit(ws->slots.data(), q);
}

std::vector<NftaState> CompiledNfta::AcceptingStates(const LabeledTree& tree,
                                                     Workspace* ws) const {
  std::vector<NftaState> out;
  if (words_per_set_ == 0) return out;
  EvalInto(tree, ws, 0);
  AppendSetBits(ws->slots.data(), &out);
  return out;
}

void CompiledNfta::AppendSetBits(const uint64_t* words,
                                 std::vector<NftaState>* out) const {
  k_->append_set_bits(words, words_per_set_, out);
}

bool CoAcceptance::CoAccepting(NftaState p, NftaState q) {
  uint64_t key = Key(p, q);
  auto it = verdict_.find(key);
  if (it == verdict_.end()) {
    Decide(key);
    it = verdict_.find(key);
  }
  return it->second;
}

void CoAcceptance::Decide(uint64_t root) {
  // Explore the undecided pairs reachable from `root`. A product
  // transition (two transitions of the pair with equal symbol and rank)
  // waits on its undecided child pairs; one with a decided-false child can
  // never fire and is dropped, and one with no undecided child makes its
  // pair co-accepting on the spot (its other product transitions are then
  // not explored).
  std::unordered_map<uint64_t, uint32_t> local;  // pair -> index in pairs
  std::vector<uint64_t> pairs;
  std::vector<char> accepted;           // per pair
  std::vector<uint32_t> ready;          // accepted pairs not yet propagated
  std::vector<uint32_t> owner;          // per product transition: its pair
  std::vector<uint32_t> pending;        // per product transition
  std::vector<std::pair<uint32_t, uint32_t>> waits;  // (child pair, product)
  auto index_of = [&](uint64_t key) {
    auto [it, fresh] =
        local.try_emplace(key, static_cast<uint32_t>(pairs.size()));
    if (fresh) {
      pairs.push_back(key);
      accepted.push_back(0);
    }
    return it->second;
  };
  std::vector<uint64_t> undecided;  // scratch: one product's child pairs
  auto explore = [&](uint32_t i) {
    NftaState p = static_cast<NftaState>(pairs[i] >> 32);
    NftaState q = static_cast<NftaState>(pairs[i]);
    CompiledNfta::IdRange from_p = c_.TransitionsFrom(p);
    CompiledNfta::IdRange from_q = c_.TransitionsFrom(q);
    for (CompiledNfta::TransitionId tp = from_p.begin; tp < from_p.end;
         ++tp) {
      // A diagonal pair only needs equal transitions: (p, p) co-accepts
      // iff p is productive.
      CompiledNfta::TransitionId tq_begin = p == q ? tp : from_q.begin;
      CompiledNfta::TransitionId tq_end = p == q ? tp + 1 : from_q.end;
      for (CompiledNfta::TransitionId tq = tq_begin; tq < tq_end; ++tq) {
        if (c_.symbol(tp) != c_.symbol(tq) || c_.rank(tp) != c_.rank(tq)) {
          continue;
        }
        const NftaState* kp = c_.children(tp);
        const NftaState* kq = c_.children(tq);
        bool dead = false;
        undecided.clear();
        for (uint32_t k = 0; k < c_.rank(tp) && !dead; ++k) {
          uint64_t child = Key(kp[k], kq[k]);
          auto v = verdict_.find(child);
          if (v == verdict_.end()) {
            undecided.push_back(child);
          } else {
            dead = !v->second;
          }
        }
        if (dead) continue;
        if (undecided.empty()) {
          accepted[i] = 1;
          ready.push_back(i);
          return;
        }
        uint32_t product = static_cast<uint32_t>(owner.size());
        owner.push_back(i);
        pending.push_back(static_cast<uint32_t>(undecided.size()));
        for (uint64_t child : undecided) {
          waits.emplace_back(index_of(child), product);
        }
      }
    }
  };
  index_of(root);
  for (uint32_t i = 0; i < pairs.size(); ++i) explore(i);

  // Least fixpoint: propagate acceptance to the product transitions waiting
  // on each accepted pair (CSR by child pair).
  std::vector<uint32_t> begin(pairs.size() + 1, 0);
  for (const auto& w : waits) ++begin[w.first + 1];
  for (size_t i = 0; i < pairs.size(); ++i) begin[i + 1] += begin[i];
  std::vector<uint32_t> waiting(waits.size());
  {
    std::vector<uint32_t> cursor(begin.begin(), begin.end() - 1);
    for (const auto& w : waits) waiting[cursor[w.first]++] = w.second;
  }
  while (!ready.empty()) {
    uint32_t c = ready.back();
    ready.pop_back();
    for (uint32_t w = begin[c]; w < begin[c + 1]; ++w) {
      uint32_t product = waiting[w];
      if (--pending[product] == 0 && !accepted[owner[product]]) {
        accepted[owner[product]] = 1;
        ready.push_back(owner[product]);
      }
    }
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    verdict_.emplace(pairs[i], accepted[i] != 0);
  }
}

}  // namespace uocqa
