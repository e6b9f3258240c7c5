#include "automata/nfta.h"

#include <algorithm>
#include <cassert>

#include "automata/compiled_nfta.h"

namespace uocqa {

size_t LabeledTree::Size() const {
  size_t n = 1;
  for (const LabeledTree& c : children) n += c.Size();
  return n;
}

bool LabeledTree::operator<(const LabeledTree& o) const {
  if (symbol != o.symbol) return symbol < o.symbol;
  return children < o.children;
}

size_t LabeledTreeHash::operator()(const LabeledTree& t) const {
  size_t seed = std::hash<uint32_t>{}(t.symbol);
  for (const LabeledTree& c : t.children) {
    HashCombine(&seed, (*this)(c));
  }
  return seed;
}

NftaState Nfta::AddState() {
  transitions_.emplace_back();
  return static_cast<NftaState>(state_count_++);
}

NftaState Nfta::AddStates(size_t n) {
  NftaState first = static_cast<NftaState>(state_count_);
  for (size_t i = 0; i < n; ++i) AddState();
  return first;
}

NftaSymbol Nfta::InternSymbol(const std::string& name) {
  auto it = symbol_index_.find(name);
  if (it != symbol_index_.end()) return it->second;
  NftaSymbol s = static_cast<NftaSymbol>(symbol_names_.size());
  symbol_names_.push_back(name);
  symbol_index_.emplace(name, s);
  return s;
}

void Nfta::AddTransition(NftaState from, NftaSymbol symbol,
                         std::vector<NftaState> children) {
  assert(from < state_count_);
  for (NftaState c : children) {
    assert(c < state_count_);
    (void)c;
  }
  NftaTransition t{from, symbol, std::move(children)};
  auto& bucket = transitions_[from];
  if (std::find(bucket.begin(), bucket.end(), t) != bucket.end()) return;
  max_rank_ = std::max(max_rank_, t.children.size());
  bucket.push_back(std::move(t));
  ++transition_count_;
}

void Nfta::Trim() {
  // Productive states, bottom-up: a transition fires once its last
  // unproductive child position turns productive. `pending[t]` counts those
  // positions of transition t (with multiplicity), `users[q]` lists the
  // transitions with q at some child position (once per position).
  std::vector<const NftaTransition*> flat;
  flat.reserve(transition_count_);
  for (const auto& bucket : transitions_) {
    for (const NftaTransition& t : bucket) flat.push_back(&t);
  }
  std::vector<uint32_t> pending(flat.size());
  std::vector<std::vector<uint32_t>> users(state_count_);
  std::vector<char> productive(state_count_, 0);
  std::vector<NftaState> work;
  auto mark_productive = [&](NftaState q) {
    if (!productive[q]) {
      productive[q] = 1;
      work.push_back(q);
    }
  };
  for (uint32_t t = 0; t < flat.size(); ++t) {
    pending[t] = static_cast<uint32_t>(flat[t]->children.size());
    for (NftaState c : flat[t]->children) users[c].push_back(t);
    if (pending[t] == 0) mark_productive(flat[t]->from);
  }
  while (!work.empty()) {
    NftaState q = work.back();
    work.pop_back();
    for (uint32_t t : users[q]) {
      if (--pending[t] == 0) mark_productive(flat[t]->from);
    }
  }

  // Reachable states, top-down through the useful transitions: those whose
  // children are all productive.
  auto useful = [&](const NftaTransition& t) {
    for (NftaState c : t.children) {
      if (!productive[c]) return false;
    }
    return true;
  };
  std::vector<char> keep(state_count_, 0);
  if (initial_ != kNoNftaState && productive[initial_]) {
    keep[initial_] = 1;
    work.push_back(initial_);
  }
  while (!work.empty()) {
    NftaState q = work.back();
    work.pop_back();
    for (const NftaTransition& t : transitions_[q]) {
      if (!useful(t)) continue;
      for (NftaState c : t.children) {
        if (!keep[c]) {
          keep[c] = 1;
          work.push_back(c);
        }
      }
    }
  }

  std::vector<NftaState> new_id(state_count_, kNoNftaState);
  size_t kept = 0;
  for (NftaState q = 0; q < state_count_; ++q) {
    if (keep[q]) new_id[q] = static_cast<NftaState>(kept++);
  }
  // With every state kept, every child is productive: nothing to drop.
  if (kept > 0 && kept == state_count_) return;

  std::vector<std::vector<NftaTransition>> trimmed(std::max<size_t>(kept, 1));
  size_t transitions = 0;
  size_t max_rank = 0;
  for (NftaState q = 0; q < state_count_; ++q) {
    if (!keep[q]) continue;
    for (const NftaTransition& t : transitions_[q]) {
      if (!useful(t)) continue;
      NftaTransition out{new_id[q], t.symbol, t.children};
      for (NftaState& c : out.children) c = new_id[c];
      max_rank = std::max(max_rank, out.children.size());
      trimmed[new_id[q]].push_back(std::move(out));
      ++transitions;
    }
  }
  // An empty language keeps a lone initial state with no transitions.
  state_count_ = std::max<size_t>(kept, 1);
  initial_ = kept == 0 ? 0 : new_id[initial_];
  transitions_ = std::move(trimmed);
  transition_count_ = transitions;
  max_rank_ = max_rank;
  // The symbol index points into the old buckets and the compiled view may
  // match the new counts by coincidence: drop both.
  by_symbol_.clear();
  indexed_transition_count_ = static_cast<size_t>(-1);
  compiled_.reset();
}

const std::vector<NftaTransition>& Nfta::TransitionsFrom(NftaState s) const {
  if (s >= transitions_.size()) return empty_;
  return transitions_[s];
}

const std::vector<const NftaTransition*>& Nfta::TransitionsWithSymbol(
    NftaSymbol s) const {
  EnsureSymbolIndex();
  if (s >= by_symbol_.size()) return empty_ptrs_;
  return by_symbol_[s];
}

void Nfta::EnsureSymbolIndex() const {
  if (indexed_transition_count_ == transition_count_ &&
      by_symbol_.size() == symbol_names_.size()) {
    return;
  }
  by_symbol_.assign(symbol_names_.size(), {});
  for (const auto& bucket : transitions_) {
    for (const NftaTransition& t : bucket) {
      by_symbol_[t.symbol].push_back(&t);
    }
  }
  indexed_transition_count_ = transition_count_;
}

const CompiledNfta& Nfta::Compiled() const {
  if (!compiled_ || compiled_->state_count() != state_count_ ||
      compiled_->transition_count() != transition_count_ ||
      compiled_->symbol_count() != symbol_names_.size() ||
      compiled_->initial() != initial_) {
    compiled_ = std::make_shared<const CompiledNfta>(*this);
  }
  return *compiled_;
}

void Nfta::EnsureCompiled() const {
  EnsureSymbolIndex();
  Compiled();
}

std::shared_ptr<const CompiledNfta> Nfta::CompiledShared() const {
  Compiled();
  return compiled_;
}

namespace {

// Per-thread scratch for the bitset runs below: reused across calls (and
// across automata — buffers regrow as needed), so the membership oracle
// allocates nothing per call beyond the returned vector itself.
CompiledNfta::Workspace& LocalWorkspace() {
  static thread_local CompiledNfta::Workspace ws;
  return ws;
}

}  // namespace

std::vector<NftaState> Nfta::AcceptingStates(const LabeledTree& tree) const {
  // Bottom-up bitset run over the compiled view (the membership oracle on
  // the FPRAS hot path).
  return Compiled().AcceptingStates(tree, &LocalWorkspace());
}

bool Nfta::Accepts(const LabeledTree& tree) const {
  return AcceptsFrom(initial_, tree);
}

bool Nfta::AcceptsFrom(NftaState q, const LabeledTree& tree) const {
  if (q == kNoNftaState) return false;
  return Compiled().AcceptsFrom(q, tree, &LocalWorkspace());
}

namespace {

uint64_t CountRunsFrom(const Nfta& nfta, NftaState q,
                       const LabeledTree& tree) {
  uint64_t total = 0;
  for (const NftaTransition& t : nfta.TransitionsFrom(q)) {
    if (t.symbol != tree.symbol || t.children.size() != tree.children.size()) {
      continue;
    }
    uint64_t prod = 1;
    for (size_t i = 0; i < t.children.size() && prod > 0; ++i) {
      prod *= CountRunsFrom(nfta, t.children[i], tree.children[i]);
    }
    total += prod;
  }
  return total;
}

}  // namespace

uint64_t Nfta::CountAcceptingRuns(const LabeledTree& tree) const {
  if (initial_ == kNoNftaState) return 0;
  return CountRunsFrom(*this, initial_, tree);
}

std::string Nfta::TreeToString(const LabeledTree& tree) const {
  std::string out = tree.symbol < symbol_names_.size()
                        ? symbol_names_[tree.symbol]
                        : "?" + std::to_string(tree.symbol);
  if (!tree.children.empty()) {
    out += '(';
    for (size_t i = 0; i < tree.children.size(); ++i) {
      if (i > 0) out += ',';
      out += TreeToString(tree.children[i]);
    }
    out += ')';
  }
  return out;
}

std::string Nfta::DebugStats() const {
  return "states=" + std::to_string(state_count_) +
         " symbols=" + std::to_string(symbol_names_.size()) +
         " transitions=" + std::to_string(transition_count_) +
         " max_rank=" + std::to_string(max_rank_);
}

}  // namespace uocqa
