// Randomized approximation for ♯NFTA (paper Theorem D.1, following the
// approach of Arenas, Croquevielle, Jayaram, Riveros [6]).
//
// For a state q and size s,
//   L(q,s) = ⋃_{τ=(q,a,(q1..qr))} ⋃_{s1+..+sr=s-1} a(L(q1,s1)×…×L(q_r,s_r)).
// Components are Cartesian products, so their sizes multiply exactly and a
// uniform sample is a tuple of child samples. Components with distinct
// (symbol, child-size vector) keys are *disjoint*, so the union splits into
// an exact sum over key groups; overlap only arises between transitions
// sharing a key, where the Karp–Luby–Madras union estimator applies with an
// exact polynomial membership oracle (run the automaton on the tree).
// Approximately-uniform samples come from minimal-index rejection.
//
// Engineering notes versus [6] (docs/ARCHITECTURE.md, "Deviations and
// engineering notes"): [6] track per-level sketches with certified
// polynomial constants; we use the same decomposition but direct recursive
// estimation with per-union sample budgets chosen empirically, validated
// against the exact behaviour-set counter in tests (E5). Estimates are
// doubles (counts up to ~1e308). A union whose components are pairwise
// disjoint (decided exactly by the co-acceptance relation, CoAcceptance)
// needs no sampling: every KLM trial would hit, so its estimate is computed
// as the trial path's expression with hits == performed == samples.
//
// Hot-path layout (see docs/ARCHITECTURE.md): the estimator runs over the
// automaton's CompiledNfta view. Proportional selection uses per-group /
// per-cell prefix-sum arrays probed by binary search, consuming exactly
// one uniform per pick. Trial trees are built in a per-chunk node pool (no
// per-node heap LabeledTree), each node caching its subtree size and its
// behaviour row, so the membership oracle reads cached rows.

#ifndef UOCQA_AUTOMATA_FPRAS_H_
#define UOCQA_AUTOMATA_FPRAS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/hashing.h"
#include "base/rng.h"
#include "base/version.h"
#include "base/thread_pool.h"
#include "automata/compiled_nfta.h"
#include "automata/nfta.h"

namespace uocqa {

/// Tuning knobs for the ♯NFTA FPRAS. Estimates are a deterministic function
/// of (automaton, config) — including `threads`: any thread count yields the
/// same bits, because trials are split into fixed-size chunks with one
/// Rng::Stream per chunk.
struct FprasConfig {
  /// Target relative error.
  double epsilon = 0.25;
  /// Target failure probability.
  double delta = 0.1;
  /// Per-union sample budget bounds.
  size_t min_samples = 128;
  size_t max_samples = 65536;
  /// Retry bound for minimal-index rejection sampling before giving up and
  /// accepting a (slightly biased) sample.
  size_t max_rejection_attempts = 64;
  /// RNG seed (estimates are deterministic given the seed).
  uint64_t seed = 1;
  /// Version tag of the RNG-consumption layout (docs/ARCHITECTURE.md,
  /// "Seed schema"): one Rng::Stream per trial, keyed by the global trial
  /// index. There is one layout, so this must equal kDefaultSeedSchema
  /// (asserted in debug builds); the field only records which layout
  /// produced an estimate.
  int seed_schema = kDefaultSeedSchema;
  /// Split each union into provably-disjoint groups keyed by
  /// (symbol, child sizes) and only sample within groups (on by default;
  /// the ablation benchmark bench_e11 quantifies the win). When false, the
  /// plain Karp–Luby–Madras estimator runs over all components at once.
  bool group_disjoint_components = true;
  /// Execution lanes for the KLM union-estimation trials: 1 = serial,
  /// 0 = hardware concurrency. Changes wall-clock time only, never the
  /// estimate (see the class comment on determinism).
  size_t threads = 1;
};

class NftaFpras {
 public:
  /// Wraps `nfta` (not owned; must outlive this object and stay unchanged;
  /// the estimator snapshots its compiled view). When `config.threads != 1`,
  /// KLM trials run on `pool` if given, else on an internally owned pool of
  /// `config.threads` lanes.
  NftaFpras(const Nfta& nfta, FprasConfig config = {},
            ThreadPool* pool = nullptr);

  /// Estimate of |L_s(A)| for the initial state.
  double EstimateExactSize(size_t size);

  /// Estimate of |⋃_{s <= max_size} L_s(A)| (the ♯NFTA output).
  double EstimateUpTo(size_t max_size);

  /// Estimate of |L(q, s)|.
  double EstimateFrom(NftaState q, size_t size);

  /// Approximately-uniform sample from L(q, s); nullopt if (estimated)
  /// empty. Serial (unlike the estimation paths, which may use the pool).
  std::optional<LabeledTree> Sample(Rng& rng, NftaState q, size_t size);

  /// Total number of union estimations performed (diagnostics), including
  /// the disjoint unions decided without sampling.
  size_t union_estimations() const { return union_estimations_; }

  /// Total number of Karp–Luby–Madras trials drawn (diagnostics): 0 unless
  /// some union has overlapping components. A function of (automaton,
  /// config) only, like the estimates.
  size_t klm_samples() const { return klm_samples_; }

 private:
  /// Pool-backed flat trees for rejection trials: one contiguous node
  /// vector per chunk, cleared (capacity kept) between trials, each node
  /// caching its subtree size so the min-index oracle never recomputes it.
  struct TreePool {
    static constexpr uint32_t kNil = 0xffffffffu;
    struct Node {
      NftaSymbol symbol = 0;
      uint32_t size = 0;        // subtree node count
      uint32_t first_child = kNil;
      uint32_t last_child = kNil;
      uint32_t next_sibling = kNil;
    };
    std::vector<Node> nodes;

    uint32_t New(NftaSymbol s, uint32_t size) {
      nodes.push_back(Node{s, size, kNil, kNil, kNil});
      return static_cast<uint32_t>(nodes.size() - 1);
    }
    void AddChild(uint32_t parent, uint32_t child) {
      if (nodes[parent].first_child == kNil) {
        nodes[parent].first_child = child;
      } else {
        nodes[nodes[parent].last_child].next_sibling = child;
      }
      nodes[parent].last_child = child;
    }
    void Clear() { nodes.clear(); }
    /// Drops nodes [n, size()) — used to reclaim rejected sampling attempts
    /// so surviving subtrees stay contiguous (node n's subtree is exactly
    /// [n, n + size_n) in preorder).
    void Truncate(size_t n) { nodes.resize(n); }
  };

  /// Sampling context for one lockstep trial chunk or for the serial
  /// public Sample: one shared pool holds every trial's winning tree
  /// (rejected attempts are reclaimed by truncation), with a behaviour row
  /// maintained per pooled node — computed once in post-order as each
  /// subtree completes, so min-index checks at every nesting level read
  /// cached rows instead of re-evaluating subtrees.
  struct BatchCtx {
    TreePool pool;                // shared across the chunk's trials
    std::vector<Rng> rngs;        // per-trial streams (phase-resumable)
    std::vector<uint32_t> picks;  // per-trial picked component index
    std::vector<uint32_t> roots;  // per-trial winner root, kNil if none
    std::vector<uint64_t> rows;   // per pooled node: wps behaviour words
    std::vector<const uint64_t*> child_ptrs;  // combine scratch
  };

  struct Component {
    CompiledNfta::TransitionId transition = 0;
    std::vector<size_t> child_sizes;
    double size = 0;  // product of child estimates
  };
  /// Components sharing (symbol, child_sizes); only these can overlap.
  struct Group {
    std::vector<Component> components;
    /// prefix[i] = components[0].size + ... + components[i-1].size,
    /// accumulated left to right.
    std::vector<double> prefix;
    double estimate = 0;
  };
  struct Cell {
    bool computed = false;
    double estimate = 0;
    std::vector<Group> groups;
    /// Prefix sums of group estimates (group_prefix.back() == estimate).
    std::vector<double> group_prefix;
  };

  /// Build-or-return, single hash probe. Build path only (mutates cells_).
  Cell& GetCell(NftaState q, size_t size);
  /// Read-only lookup for trial threads; the cell must already be built.
  const Cell* FindCell(NftaState q, size_t size) const;

  /// KLM union estimate within one group (components share symbol+sizes).
  /// Trials are chunked (kTrialChunk) and may run on the pool; every cell
  /// the trials sample from is already computed, so the parallel section
  /// only ever reads `cells_`. A group of pairwise-disjoint components
  /// with a finite sum draws its union seed but runs no trial (see the
  /// definition).
  double EstimateGroup(Group* group);

  /// Are the group's components pairwise disjoint? Two components are
  /// disjoint when their root symbols, ranks or child sizes differ, or when
  /// the states at some child position accept no common tree. Serial build
  /// path only (mutates co_accept_).
  bool ComponentsDisjoint(const Group& group);

  /// KLM trials: each chunk runs its kTrialChunk trials in lockstep
  /// phases (batched picks -> batched row-caching tree builds -> batched
  /// min-index checks over the cached rows), with one Rng::Stream per
  /// trial keyed by the global trial index.
  void RunTrialsBatched(Group* group, double sum, size_t samples,
                        uint64_t union_seed,
                        std::vector<std::pair<size_t, size_t>>* counts);

  /// Index of the first component of `group` containing the pooled tree
  /// `root`; -1 if none. Child behaviours are read from the cached rows,
  /// child sizes from the cached per-node sizes.
  int MinIndexBatched(const Group& group, uint32_t root,
                      const BatchCtx& ctx) const;

  /// Uniform-ish flat sample from L(q, size) into ctx->pool, and from one
  /// component (a tuple of child samples); TreePool::kNil if empty or
  /// rejected to exhaustion. Every pooled node's behaviour row is computed
  /// exactly once — in post-order, as its subtree completes — so the
  /// nested min-index rejection reads cached rows instead of re-running
  /// the bitset evaluation at every nesting level.
  uint32_t SampleFlatBatched(Rng& rng, NftaState q, size_t size,
                             BatchCtx* ctx);
  uint32_t SampleComponentFlatBatched(Rng& rng, const Component& c,
                                      BatchCtx* ctx);

  /// Computes `node`'s behaviour row into ctx->rows (children's rows must
  /// already be cached; leaves copy the per-symbol leaf row).
  void ComputeRow(BatchCtx* ctx, uint32_t node) const;

  /// Lazily builds the per-symbol rank-0 behaviour rows the sampler
  /// copies for leaf nodes. Must be called before the parallel section.
  void EnsureLeafRows();

  /// The pool trials run on (lazily created when owned), or nullptr for
  /// serial execution.
  ThreadPool* pool();

  /// Trials per RNG stream chunk: fixed so the (chunk -> stream) map — and
  /// hence the estimate — is independent of the thread count.
  static constexpr size_t kTrialChunk = 64;

  const Nfta& nfta_;
  std::shared_ptr<const CompiledNfta> compiled_keep_;
  const CompiledNfta& c_;  // *compiled_keep_
  FprasConfig config_;
  Rng rng_;
  ThreadPool* external_pool_ = nullptr;
  std::unique_ptr<ThreadPool> owned_pool_;
  std::unordered_map<std::pair<NftaState, size_t>, Cell,
                     PairHash<NftaState, size_t>>
      cells_;
  size_t union_estimations_ = 0;
  size_t klm_samples_ = 0;
  CoAcceptance co_accept_;  // over c_, decided lazily by ComponentsDisjoint
  BatchCtx sample_ctx_;  // for the serial public Sample()

  // Per-symbol rank-0 behaviour rows (words_per_set() words each), built
  // once on the first KLM estimation or sample; leaves are the common case
  // in trial trees and their combine is a plain row copy.
  bool leaf_rows_ready_ = false;
  std::vector<uint64_t> leaf_rows_;
};

}  // namespace uocqa

#endif  // UOCQA_AUTOMATA_FPRAS_H_
