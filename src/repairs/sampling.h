// Exact-uniform samplers over ORep(D,Sigma) and CRS(D,Sigma).
//
// Uniform repair sampling is trivial: block outcomes are independent and
// each block of size n >= 2 has n+1 equally likely outcomes.
//
// Uniform sequence sampling is not: the probability of a repair under the
// uniform-sequence distribution is proportional to the number of sequences
// reaching it, which couples block outcome, per-block resolution order, and
// the global interleaving. The sampler draws, in order:
//   (1) the total sequence length L  ~  prefix-interleaved counts,
//   (2) per-block lengths l_i       ~  backward convolution weights,
//   (3) per-block resolution sequences, walking the counting recurrences
//       backwards,
//   (4) a uniform interleaving of the block sequences.
// All weights are exact BigInt counts, so samples are *exactly* uniform.
// These samplers power the data-complexity Monte-Carlo baselines ([13]) and
// the distribution tests.

#ifndef UOCQA_REPAIRS_SAMPLING_H_
#define UOCQA_REPAIRS_SAMPLING_H_

#include <optional>
#include <vector>

#include "base/bigint.h"
#include "base/rng.h"
#include "db/blocks.h"
#include "db/database.h"
#include "db/keys.h"
#include "repairs/counting.h"
#include "repairs/operations.h"

namespace uocqa {

/// Uniform BigInt in [0, bound) by bit-rejection; bound must be non-zero.
BigInt UniformBigInt(Rng& rng, const BigInt& bound);

/// Samples an index proportionally to BigInt weights (sum must be > 0).
/// A forced choice — exactly one nonzero weight — consumes no randomness,
/// so the bitstream of a sampling run only ever depends on blocks that have
/// a real choice to make (the live-instance invariance contract).
size_t SampleIndexByWeight(Rng& rng, const std::vector<BigInt>& weights);

/// Uniform sampler over ORep(D, Sigma).
class UniformRepairSampler {
 public:
  UniformRepairSampler(const Database& db, const KeySet& keys);

  /// Kept fact ids of a uniformly drawn operational repair (sorted).
  std::vector<FactId> Sample(Rng& rng) const;

  /// Outcome-vector flavour (aligned with blocks()).
  std::vector<BlockOutcome> SampleOutcomes(Rng& rng) const;

  const BlockPartition& blocks() const { return blocks_; }

 private:
  BlockPartition blocks_;
};

/// Uniform sampler over CRS(D, Sigma).
class UniformSequenceSampler {
 public:
  UniformSequenceSampler(const Database& db, const KeySet& keys);

  /// A uniformly drawn complete repairing sequence.
  RepairingSequence Sample(Rng& rng) const;

  /// |CRS(D, Sigma)| (precomputed).
  const BigInt& total_count() const { return total_; }

  const BlockPartition& blocks() const { return blocks_; }

 private:
  /// Samples a resolution sequence of exactly `length` operations for block
  /// `block_idx` uniformly, returning its operations in order.
  RepairingSequence SampleBlockSequence(Rng& rng, size_t block_idx,
                                        size_t length) const;

  const Database& db_;
  BlockPartition blocks_;
  // Steps (1)-(4) walk the blocks of size >= 2 only: a singleton's total
  // poly is {1}, the identity of interleaving, and its every choice is
  // forced, hence RNG-silent.
  std::vector<size_t> conflict_blocks_;        // indices into blocks_
  std::vector<LenPoly> block_polys_;           // T_k per conflict block
  std::vector<LenPoly> prefix_polys_;          // P_0..P_m
  std::vector<BigInt> length_cumulative_;      // running sums of P_m
  BigInt total_;
};

}  // namespace uocqa

#endif  // UOCQA_REPAIRS_SAMPLING_H_
