#include "repairs/sampling.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace uocqa {

BigInt UniformBigInt(Rng& rng, const BigInt& bound) {
  assert(!bound.IsZero());
  size_t bits = bound.BitLength();
  size_t limbs = (bits + 31) / 32;
  while (true) {
    // One 32-bit word per NextU64 call, most significant word first, each
    // written straight into its limb. Bounds below 2^64 build the inline
    // word and allocate nothing.
    BigInt candidate;
    if (limbs <= 2) {
      uint64_t v = 0;
      for (size_t i = 0; i < limbs; ++i) {
        v = v << 32 | (rng.NextU64() & 0xffffffffull);
      }
      candidate = BigInt(v);
    } else {
      std::vector<uint32_t> words(limbs);
      for (size_t i = limbs; i-- > 0;) {
        words[i] = static_cast<uint32_t>(rng.NextU64());
      }
      candidate = BigInt::FromLimbs(std::move(words));
    }
    // Trim to exactly `bits` bits.
    size_t extra = limbs * 32 - bits;
    candidate.ShiftRight(extra);
    if (candidate < bound) return candidate;
  }
}

size_t SampleIndexByWeight(Rng& rng, const std::vector<BigInt>& weights) {
  // Forced choices are RNG-silent: with exactly one nonzero weight the draw
  // is determined, so no randomness is consumed. The live-instance
  // differential guarantee leans on this — a conflict-free (singleton-block)
  // fact only ever contributes forced choices to the sequence sampler, so
  // inserting one leaves every other draw's bitstream untouched.
  size_t nonzero_count = 0;
  size_t last_nonzero = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    if (!weights[i].IsZero()) {
      ++nonzero_count;
      last_nonzero = i;
    }
  }
  if (nonzero_count == 1) return last_nonzero;
  BigInt total;
  for (const BigInt& w : weights) total += w;
  assert(!total.IsZero());
  BigInt r = UniformBigInt(rng, total);
  BigInt acc;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  assert(false && "weight sampling fell through");
  return weights.size() - 1;
}

// --- repairs -----------------------------------------------------------------

UniformRepairSampler::UniformRepairSampler(const Database& db,
                                           const KeySet& keys)
    : blocks_(BlockPartition::Compute(db, keys)) {}

std::vector<BlockOutcome> UniformRepairSampler::SampleOutcomes(
    Rng& rng) const {
  std::vector<BlockOutcome> out(blocks_.block_count());
  for (size_t i = 0; i < blocks_.block_count(); ++i) {
    const Block& b = blocks_.block(i);
    if (b.size() == 1) {
      out[i] = b.facts[0];
      continue;
    }
    size_t choice = rng.UniformIndex(b.size() + 1);
    if (choice == b.size()) {
      out[i] = std::nullopt;
    } else {
      out[i] = b.facts[choice];
    }
  }
  return out;
}

std::vector<FactId> UniformRepairSampler::Sample(Rng& rng) const {
  std::vector<FactId> kept;
  for (const BlockOutcome& o : SampleOutcomes(rng)) {
    if (o.has_value()) kept.push_back(*o);
  }
  std::sort(kept.begin(), kept.end());
  return kept;
}

// --- sequences ---------------------------------------------------------------

UniformSequenceSampler::UniformSequenceSampler(const Database& db,
                                               const KeySet& keys)
    : db_(db), blocks_(BlockPartition::Compute(db, keys)) {
  prefix_polys_.push_back({BigInt(1)});
  for (size_t i = 0; i < blocks_.block_count(); ++i) {
    size_t n = blocks_.block(i).size();
    if (n < 2) continue;
    conflict_blocks_.push_back(i);
    block_polys_.push_back(BlockTotalPoly(n));
    prefix_polys_.push_back(
        InterleavePolys(prefix_polys_.back(), block_polys_.back()));
  }
  for (const BigInt& c : prefix_polys_.back()) {
    total_ += c;
    length_cumulative_.push_back(total_);
  }
}

RepairingSequence UniformSequenceSampler::SampleBlockSequence(
    Rng& rng, size_t block_idx, size_t length) const {
  const Block& block = blocks_.block(block_idx);
  size_t n = block.size();

  // Choose the outcome proportionally to its sequence count at `length`.
  LenPoly keep_one = BlockKeepOnePoly(n >= 1 ? n - 1 : 0);
  LenPoly keep_none = BlockKeepNonePoly(n);
  auto coeff = [length](const LenPoly& p) {
    return length < p.size() ? p[length] : BigInt();
  };
  std::vector<BigInt> outcome_weights;
  // Index 0..n-1: keep block.facts[i]; index n: keep none.
  for (size_t i = 0; i < n; ++i) outcome_weights.push_back(coeff(keep_one));
  outcome_weights.push_back(coeff(keep_none));
  size_t outcome = SampleIndexByWeight(rng, outcome_weights);

  std::vector<FactId> removable;  // facts that may be deleted
  bool keep_all_removed = (outcome == n);
  for (size_t i = 0; i < n; ++i) {
    if (keep_all_removed || i != outcome) removable.push_back(block.facts[i]);
  }

  // Walk the recurrence backwards. State: r facts still to delete, with the
  // kept fact (if any) always alive as a justification partner.
  RepairingSequence seq;
  size_t remaining_length = length;
  auto polys_for = [&](size_t r) {
    return keep_all_removed ? BlockKeepNonePoly(r) : BlockKeepOnePoly(r);
  };
  size_t r = removable.size();
  while (r > 0) {
    assert(remaining_length > 0);
    LenPoly p1 = polys_for(r - 1);
    LenPoly p2 = r >= 2 ? polys_for(r - 2) : LenPoly{};
    auto at = [](const LenPoly& p, size_t l) {
      return l < p.size() ? p[l] : BigInt();
    };
    BigInt w_single = at(p1, remaining_length - 1) * static_cast<uint64_t>(r);
    BigInt w_pair = at(p2, remaining_length - 1) *
                    (static_cast<uint64_t>(r) * (r - 1) / 2);
    size_t shape = SampleIndexByWeight(rng, {w_single, w_pair});
    if (shape == 0) {
      size_t pick = rng.UniformIndex(r);
      seq.push_back(Operation::Single(removable[pick]));
      removable.erase(removable.begin() + static_cast<ptrdiff_t>(pick));
      r -= 1;
    } else {
      size_t a = rng.UniformIndex(r);
      size_t b = rng.UniformIndex(r - 1);
      if (b >= a) ++b;
      seq.push_back(Operation::Pair(removable[a], removable[b]));
      if (a > b) std::swap(a, b);
      removable.erase(removable.begin() + static_cast<ptrdiff_t>(b));
      removable.erase(removable.begin() + static_cast<ptrdiff_t>(a));
      r -= 2;
    }
    --remaining_length;
  }
  assert(remaining_length == 0);
  return seq;
}

RepairingSequence UniformSequenceSampler::Sample(Rng& rng) const {
  size_t m = conflict_blocks_.size();
  // (1) total length: SampleIndexByWeight over P_m's coefficients, on
  // precomputed running sums. One length holding all of |CRS| is a forced
  // choice and draws nothing.
  const std::vector<BigInt>& cum = length_cumulative_;
  size_t total_len = static_cast<size_t>(
      std::upper_bound(cum.begin(), cum.end(), BigInt()) - cum.begin());
  if (cum[total_len] != total_) {
    BigInt r = UniformBigInt(rng, total_);
    total_len = static_cast<size_t>(
        std::upper_bound(cum.begin(), cum.end(), r) - cum.begin());
  }

  // (2) per-block lengths, backwards.
  std::vector<size_t> lengths(m, 0);
  size_t remaining = total_len;
  for (size_t k = m; k-- > 0;) {
    const LenPoly& tk = block_polys_[k];
    const LenPoly& prefix = prefix_polys_[k];
    std::vector<BigInt> weights;
    BigInt binom(1);  // C(remaining, l), advanced along l
    for (size_t l = 0; l <= remaining && l < tk.size(); ++l) {
      if (l > 0) {
        binom *= static_cast<uint64_t>(remaining - l + 1);
        binom.DivModU32(static_cast<uint32_t>(l));
      }
      size_t rest = remaining - l;
      BigInt w;
      if (rest < prefix.size()) w = tk[l] * prefix[rest] * binom;
      weights.push_back(w);
    }
    size_t lk = SampleIndexByWeight(rng, weights);
    lengths[k] = lk;
    remaining -= lk;
  }
  assert(remaining == 0);

  // (3) per-block sequences.
  std::vector<RepairingSequence> block_seqs(m);
  for (size_t k = 0; k < m; ++k) {
    block_seqs[k] = SampleBlockSequence(rng, conflict_blocks_[k], lengths[k]);
  }

  // (4) uniform interleaving.
  RepairingSequence out;
  std::vector<size_t> cursor(m, 0);
  size_t left = total_len;
  while (left > 0) {
    uint64_t pick = rng.UniformU64(left);
    uint64_t acc = 0;
    for (size_t i = 0; i < m; ++i) {
      acc += block_seqs[i].size() - cursor[i];
      if (pick < acc) {
        out.push_back(block_seqs[i][cursor[i]++]);
        break;
      }
    }
    --left;
  }
  return out;
}

}  // namespace uocqa
