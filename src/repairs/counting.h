// Exact counting for uniform operational CQA (paper §3 and [13]).
//
// Denominators (polynomial time, re-implementing the results of [13] the
// paper builds on):
//   |ORep(D,Sigma)| = prod over blocks B of (|B| == 1 ? 1 : |B| + 1)
//   |CRS(D,Sigma)|  = interleaving-convolution of per-block resolution
//                     counts by length.
//
// Per-block sequence counting uses three length-indexed polynomials; all of
// them follow the same recurrence (remove one of m facts, or one of C(m,2)
// pairs) with different boundary conditions:
//   total:      cnt[0]=cnt[1]=[1]    (any outcome)
//   keep-alpha: K[0]=[1]             (r = facts to remove besides alpha;
//                                     alpha itself never removed)
//   keep-none:  E[0]=[1], E[1]=0     (a lone fact can never be removed:
//                                     no violating pair remains to justify
//                                     the deletion — see shape(1,⊥)=∅)
// Blocks interleave with binomial weights: two independent sequences of
// lengths i and j merge in C(i+j, i) ways. A singleton block's total and
// keep-one polys are {1}, the interleave identity, so the sequence-side
// chains skip singletons.
//
// Numerators |{D' ∈ ORep : c̄ ∈ Q(D')}| and |{s ∈ CRS : c̄ ∈ Q(s(D))}| are
// #P-hard (Thm 3.4); this module provides exponential-time exact versions
// (enumeration over block outcome vectors) used as ground truth for the
// FPRAS and in the benchmarks that exhibit the exact-vs-approximate gap.

#ifndef UOCQA_REPAIRS_COUNTING_H_
#define UOCQA_REPAIRS_COUNTING_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "base/bigint.h"
#include "db/blocks.h"
#include "db/database.h"
#include "db/keys.h"
#include "query/cq.h"

namespace uocqa {

/// Length-indexed counts: poly[l] = number of sequences of length l.
using LenPoly = std::vector<BigInt>;

/// Number of complete resolution sequences of a block with n facts, by
/// length, over any outcome.
LenPoly BlockTotalPoly(size_t n);

/// ... that keep one designated fact, where r = n - 1 facts must go.
LenPoly BlockKeepOnePoly(size_t r);

/// ... that empty the block of n facts.
LenPoly BlockKeepNonePoly(size_t n);

/// Interleaves two independent sequence families: c[l] = sum_i a[i] *
/// b[l-i] * C(l, i). Costs O(|a|·|b|) BigInt products; the binomial is
/// advanced along b (one small multiply and divide per step), never
/// recomputed.
LenPoly InterleavePolys(const LenPoly& a, const LenPoly& b);

/// Sum of all coefficients.
BigInt PolySum(const LenPoly& p);

/// |ORep(D, Sigma)| in O(|D|).
BigInt CountOperationalRepairs(const BlockPartition& blocks);

/// |CRS(D, Sigma)| in polynomial time (BigInt arithmetic).
BigInt CountCompleteSequencesExact(const BlockPartition& blocks);

/// The outcome of one block in a repair: the kept fact, or nullopt (block
/// emptied). Singleton blocks must keep their fact.
using BlockOutcome = std::optional<FactId>;

/// Number of complete repairing sequences producing exactly the repair given
/// by `outcomes` (one entry per block, aligned with `blocks`).
BigInt CountSequencesForOutcome(const BlockPartition& blocks,
                                const std::vector<BlockOutcome>& outcomes);

/// Iterates over every operational repair (as an outcome vector plus the
/// kept fact ids) until `fn` returns false. The number of repairs is the
/// product of per-block choices — exponential; small inputs only.
void ForEachRepair(
    const BlockPartition& blocks,
    const std::function<bool(const std::vector<BlockOutcome>&,
                             const std::vector<FactId>&)>& fn);

/// Exact numerator |{D' ∈ ORep(D,Sigma) : c̄ ∈ Q(D')}| by enumeration.
/// `atom_order` optionally fixes the per-repair evaluator's atom order (a
/// permutation of 0..atom_count-1, e.g. planned once against the full
/// database); order affects enumeration cost only, never the count.
BigInt CountRepairsEntailing(const Database& db, const KeySet& keys,
                             const ConjunctiveQuery& query,
                             const std::vector<Value>& answer_tuple,
                             const std::vector<size_t>* atom_order = nullptr);

/// Exact numerator |{s ∈ CRS(D,Sigma) : c̄ ∈ Q(s(D))}| by enumeration over
/// outcomes with per-outcome sequence counting.
BigInt CountSequencesEntailing(const Database& db, const KeySet& keys,
                               const ConjunctiveQuery& query,
                               const std::vector<Value>& answer_tuple,
                               const std::vector<size_t>* atom_order =
                                   nullptr);

/// An exact relative frequency as a ratio of BigInt counts.
struct ExactRF {
  BigInt numerator;
  BigInt denominator;

  double value() const {
    return denominator.IsZero() ? 0.0
                                : BigInt::RatioAsDouble(numerator, denominator);
  }
  bool operator==(const ExactRF& o) const {
    // Cross-multiplied equality (no rational normalization needed).
    return numerator * o.denominator == o.numerator * denominator;
  }
};

/// RF_ur(D, Sigma, Q, c̄), exact (exponential-time numerator).
ExactRF ExactRepairFrequency(const Database& db, const KeySet& keys,
                             const ConjunctiveQuery& query,
                             const std::vector<Value>& answer_tuple,
                             const std::vector<size_t>* atom_order = nullptr);

/// RF_us(D, Sigma, Q, c̄), exact (exponential-time numerator).
ExactRF ExactSequenceFrequency(const Database& db, const KeySet& keys,
                               const ConjunctiveQuery& query,
                               const std::vector<Value>& answer_tuple,
                               const std::vector<size_t>* atom_order =
                                   nullptr);

}  // namespace uocqa

#endif  // UOCQA_REPAIRS_COUNTING_H_
