#include "repairs/counting.h"

#include <cassert>

#include "query/eval.h"

namespace uocqa {

namespace {

/// Shared recurrence: from m live facts, remove one (m ways) or a pair
/// (C(m,2) ways). `polys` must be seeded with indices 0 (and 1 if n >= 1).
LenPoly RunRecurrence(size_t n, std::vector<LenPoly> seeded) {
  for (size_t m = seeded.size(); m <= n; ++m) {
    const LenPoly& one_less = seeded[m - 1];
    const LenPoly& two_less = seeded[m - 2];
    LenPoly cur(std::max(one_less.size(), two_less.size()) + 1);
    uint64_t pairs = static_cast<uint64_t>(m) * (m - 1) / 2;
    for (size_t l = 0; l < one_less.size(); ++l) {
      cur[l + 1] += one_less[l] * static_cast<uint64_t>(m);
    }
    for (size_t l = 0; l < two_less.size(); ++l) {
      cur[l + 1] += two_less[l] * pairs;
    }
    seeded.push_back(std::move(cur));
  }
  return seeded[n];
}

}  // namespace

LenPoly BlockTotalPoly(size_t n) {
  // cnt[0] = cnt[1] = 1 at length 0.
  if (n == 0) return {BigInt(1)};
  return RunRecurrence(n, {{BigInt(1)}, {BigInt(1)}});
}

LenPoly BlockKeepOnePoly(size_t r) {
  // K[0] = 1 at length 0; K[1] = 1 at length 1 (remove the single other
  // fact; justified because the kept fact is still present).
  if (r == 0) return {BigInt(1)};
  return RunRecurrence(r, {{BigInt(1)}, {BigInt(), BigInt(1)}});
}

LenPoly BlockKeepNonePoly(size_t n) {
  // E[0] = 1 at length 0; E[1] = 0 everywhere (a lone fact has no violating
  // partner, so its removal is never justified).
  if (n == 0) return {BigInt(1)};
  return RunRecurrence(n, {{BigInt(1)}, {}});
}

LenPoly InterleavePolys(const LenPoly& a, const LenPoly& b) {
  if (a.empty() || b.empty()) return {};
  LenPoly out(a.size() + b.size() - 1);
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].IsZero()) continue;
    // C(i + j, i) advanced along j: C(i+j, i) = C(i+j-1, i) * (i+j) / j,
    // exact at every step. It advances over zero b[j] too.
    BigInt binom(1);
    for (size_t j = 0; j < b.size(); ++j) {
      if (j > 0) {
        binom *= static_cast<uint64_t>(i + j);
        binom.DivModU32(static_cast<uint32_t>(j));
      }
      if (b[j].IsZero()) continue;
      out[i + j] += a[i] * b[j] * binom;
    }
  }
  return out;
}

BigInt PolySum(const LenPoly& p) {
  BigInt out;
  for (const BigInt& c : p) out += c;
  return out;
}

BigInt CountOperationalRepairs(const BlockPartition& blocks) {
  BigInt out(1);
  for (const Block& b : blocks.blocks()) {
    if (b.size() >= 2) out *= static_cast<uint64_t>(b.size() + 1);
  }
  return out;
}

BigInt CountCompleteSequencesExact(const BlockPartition& blocks) {
  LenPoly acc{BigInt(1)};
  for (const Block& b : blocks.blocks()) {
    if (b.size() < 2) continue;  // BlockTotalPoly(1) == {1}, the identity
    acc = InterleavePolys(acc, BlockTotalPoly(b.size()));
  }
  return PolySum(acc);
}

BigInt CountSequencesForOutcome(const BlockPartition& blocks,
                                const std::vector<BlockOutcome>& outcomes) {
  assert(outcomes.size() == blocks.block_count());
  LenPoly acc{BigInt(1)};
  for (size_t i = 0; i < blocks.block_count(); ++i) {
    const Block& b = blocks.block(i);
    LenPoly poly;
    if (outcomes[i].has_value()) {
      if (b.size() < 2) continue;  // BlockKeepOnePoly(0) == {1}
      poly = BlockKeepOnePoly(b.size() - 1);
    } else {
      poly = BlockKeepNonePoly(b.size());
    }
    acc = InterleavePolys(acc, poly);
    if (acc.empty()) return BigInt();
  }
  return PolySum(acc);
}

void ForEachRepair(
    const BlockPartition& blocks,
    const std::function<bool(const std::vector<BlockOutcome>&,
                             const std::vector<FactId>&)>& fn) {
  size_t m = blocks.block_count();
  std::vector<BlockOutcome> outcomes(m);
  std::vector<FactId> kept;
  // choice[i] in [0, options_i): for singleton blocks the only option keeps
  // the fact; for larger blocks option 0..n-1 keeps fact j, option n drops
  // the block.
  std::function<bool(size_t)> rec = [&](size_t i) -> bool {
    if (i == m) {
      std::vector<FactId> sorted = kept;
      std::sort(sorted.begin(), sorted.end());
      return fn(outcomes, sorted);
    }
    const Block& b = blocks.block(i);
    if (b.size() == 1) {
      outcomes[i] = b.facts[0];
      kept.push_back(b.facts[0]);
      bool go = rec(i + 1);
      kept.pop_back();
      return go;
    }
    for (FactId f : b.facts) {
      outcomes[i] = f;
      kept.push_back(f);
      bool go = rec(i + 1);
      kept.pop_back();
      if (!go) return false;
    }
    outcomes[i] = std::nullopt;
    return rec(i + 1);
  };
  rec(0);
}

BigInt CountRepairsEntailing(const Database& db, const KeySet& keys,
                             const ConjunctiveQuery& query,
                             const std::vector<Value>& answer_tuple,
                             const std::vector<size_t>* atom_order) {
  BlockPartition blocks = BlockPartition::Compute(db, keys);
  BigInt count;
  ForEachRepair(blocks, [&](const std::vector<BlockOutcome>&,
                            const std::vector<FactId>& kept) {
    Database repair = db.Subset(kept);
    QueryEvaluator eval = atom_order
                              ? QueryEvaluator(repair, query, *atom_order)
                              : QueryEvaluator(repair, query);
    if (eval.Entails(answer_tuple)) count += uint64_t{1};
    return true;
  });
  return count;
}

BigInt CountSequencesEntailing(const Database& db, const KeySet& keys,
                               const ConjunctiveQuery& query,
                               const std::vector<Value>& answer_tuple,
                               const std::vector<size_t>* atom_order) {
  BlockPartition blocks = BlockPartition::Compute(db, keys);
  BigInt count;
  ForEachRepair(blocks, [&](const std::vector<BlockOutcome>& outcomes,
                            const std::vector<FactId>& kept) {
    Database repair = db.Subset(kept);
    QueryEvaluator eval = atom_order
                              ? QueryEvaluator(repair, query, *atom_order)
                              : QueryEvaluator(repair, query);
    if (eval.Entails(answer_tuple)) {
      count += CountSequencesForOutcome(blocks, outcomes);
    }
    return true;
  });
  return count;
}

ExactRF ExactRepairFrequency(const Database& db, const KeySet& keys,
                             const ConjunctiveQuery& query,
                             const std::vector<Value>& answer_tuple,
                             const std::vector<size_t>* atom_order) {
  BlockPartition blocks = BlockPartition::Compute(db, keys);
  ExactRF out;
  out.numerator =
      CountRepairsEntailing(db, keys, query, answer_tuple, atom_order);
  out.denominator = CountOperationalRepairs(blocks);
  return out;
}

ExactRF ExactSequenceFrequency(const Database& db, const KeySet& keys,
                               const ConjunctiveQuery& query,
                               const std::vector<Value>& answer_tuple,
                               const std::vector<size_t>* atom_order) {
  BlockPartition blocks = BlockPartition::Compute(db, keys);
  ExactRF out;
  out.numerator =
      CountSequencesEntailing(db, keys, query, answer_tuple, atom_order);
  out.denominator = CountCompleteSequencesExact(blocks);
  return out;
}

}  // namespace uocqa
