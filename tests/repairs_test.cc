#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "base/hashing.h"
#include "base/rng.h"
#include "db/blocks.h"
#include "query/eval.h"
#include "query/parser.h"
#include "repairs/counting.h"
#include "repairs/denominators.h"
#include "repairs/operations.h"
#include "repairs/sampling.h"

namespace uocqa {
namespace {

/// Example 1.1: Emp(1, Alice), Emp(1, Tom) with key(Emp) = {1}.
struct EmpInstance {
  Database db;
  KeySet keys;

  EmpInstance() {
    Schema s;
    s.AddRelationOrDie("Emp", 2);
    db = Database(s);
    db.Add("Emp", {"1", "Alice"});
    db.Add("Emp", {"1", "Tom"});
    keys.SetKeyOrDie(db.schema().Find("Emp"), {0});
  }
};

/// The 13-fact database from §5.1 / Example 5.4.
struct Paper51Instance {
  Database db;
  KeySet keys;

  Paper51Instance() {
    Schema s;
    s.AddRelationOrDie("P", 2);
    s.AddRelationOrDie("S", 2);
    s.AddRelationOrDie("T", 2);
    s.AddRelationOrDie("U", 2);
    db = Database(s);
    db.Add("P", {"a1", "b"});
    db.Add("P", {"a1", "c"});
    db.Add("P", {"a2", "b"});
    db.Add("P", {"a2", "c"});
    db.Add("P", {"a2", "d"});
    db.Add("S", {"c", "d"});
    db.Add("S", {"c", "e"});
    db.Add("T", {"d", "a1"});
    db.Add("U", {"c", "f"});
    db.Add("U", {"c", "g"});
    db.Add("U", {"h", "i"});
    db.Add("U", {"h", "j"});
    db.Add("U", {"h", "k"});
    for (const char* r : {"P", "S", "T", "U"}) {
      keys.SetKeyOrDie(db.schema().Find(r), {0});
    }
  }
};

/// 230 singleton blocks mixed with 40 conflicting blocks of sizes 2..6 (160
/// facts). R's keys are zero-padded, so in block order every conflicting
/// R block sits between singletons; U holds 30 more singletons after them.
struct MixedSingletonInstance {
  Database db;
  KeySet keys;

  MixedSingletonInstance() {
    Schema s;
    s.AddRelationOrDie("R", 2);
    s.AddRelationOrDie("U", 2);
    db = Database(s);
    char key[16];
    for (int i = 0; i < 240; ++i) {
      std::snprintf(key, sizeof(key), "k%03d", i);
      int size = i % 6 == 0 ? 2 + (i / 6) % 5 : 1;
      for (int v = 0; v < size; ++v) {
        db.Add("R", {key, "v" + std::to_string(v)});
      }
    }
    for (int i = 0; i < 30; ++i) {
      db.Add("U", {"u" + std::to_string(i), "w"});
    }
    keys.SetKeyOrDie(db.schema().Find("R"), {0});
    keys.SetKeyOrDie(db.schema().Find("U"), {0});
  }
};

/// InterleavePolys the plain way: a fresh Binomial(i + j, i) per pair.
LenPoly InterleaveByPairBinomials(const LenPoly& a, const LenPoly& b) {
  if (a.empty() || b.empty()) return {};
  LenPoly out(a.size() + b.size() - 1);
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      out[i + j] += a[i] * b[j] *
                    Binomial(static_cast<uint32_t>(i + j),
                             static_cast<uint32_t>(i));
    }
  }
  return out;
}

/// A poly of `len` coefficients: about a third are zero (gaps), the others
/// are 1 to 3 random 64-bit words wide.
LenPoly RandomGappyPoly(Rng& rng, size_t len) {
  LenPoly p(len);
  for (BigInt& c : p) {
    if (rng.UniformIndex(3) == 0) continue;
    size_t words = 1 + rng.UniformIndex(3);
    for (size_t w = 0; w < words; ++w) {
      c.ShiftLeft(64);
      c += rng.NextU64();
    }
  }
  return p;
}

/// UniformBigInt the plain way: one ShiftLeft(32) per drawn word.
BigInt UniformBigIntByShifts(Rng& rng, const BigInt& bound) {
  size_t bits = bound.BitLength();
  size_t limbs = (bits + 31) / 32;
  while (true) {
    BigInt candidate;
    for (size_t i = 0; i < limbs; ++i) {
      candidate.ShiftLeft(32);
      candidate += uint64_t{rng.NextU64() & 0xffffffffull};
    }
    candidate.ShiftRight(limbs * 32 - bits);
    if (candidate < bound) return candidate;
  }
}

// --- operations --------------------------------------------------------------

TEST(OperationsTest, Example11SequencesAndRepairs) {
  EmpInstance inst;
  auto seqs = EnumerateCompleteSequences(inst.db, inst.keys);
  // Exactly three complete sequences: -{Alice}, -{Tom}, -{Alice,Tom}.
  EXPECT_EQ(seqs.size(), 3u);
  std::set<std::vector<FactId>> results;
  for (const auto& s : seqs) {
    EXPECT_EQ(s.size(), 1u);
    auto check = CheckSequence(inst.db, inst.keys, s);
    EXPECT_TRUE(check.repairing);
    EXPECT_TRUE(check.complete);
    results.insert(ApplySequence(inst.db, s));
  }
  // Three distinct repairs: {Alice}, {Tom}, {} (Example 1.1).
  EXPECT_EQ(results.size(), 3u);
  EXPECT_TRUE(results.count({0}) == 1);
  EXPECT_TRUE(results.count({1}) == 1);
  EXPECT_TRUE(results.count({}) == 1);
}

TEST(OperationsTest, UnjustifiedOperationsRejected) {
  EmpInstance inst;
  // Removing Alice twice: the second removal is unjustified (absent fact).
  RepairingSequence bad = {Operation::Single(0), Operation::Single(0)};
  EXPECT_FALSE(CheckSequence(inst.db, inst.keys, bad).repairing);
  // After removing Alice, Tom is alone in his block: -{Tom} unjustified.
  RepairingSequence bad2 = {Operation::Single(0), Operation::Single(1)};
  EXPECT_FALSE(CheckSequence(inst.db, inst.keys, bad2).repairing);
  // Incomplete (empty) sequence on an inconsistent database.
  auto check = CheckSequence(inst.db, inst.keys, {});
  EXPECT_TRUE(check.repairing);
  EXPECT_FALSE(check.complete);
}

TEST(OperationsTest, ConsistentDatabaseHasOnlyEmptySequence) {
  Schema s;
  s.AddRelationOrDie("R", 1);
  Database db(s);
  db.Add("R", {"a"});
  KeySet keys;
  keys.SetKeyOrDie(db.schema().Find("R"), {0});
  auto seqs = EnumerateCompleteSequences(db, keys);
  ASSERT_EQ(seqs.size(), 1u);
  EXPECT_TRUE(seqs[0].empty());
}

TEST(OperationsTest, JustifiedOperationsOfMixedBlocks) {
  Paper51Instance inst;
  std::vector<bool> present(inst.db.size(), true);
  auto ops = JustifiedOperations(inst.db, inst.keys, present);
  // Per block of size n: n singles + C(n,2) pairs.
  // sizes (2,3,2,1,2,3): singles 2+3+2+0+2+3=12, pairs 1+3+1+0+1+3=9.
  EXPECT_EQ(ops.size(), 21u);
}

// --- per-block polynomials ---------------------------------------------------

TEST(CountingTest, BlockPolySmallValues) {
  // n=2: one length-1 triple of sequences: 2 singles + 1 pair = 3.
  LenPoly t2 = BlockTotalPoly(2);
  ASSERT_EQ(t2.size(), 2u);
  EXPECT_EQ(t2[0].ToUint64(), 0u);
  EXPECT_EQ(t2[1].ToUint64(), 3u);
  // n=3: length 1: 3 pairs (leaving one fact); length 2: 3 singles * 3.
  LenPoly t3 = BlockTotalPoly(3);
  ASSERT_EQ(t3.size(), 3u);
  EXPECT_EQ(t3[1].ToUint64(), 3u);
  EXPECT_EQ(t3[2].ToUint64(), 9u);
}

TEST(CountingTest, TotalEqualsKeepOnePlusKeepNone) {
  // cnt[n] == n * K[n-1] + E[n] as length polynomials (outcome split).
  for (size_t n = 1; n <= 9; ++n) {
    LenPoly total = BlockTotalPoly(n);
    LenPoly keep_one = BlockKeepOnePoly(n - 1);
    LenPoly keep_none = BlockKeepNonePoly(n);
    size_t len = std::max(total.size(),
                          std::max(keep_one.size(), keep_none.size()));
    for (size_t l = 0; l < len; ++l) {
      auto at = [l](const LenPoly& p) {
        return l < p.size() ? p[l] : BigInt();
      };
      EXPECT_EQ(at(total), at(keep_one) * static_cast<uint64_t>(n) +
                               at(keep_none))
          << "n=" << n << " l=" << l;
    }
  }
}

TEST(CountingTest, KeepNoneRequiresFinalPair) {
  // E[1] must be identically zero: a lone fact can never be deleted.
  EXPECT_TRUE(PolySum(BlockKeepNonePoly(1)).IsZero());
  // E[2] = exactly the single pair deletion.
  LenPoly e2 = BlockKeepNonePoly(2);
  EXPECT_EQ(PolySum(e2).ToUint64(), 1u);
  EXPECT_EQ(e2[1].ToUint64(), 1u);
  // E[3]: single then pair, 3 ways, length 2.
  LenPoly e3 = BlockKeepNonePoly(3);
  EXPECT_EQ(PolySum(e3).ToUint64(), 3u);
  EXPECT_EQ(e3[2].ToUint64(), 3u);
}

TEST(CountingTest, KeepOneMatchesExample54Blocks) {
  // Block U(h,*) of size 3, keep U(h,i): length 1 (one pair) or length 2
  // (two singles, 2 orders).
  LenPoly k2 = BlockKeepOnePoly(2);
  ASSERT_GE(k2.size(), 3u);
  EXPECT_EQ(k2[1].ToUint64(), 1u);
  EXPECT_EQ(k2[2].ToUint64(), 2u);
}

TEST(CountingTest, InterleaveBinomialWeights) {
  // Two blocks with single sequences of lengths 1 and 2: C(3,1)=3 merges.
  LenPoly a{BigInt(), BigInt(1)};
  LenPoly b{BigInt(), BigInt(), BigInt(1)};
  LenPoly c = InterleavePolys(a, b);
  ASSERT_EQ(c.size(), 4u);
  EXPECT_EQ(c[3].ToUint64(), 3u);
  EXPECT_EQ(PolySum(c).ToUint64(), 3u);
}

TEST(CountingTest, InterleaveMatchesPairBinomialReference) {
  // Long polys with zero gaps: C(i + j, i) spills past 2^64 from i + j = 68
  // on, and the incremental binomial must keep advancing over zero b[j].
  Rng rng(2024);
  for (int trial = 0; trial < 12; ++trial) {
    LenPoly a = RandomGappyPoly(rng, 71 + rng.UniformIndex(60));
    LenPoly b = RandomGappyPoly(rng, 1 + rng.UniformIndex(120));
    if (trial % 3 == 0) b[0] = BigInt();
    if (trial % 4 == 0) a.front() = BigInt();
    LenPoly got = InterleavePolys(a, b);
    LenPoly want = InterleaveByPairBinomials(a, b);
    ASSERT_EQ(got.size(), want.size());
    for (size_t l = 0; l < want.size(); ++l) {
      ASSERT_EQ(got[l], want[l]) << "trial=" << trial << " l=" << l;
    }
  }
  EXPECT_GT(Binomial(130, 65).BitLength(), 64u);
  // {1} is the identity; an empty poly annihilates.
  LenPoly a = RandomGappyPoly(rng, 80);
  LenPoly same = InterleavePolys(a, {BigInt(1)});
  ASSERT_EQ(same.size(), a.size());
  for (size_t l = 0; l < a.size(); ++l) EXPECT_EQ(same[l], a[l]);
  EXPECT_TRUE(InterleavePolys(a, {}).empty());
}

// --- denominators ------------------------------------------------------------

TEST(CountingTest, RepairCountExample11) {
  EmpInstance inst;
  BlockPartition blocks = BlockPartition::Compute(inst.db, inst.keys);
  EXPECT_EQ(CountOperationalRepairs(blocks).ToUint64(), 3u);
  EXPECT_EQ(CountCompleteSequencesExact(blocks).ToUint64(), 3u);
}

TEST(CountingTest, RepairCountPaper51) {
  Paper51Instance inst;
  BlockPartition blocks = BlockPartition::Compute(inst.db, inst.keys);
  // Block sizes 2,3,2,1,2,3 -> (3)(4)(3)(1)(3)(4) = 432 repairs.
  EXPECT_EQ(CountOperationalRepairs(blocks).ToUint64(), 432u);
}

TEST(CountingTest, SequenceCountMatchesEnumerationTwoBlocks) {
  // Blocks of sizes 2 and 2: per-block 3 sequences of length 1 each;
  // interleavings C(2,1)=2 -> 3*3*2 = 18 complete sequences.
  Schema s;
  s.AddRelationOrDie("R", 2);
  Database db(s);
  db.Add("R", {"1", "a"});
  db.Add("R", {"1", "b"});
  db.Add("R", {"2", "a"});
  db.Add("R", {"2", "b"});
  KeySet keys;
  keys.SetKeyOrDie(db.schema().Find("R"), {0});
  BlockPartition blocks = BlockPartition::Compute(db, keys);
  BigInt counted = CountCompleteSequencesExact(blocks);
  EXPECT_EQ(counted.ToUint64(), 18u);
  auto seqs = EnumerateCompleteSequences(db, keys);
  EXPECT_EQ(seqs.size(), 18u);
}

TEST(CountingTest, SequenceCountMatchesEnumerationSize3Block) {
  Schema s;
  s.AddRelationOrDie("R", 2);
  Database db(s);
  db.Add("R", {"1", "a"});
  db.Add("R", {"1", "b"});
  db.Add("R", {"1", "c"});
  db.Add("R", {"2", "x"});
  db.Add("R", {"2", "y"});
  KeySet keys;
  keys.SetKeyOrDie(db.schema().Find("R"), {0});
  BigInt counted =
      CountCompleteSequencesExact(BlockPartition::Compute(db, keys));
  auto seqs = EnumerateCompleteSequences(db, keys);
  EXPECT_EQ(counted.ToUint64(), seqs.size());
  // All enumerated sequences are distinct and complete.
  std::set<RepairingSequence> uniq(seqs.begin(), seqs.end());
  EXPECT_EQ(uniq.size(), seqs.size());
}

// --- Example 5.4 golden value ------------------------------------------------

TEST(CountingTest, Example54SequenceCountIs8640) {
  Paper51Instance inst;
  BlockPartition blocks = BlockPartition::Compute(inst.db, inst.keys);
  ASSERT_EQ(blocks.block_count(), 6u);
  // D' = {P(a1,c), S(c,d), T(d,a1), U(c,f), U(h,i)}: block outcomes are
  // keep P(a1,c); empty P(a2,*); keep S(c,d); keep T(d,a1); keep U(c,f);
  // keep U(h,i).
  auto find = [&](const char* rel, const char* a, const char* b) {
    return inst.db.Find(MakeFact(inst.db.schema(), rel, {a, b}));
  };
  std::vector<BlockOutcome> outcomes(6);
  outcomes[0] = find("P", "a1", "c");
  outcomes[1] = std::nullopt;
  outcomes[2] = find("S", "c", "d");
  outcomes[3] = find("T", "d", "a1");
  outcomes[4] = find("U", "c", "f");
  outcomes[5] = find("U", "h", "i");
  // The paper computes s1 + s2 = 7560 + 1080 = 8640 (Example 5.4).
  EXPECT_EQ(CountSequencesForOutcome(blocks, outcomes).ToUint64(), 8640u);
}

TEST(CountingTest, OutcomeCountsSumToTotal) {
  // Summing CountSequencesForOutcome over all outcome vectors must equal
  // |CRS| (every complete sequence has exactly one outcome).
  Paper51Instance inst;
  BlockPartition blocks = BlockPartition::Compute(inst.db, inst.keys);
  BigInt sum;
  ForEachRepair(blocks, [&](const std::vector<BlockOutcome>& outcomes,
                            const std::vector<FactId>&) {
    sum += CountSequencesForOutcome(blocks, outcomes);
    return true;
  });
  EXPECT_EQ(sum, CountCompleteSequencesExact(blocks));
}

TEST(CountingTest, SingletonFreeChainsMatchFullChain) {
  // The counting chains skip singleton blocks; a reference chain that still
  // interleaves every block's poly must give the same counts.
  MixedSingletonInstance inst;
  BlockPartition blocks = BlockPartition::Compute(inst.db, inst.keys);
  ASSERT_EQ(blocks.block_count(), 270u);
  ASSERT_EQ(blocks.ViolatingBlockCount(), 40u);
  LenPoly all{BigInt(1)};
  for (const Block& b : blocks.blocks()) {
    all = InterleaveByPairBinomials(all, BlockTotalPoly(b.size()));
  }
  EXPECT_EQ(CountCompleteSequencesExact(blocks), PolySum(all));

  auto reference = [&](const std::vector<BlockOutcome>& outcomes) {
    LenPoly acc{BigInt(1)};
    for (size_t i = 0; i < blocks.block_count(); ++i) {
      size_t n = blocks.block(i).size();
      acc = InterleaveByPairBinomials(
          acc, outcomes[i].has_value() ? BlockKeepOnePoly(n - 1)
                                       : BlockKeepNonePoly(n));
    }
    return PolySum(acc);
  };
  Rng rng(99);
  for (int trial = 0; trial < 6; ++trial) {
    std::vector<BlockOutcome> outcomes(blocks.block_count());
    for (size_t i = 0; i < blocks.block_count(); ++i) {
      const Block& b = blocks.block(i);
      size_t pick = b.size() == 1 ? 0 : rng.UniformIndex(b.size() + 1);
      if (pick < b.size()) outcomes[i] = b.facts[pick];
    }
    BigInt want = reference(outcomes);
    EXPECT_FALSE(want.IsZero());
    EXPECT_EQ(CountSequencesForOutcome(blocks, outcomes), want);
  }
  // An emptied singleton is unreachable: both chains count zero.
  std::vector<BlockOutcome> outcomes(blocks.block_count());
  for (size_t i = 0; i < blocks.block_count(); ++i) {
    outcomes[i] = blocks.block(i).facts[0];
  }
  outcomes[1] = std::nullopt;
  ASSERT_EQ(blocks.block(1).size(), 1u);
  EXPECT_TRUE(reference(outcomes).IsZero());
  EXPECT_TRUE(CountSequencesForOutcome(blocks, outcomes).IsZero());
}

// --- numerators and RF -------------------------------------------------------

TEST(CountingTest, ExactRFExample11) {
  EmpInstance inst;
  auto q = ParseQuery("Ans() :- Emp(x,y)");
  ASSERT_TRUE(q.ok());
  ExactRF ur = ExactRepairFrequency(inst.db, inst.keys, *q, {});
  EXPECT_EQ(ur.numerator.ToUint64(), 2u);
  EXPECT_EQ(ur.denominator.ToUint64(), 3u);
  EXPECT_NEAR(ur.value(), 2.0 / 3.0, 1e-12);
  ExactRF us = ExactSequenceFrequency(inst.db, inst.keys, *q, {});
  EXPECT_EQ(us.numerator.ToUint64(), 2u);
  EXPECT_EQ(us.denominator.ToUint64(), 3u);
  EXPECT_TRUE(ur == us);
}

TEST(CountingTest, ExactRFWithAnswerTuple) {
  EmpInstance inst;
  auto q = ParseQuery("Ans(y) :- Emp(x,y)");
  ASSERT_TRUE(q.ok());
  ExactRF rf =
      ExactRepairFrequency(inst.db, inst.keys, *q, {ValuePool::Intern("Alice")});
  // Only the repair {Emp(1,Alice)} entails Ans(Alice): 1/3.
  EXPECT_EQ(rf.numerator.ToUint64(), 1u);
  EXPECT_EQ(rf.denominator.ToUint64(), 3u);
}

TEST(CountingTest, SequenceNumeratorMatchesSequenceEnumeration) {
  // Cross-validate CountSequencesEntailing against raw sequence enumeration.
  Schema s;
  s.AddRelationOrDie("R", 2);
  s.AddRelationOrDie("W", 1);
  Database db(s);
  db.Add("R", {"1", "a"});
  db.Add("R", {"1", "b"});
  db.Add("R", {"2", "a"});
  db.Add("R", {"2", "c"});
  db.Add("W", {"a"});
  KeySet keys;
  keys.SetKeyOrDie(db.schema().Find("R"), {0});
  keys.SetKeyOrDie(db.schema().Find("W"), {0});
  auto q = ParseQuery("Ans() :- R(x,y), W(y)");
  ASSERT_TRUE(q.ok());
  BigInt dp = CountSequencesEntailing(db, keys, *q, {});
  size_t brute = 0;
  for (const auto& seq : EnumerateCompleteSequences(db, keys)) {
    Database result = db.Subset(ApplySequence(db, seq));
    if (Entails(result, *q)) ++brute;
  }
  EXPECT_EQ(dp.ToUint64(), brute);
  EXPECT_GT(brute, 0u);
}

TEST(CountingTest, RepairNumeratorMatchesRepairEnumeration) {
  Paper51Instance inst;
  auto q = ParseQuery("Ans() :- P(x,y), S(y,z), T(z,x), U(y,w)");
  ASSERT_TRUE(q.ok());
  BigInt n = CountRepairsEntailing(inst.db, inst.keys, *q, {});
  // Independent brute force via ForEachRepair + Entails.
  BlockPartition blocks = BlockPartition::Compute(inst.db, inst.keys);
  size_t brute = 0;
  ForEachRepair(blocks, [&](const std::vector<BlockOutcome>&,
                            const std::vector<FactId>& kept) {
    if (Entails(inst.db.Subset(kept), *q)) ++brute;
    return true;
  });
  EXPECT_EQ(n.ToUint64(), brute);
  EXPECT_GT(brute, 0u);   // D' from the paper is one witness
  EXPECT_LT(brute, 432u);
}

// --- samplers ----------------------------------------------------------------

TEST(SamplingTest, UniformBigIntInRange) {
  Rng rng(11);
  BigInt bound = BigInt::FromDecimalString("1000000000000000000000000");
  for (int i = 0; i < 200; ++i) {
    BigInt v = UniformBigInt(rng, bound);
    EXPECT_LT(v, bound);
  }
  // Small bound sanity: all residues hit.
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(UniformBigInt(rng, BigInt(5)).ToUint64());
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(SamplingTest, UniformBigIntMatchesShiftConstruction) {
  // Draw for draw equal to the shift-based construction, with the RNG left
  // at the same position, for bounds of every bit length from 1 to 640:
  // powers of two (rejection about half the time), all-ones values and
  // random values of that length.
  Rng values(5);
  Rng got(17);
  Rng want(17);
  for (size_t bits = 1; bits <= 640; ++bits) {
    BigInt pow2(1);
    pow2.ShiftLeft(bits - 1);
    BigInt ones = pow2;
    ones.ShiftLeft(1);
    ones -= BigInt(1);
    BigInt random = pow2;
    for (size_t w = 0; w * 64 + 1 < bits; ++w) {
      BigInt word(values.NextU64());
      word.ShiftLeft(w * 64);
      random += word;
    }
    random.ShiftRight(random.BitLength() - bits);
    for (const BigInt& bound : {pow2, ones, random}) {
      ASSERT_EQ(bound.BitLength(), bits);
      for (int draw = 0; draw < 3; ++draw) {
        ASSERT_EQ(UniformBigInt(got, bound), UniformBigIntByShifts(want, bound))
            << "bits=" << bits << " draw=" << draw;
      }
      ASSERT_EQ(got.NextU64(), want.NextU64()) << "bits=" << bits;
    }
  }
}

TEST(SamplingTest, RepairSamplerIsUniform) {
  EmpInstance inst;
  UniformRepairSampler sampler(inst.db, inst.keys);
  Rng rng(42);
  std::map<std::vector<FactId>, int> counts;
  const int kTrials = 30000;
  for (int i = 0; i < kTrials; ++i) counts[sampler.Sample(rng)]++;
  ASSERT_EQ(counts.size(), 3u);
  for (const auto& [repair, c] : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kTrials, 1.0 / 3.0, 0.02);
  }
}

TEST(SamplingTest, SequenceSamplerMatchesEnumeration) {
  // Blocks of sizes 2 and 3: enumeration gives the exact distribution
  // support; the sampler must be uniform over it.
  Schema s;
  s.AddRelationOrDie("R", 2);
  Database db(s);
  db.Add("R", {"1", "a"});
  db.Add("R", {"1", "b"});
  db.Add("R", {"2", "x"});
  db.Add("R", {"2", "y"});
  db.Add("R", {"2", "z"});
  KeySet keys;
  keys.SetKeyOrDie(db.schema().Find("R"), {0});
  auto all = EnumerateCompleteSequences(db, keys);
  std::set<RepairingSequence> support(all.begin(), all.end());
  UniformSequenceSampler sampler(db, keys);
  EXPECT_EQ(sampler.total_count().ToUint64(), all.size());

  Rng rng(7);
  std::map<RepairingSequence, int> counts;
  const int kTrials = 60000;
  for (int i = 0; i < kTrials; ++i) {
    RepairingSequence seq = sampler.Sample(rng);
    auto check = CheckSequence(db, keys, seq);
    ASSERT_TRUE(check.repairing);
    ASSERT_TRUE(check.complete);
    ASSERT_TRUE(support.count(seq) == 1);
    counts[seq]++;
  }
  // Every sequence hit, frequencies near uniform.
  EXPECT_EQ(counts.size(), all.size());
  double expected = static_cast<double>(kTrials) / all.size();
  for (const auto& [seq, c] : counts) {
    EXPECT_NEAR(c / expected, 1.0, 0.25) << SequenceToString(db, seq);
  }
}

TEST(SamplingTest, SequenceSamplerHandlesConsistentDatabase) {
  Schema s;
  s.AddRelationOrDie("R", 1);
  Database db(s);
  db.Add("R", {"a"});
  KeySet keys;
  keys.SetKeyOrDie(db.schema().Find("R"), {0});
  UniformSequenceSampler sampler(db, keys);
  EXPECT_EQ(sampler.total_count().ToUint64(), 1u);
  Rng rng(3);
  EXPECT_TRUE(sampler.Sample(rng).empty());
}

TEST(SamplingTest, SequenceSamplerPinnedOnMixedSingletons) {
  // Singleton blocks make only forced, RNG-silent choices, so the sampler
  // walks the conflicting blocks alone. 200 sequences at fixed streams, plus
  // the RNG word after each stream, hash to a value recorded before
  // singletons left the sampler's chains.
  MixedSingletonInstance inst;
  BlockPartition blocks = BlockPartition::Compute(inst.db, inst.keys);
  UniformSequenceSampler sampler(inst.db, inst.keys);
  EXPECT_EQ(sampler.total_count(), CountCompleteSequencesExact(blocks));
  size_t hash = 0;
  for (uint64_t stream = 0; stream < 4; ++stream) {
    Rng rng = Rng::Stream(2024, stream);
    for (int i = 0; i < 50; ++i) {
      RepairingSequence seq = sampler.Sample(rng);
      if (i % 10 == 0) {
        SequenceCheck check = CheckSequence(inst.db, inst.keys, seq);
        ASSERT_TRUE(check.repairing);
        ASSERT_TRUE(check.complete);
      }
      HashCombine(&hash, seq.size());
      for (const Operation& op : seq) {
        for (FactId f : op.facts) HashCombine(&hash, f);
      }
    }
    HashCombine(&hash, static_cast<size_t>(rng.NextU64()));
  }
  EXPECT_EQ(hash, size_t{3359309270447310848ull}) << hash;
}

// --- delta-maintained denominators -------------------------------------------

TEST(DenominatorsTest, UpdateMatchesComputeOverIngestStream) {
  // 360 facts in batches of 40 over R and S (keys drawn from 30 per
  // relation, so >= 300 facts end up conflicting) plus a conflict-free U
  // batch. Both long per-relation polys meet in CombineTotals, where the
  // binomials run to C(~300, ~150), several limbs wide.
  Schema s;
  s.AddRelationOrDie("R", 2);
  s.AddRelationOrDie("S", 2);
  s.AddRelationOrDie("U", 2);
  Database db(s);
  KeySet keys;
  for (const char* r : {"R", "S", "U"}) {
    keys.SetKeyOrDie(db.schema().Find(r), {0});
  }
  BlockPartition blocks = BlockPartition::Compute(db, keys);
  RelationDenominators dens = RelationDenominators::Compute(db, blocks);
  Rng rng(31);
  int next_value = 0;
  for (int batch = 0; batch < 10; ++batch) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    FactId first_new = static_cast<FactId>(db.size());
    bool conflict_free = batch == 4;
    for (int f = 0; f < 40; ++f) {
      std::string value = "v" + std::to_string(next_value++);
      if (conflict_free) {
        db.Add("U", {"u" + value, value});
      } else {
        const char* rel = rng.UniformIndex(2) == 0 ? "R" : "S";
        db.Add(rel, {"k" + std::to_string(rng.UniformIndex(30)), value});
      }
    }
    blocks = BlockPartition::Update(blocks, db, keys, first_new);
    std::vector<RelationId> changed;
    RelationDenominators next =
        RelationDenominators::Update(dens, db, blocks, first_new, &changed);
    RelationDenominators fresh = RelationDenominators::Compute(db, blocks);
    EXPECT_EQ(next.orep(), fresh.orep());
    EXPECT_EQ(next.crs(), fresh.crs());
    EXPECT_EQ(next.orep(), CountOperationalRepairs(blocks));
    EXPECT_EQ(next.crs(), CountCompleteSequencesExact(blocks));
    if (conflict_free) {
      EXPECT_TRUE(changed.empty());
      EXPECT_EQ(next.crs(), dens.crs());
    } else {
      EXPECT_FALSE(changed.empty());
    }
    dens = std::move(next);
  }
  size_t conflicting = 0;
  for (const Block& b : blocks.blocks()) {
    if (b.size() >= 2) conflicting += b.size();
  }
  EXPECT_GE(conflicting, 300u);
  EXPECT_GT(dens.entry(db.schema().Find("R")).crs_poly.size(), 100u);
  EXPECT_GT(dens.entry(db.schema().Find("S")).crs_poly.size(), 100u);
}

}  // namespace
}  // namespace uocqa
