#include "base/bigint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "base/rng.h"

namespace uocqa {
namespace {

TEST(BigIntTest, DefaultIsZero) {
  BigInt z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_EQ(z.ToString(), "0");
  EXPECT_EQ(z.BitLength(), 0u);
  EXPECT_EQ(z.ToDouble(), 0.0);
}

TEST(BigIntTest, Uint64RoundTrip) {
  for (uint64_t v : {0ull, 1ull, 2ull, 4294967295ull, 4294967296ull,
                     18446744073709551615ull}) {
    BigInt b(v);
    EXPECT_EQ(b.ToUint64(), v) << v;
    EXPECT_EQ(b.ToString(), std::to_string(v));
  }
}

TEST(BigIntTest, DecimalStringRoundTrip) {
  const std::string big = "123456789012345678901234567890123456789";
  BigInt b = BigInt::FromDecimalString(big);
  EXPECT_EQ(b.ToString(), big);
}

TEST(BigIntTest, AdditionMatchesUint64) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t a = rng.NextU64() >> 1;
    uint64_t b = rng.NextU64() >> 1;
    EXPECT_EQ((BigInt(a) + BigInt(b)).ToUint64(), a + b);
  }
}

TEST(BigIntTest, SubtractionMatchesUint64) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    uint64_t a = rng.NextU64();
    uint64_t b = rng.NextU64();
    if (a < b) std::swap(a, b);
    EXPECT_EQ((BigInt(a) - BigInt(b)).ToUint64(), a - b);
  }
}

TEST(BigIntTest, MultiplicationMatchesUint64) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    uint64_t a = rng.NextU64() & 0xffffffffull;
    uint64_t b = rng.NextU64() & 0xffffffffull;
    EXPECT_EQ((BigInt(a) * BigInt(b)).ToUint64(), a * b);
    EXPECT_EQ((BigInt(a) * b).ToUint64(), a * b);
  }
}

TEST(BigIntTest, LargeMultiplicationKnownValue) {
  // (2^128 - 1)^2 = 2^256 - 2^129 + 1
  BigInt a = BigInt::FromDecimalString("340282366920938463463374607431768211455");
  BigInt sq = a * a;
  EXPECT_EQ(sq.ToString(),
            "115792089237316195423570985008687907852589419931798687112530"
            "834793049593217025");
}

TEST(BigIntTest, CompareOrdering) {
  BigInt a(5), b(7);
  EXPECT_LT(a, b);
  EXPECT_LE(a, b);
  EXPECT_GT(b, a);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, BigInt(5));
  BigInt big = BigInt::FromDecimalString("99999999999999999999999");
  EXPECT_LT(b, big);
}

TEST(BigIntTest, ShiftLeftRight) {
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    uint64_t v = rng.NextU64() >> 8;
    size_t s = rng.UniformIndex(8);
    BigInt b(v);
    b.ShiftLeft(s);
    EXPECT_EQ(b.ToUint64(), v << s);
    b.ShiftRight(s);
    EXPECT_EQ(b.ToUint64(), v);
  }
  BigInt one(1);
  one.ShiftLeft(200);
  EXPECT_EQ(one.BitLength(), 201u);
  one.ShiftRight(200);
  EXPECT_TRUE(one.IsOne());
  one.ShiftRight(5);
  EXPECT_TRUE(one.IsZero());
}

TEST(BigIntTest, DivModU32) {
  BigInt b = BigInt::FromDecimalString("123456789012345678901");
  uint32_t rem = b.DivModU32(1000u);
  EXPECT_EQ(rem, 901u);
  EXPECT_EQ(b.ToString(), "123456789012345678");
}

TEST(BigIntTest, ToDoubleAccuracy) {
  BigInt b = BigInt::FromDecimalString("1000000000000000000000000000000");
  EXPECT_NEAR(b.ToDouble(), 1e30, 1e15);
}

TEST(BigIntTest, RatioAsDouble) {
  BigInt num = BigInt::FromDecimalString("123456789012345678901234567890");
  BigInt den = BigInt::FromDecimalString("987654321098765432109876543210");
  EXPECT_NEAR(BigInt::RatioAsDouble(num, den), 0.1249999988609375, 1e-12);
  EXPECT_EQ(BigInt::RatioAsDouble(BigInt(), den), 0.0);
  // Huge ratio that would overflow double numerator/denominator separately.
  BigInt n2(3);
  n2.ShiftLeft(5000);
  BigInt d2(2);
  d2.ShiftLeft(5000);
  EXPECT_DOUBLE_EQ(BigInt::RatioAsDouble(n2, d2), 1.5);
}

TEST(BigIntTest, Log2) {
  BigInt b(1);
  b.ShiftLeft(100);
  EXPECT_NEAR(b.Log2(), 100.0, 1e-9);
  EXPECT_NEAR(BigInt(3).Log2(), 1.584962500721156, 1e-12);
}

TEST(BigIntTest, BinomialKnownValues) {
  EXPECT_EQ(Binomial(0, 0).ToString(), "1");
  EXPECT_EQ(Binomial(5, 2).ToUint64(), 10u);
  EXPECT_EQ(Binomial(7, 5).ToUint64(), 21u);  // Example 5.4 amplifier
  EXPECT_EQ(Binomial(10, 11).ToUint64(), 0u);
  EXPECT_EQ(Binomial(100, 50).ToString(),
            "100891344545564193334812497256");
}

TEST(BigIntTest, BinomialPascalIdentity) {
  for (uint32_t n = 1; n < 40; ++n) {
    for (uint32_t k = 1; k <= n; ++k) {
      EXPECT_EQ(Binomial(n, k), Binomial(n - 1, k - 1) + Binomial(n - 1, k));
    }
  }
}

TEST(BigIntTest, FactorialKnownValues) {
  EXPECT_EQ(Factorial(0).ToUint64(), 1u);
  EXPECT_EQ(Factorial(5).ToUint64(), 120u);
  EXPECT_EQ(Factorial(20).ToUint64(), 2432902008176640000ull);
  EXPECT_EQ(Factorial(25).ToString(), "15511210043330985984000000");
}

TEST(BigIntTest, MultinomialMatchesFactorialFormula) {
  // (3+2+2)! / (3!2!2!) = 5040/24 = 210
  EXPECT_EQ(Multinomial({3, 2, 2}).ToUint64(), 210u);
  EXPECT_EQ(Multinomial({}).ToUint64(), 1u);
  EXPECT_EQ(Multinomial({4}).ToUint64(), 1u);
  // Example 5.4 interleaving: 7!/(1!2!1!1!2!) = 1260.
  EXPECT_EQ(Multinomial({1, 2, 1, 1, 2}).ToUint64(), 1260u);
}

// --- small-value fast path: spill boundaries & small/limb cross-checks ------

// Forces the limb (spilled) representation of a value that fits in 64 bits
// by shifting it above 2^64 and back: every intermediate op must agree with
// the small path afterwards.
BigInt ViaLimbs(uint64_t v) {
  BigInt b(v);
  b.ShiftLeft(96);
  b.ShiftRight(96);
  return b;
}

TEST(BigIntSmallPathTest, RepresentationInvariant) {
  // Values < 2^64 are small; >= 2^64 are spilled; ops that shrink a value
  // below the boundary collapse it back.
  EXPECT_TRUE(BigInt(0).IsSmall());
  EXPECT_TRUE(BigInt(~0ull).IsSmall());
  BigInt spill = BigInt(~0ull) + BigInt(1);
  EXPECT_FALSE(spill.IsSmall());
  EXPECT_EQ(spill.ToString(), "18446744073709551616");  // 2^64
  spill -= BigInt(1);
  EXPECT_TRUE(spill.IsSmall());
  EXPECT_EQ(spill.ToUint64(), ~0ull);
  // (2^64 - 1) * 1000 is spilled; dividing the 1000 back out collapses it.
  BigInt q = BigInt::FromDecimalString("18446744073709551615000");
  EXPECT_FALSE(q.IsSmall());
  EXPECT_EQ(q.DivModU32(1000u), 0u);
  EXPECT_TRUE(q.IsSmall());
  EXPECT_EQ(q.ToUint64(), ~0ull);
  EXPECT_FALSE((BigInt(1) + BigInt(~0ull)).IsSmall());
  // FromLimbs canonicalizes: leading zero limbs drop, and values below
  // 2^64 land in the inline word.
  BigInt two_limbs = BigInt::FromLimbs({0xffffffffu, 0xffffffffu, 0u, 0u});
  EXPECT_TRUE(two_limbs.IsSmall());
  EXPECT_EQ(two_limbs.ToUint64(), ~0ull);
  EXPECT_TRUE(BigInt::FromLimbs({0u, 0u, 0u}).IsZero());
  EXPECT_TRUE(BigInt::FromLimbs({}).IsZero());
  BigInt three_limbs = BigInt::FromLimbs({0u, 0u, 1u, 0u});
  EXPECT_FALSE(three_limbs.IsSmall());
  EXPECT_EQ(three_limbs, BigInt(~0ull) + BigInt(1));
}

TEST(BigIntSmallPathTest, AdditionSpillAt64) {
  // a + b straddling 2^64: cross-check against 128-bit arithmetic.
  const uint64_t kMax = ~0ull;
  for (uint64_t a : {kMax, kMax - 1, uint64_t{1} << 63, kMax / 2}) {
    for (uint64_t b : {uint64_t{1}, uint64_t{2}, kMax, uint64_t{1} << 63}) {
      BigInt s = BigInt(a) + BigInt(b);
      unsigned __int128 ref = static_cast<unsigned __int128>(a) + b;
      uint64_t hi = static_cast<uint64_t>(ref >> 64);
      uint64_t lo = static_cast<uint64_t>(ref);
      BigInt expect = (BigInt(hi).ShiftLeft(64)) + BigInt(lo);
      EXPECT_EQ(s, expect) << a << " + " << b;
      EXPECT_EQ(s.IsSmall(), hi == 0);
      // Subtracting one addend crosses back below the boundary.
      EXPECT_EQ((s - BigInt(b)).ToUint64(), a);
      EXPECT_TRUE((s - BigInt(b)).IsSmall());
    }
  }
}

TEST(BigIntSmallPathTest, MultiplicationSpillAt32And64) {
  // Products around 2^32 stay small; around 2^64 they spill. Cross-check
  // against 128-bit arithmetic and the decimal printer.
  const uint64_t k32 = uint64_t{1} << 32;
  for (uint64_t a : {k32 - 1, k32, k32 + 1, (uint64_t{1} << 33) - 7}) {
    for (uint64_t b : {k32 - 1, k32, k32 + 1, uint64_t{977}}) {
      BigInt p = BigInt(a) * BigInt(b);
      unsigned __int128 ref = static_cast<unsigned __int128>(a) * b;
      uint64_t hi = static_cast<uint64_t>(ref >> 64);
      uint64_t lo = static_cast<uint64_t>(ref);
      BigInt expect = (BigInt(hi).ShiftLeft(64)) + BigInt(lo);
      EXPECT_EQ(p, expect) << a << " * " << b;
      EXPECT_EQ(p.IsSmall(), hi == 0) << a << " * " << b;
      BigInt q = BigInt(a);
      q *= b;  // the u64 overload takes the same fast path
      EXPECT_EQ(q, expect);
    }
  }
}

TEST(BigIntSmallPathTest, SmallAndLimbPathsAgree) {
  // The same value computed via the small path and via a forced limb
  // round-trip must be indistinguishable under every operation.
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    uint64_t a = rng.NextU64();
    uint64_t b = rng.NextU64();
    if (a < b) std::swap(a, b);
    BigInt sa(a), la = ViaLimbs(a);
    BigInt sb(b), lb = ViaLimbs(b);
    EXPECT_EQ(la.ToUint64(), a);
    EXPECT_TRUE(la.IsSmall());  // round-trip collapses back
    EXPECT_EQ(sa.Compare(la), 0);
    EXPECT_EQ(sa + sb, la + lb);
    EXPECT_EQ(sa - sb, la - lb);
    EXPECT_EQ(sa * sb, la * lb);
    EXPECT_EQ((sa + sb).ToString(), (la + lb).ToString());
    size_t sh = rng.UniformIndex(130);
    BigInt ss = sa;
    ss.ShiftLeft(sh);
    BigInt ls = la;
    ls.ShiftLeft(sh);
    EXPECT_EQ(ss, ls) << "a=" << a << " shift=" << sh;
    ss.ShiftRight(sh);
    EXPECT_EQ(ss.ToUint64(), a);
  }
}

TEST(BigIntSmallPathTest, ShiftBoundaries) {
  BigInt b(1);
  b.ShiftLeft(63);
  EXPECT_TRUE(b.IsSmall());
  EXPECT_EQ(b.ToUint64(), uint64_t{1} << 63);
  b.ShiftLeft(1);  // 2^64: spills
  EXPECT_FALSE(b.IsSmall());
  EXPECT_EQ(b.ToString(), "18446744073709551616");
  EXPECT_EQ(b.BitLength(), 65u);
  b.ShiftRight(1);  // back under the boundary
  EXPECT_TRUE(b.IsSmall());
  EXPECT_EQ(b.ToUint64(), uint64_t{1} << 63);
  // Shift by more than the whole width.
  b.ShiftRight(200);
  EXPECT_TRUE(b.IsZero());
}

TEST(BigIntSmallPathTest, CompareAcrossTheBoundary) {
  BigInt small(~0ull);                    // 2^64 - 1
  BigInt big = BigInt(1).ShiftLeft(64);   // 2^64
  EXPECT_LT(small, big);
  EXPECT_GT(big, small);
  EXPECT_EQ(big - BigInt(1), small);
  EXPECT_LT(BigInt(0), small);
  // Mixed-representation equality after a shrink.
  BigInt shrunk = big;
  shrunk.ShiftRight(64);
  EXPECT_EQ(shrunk, BigInt(1));
}

TEST(BigIntSmallPathTest, DivModAcrossTheBoundary) {
  // 2^64 / 2 = 2^63 collapses back to small with remainder 0.
  BigInt b = BigInt(1).ShiftLeft(64);
  EXPECT_EQ(b.DivModU32(2u), 0u);
  EXPECT_TRUE(b.IsSmall());
  EXPECT_EQ(b.ToUint64(), uint64_t{1} << 63);
  // Small-path remainder agrees with native arithmetic.
  BigInt s(1234567890123456789ull);
  EXPECT_EQ(s.DivModU32(1000000007u), 1234567890123456789ull % 1000000007u);
  EXPECT_EQ(s.ToUint64(), 1234567890123456789ull / 1000000007u);
}

TEST(BigIntTest, MulAddStressAgainstDouble) {
  Rng rng(7);
  BigInt acc(1);
  double approx = 1.0;
  for (int i = 0; i < 300; ++i) {
    uint64_t m = 1 + rng.UniformU64(1000);
    acc *= m;
    approx *= static_cast<double>(m);
    if (approx > 1e300) break;  // keep double in range
  }
  EXPECT_NEAR(acc.ToDouble() / approx, 1.0, 1e-9);
}

}  // namespace
}  // namespace uocqa
