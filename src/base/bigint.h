// Arbitrary-precision *non-negative* integers.
//
// Counting problems in this library (numbers of operational repairs,
// repairing sequences, interleavings, accepted trees) produce values that
// grow factorially with the database size; |CRS(D, Sigma)| overflows 64 bits
// for databases with a couple dozen conflicting facts. All counting code
// therefore uses BigInt.
//
// Design notes:
//  * Magnitudes only. Every count in the paper is a natural number; the
//    handful of subtractions that occur (inclusion-exclusion in tests)
//    guarantee non-negative results, enforced by assertions.
//  * Small-value fast path: values < 2^64 live in an inline uint64_t and
//    never touch the heap. The exact-count DP performs millions of
//    additions and multiplications whose operands overwhelmingly fit in a
//    word; only a carry past 2^64 spills to heap limbs. Canonical form:
//    `limbs_` is non-empty iff the value is >= 2^64 (so the representation
//    of every value is unique, and comparison can shortcut on it).
//  * Spilled values use base 2^32 limbs, little-endian, normalized (no
//    leading zeros; at least three limbs by the canonical-form invariant).
//  * No general big/big division. Only what the library needs:
//    - multiplication/addition/subtraction/comparison/shifts,
//    - division by a 32-bit digit (decimal printing),
//    - `RatioAsDouble` for converting count ratios (relative frequencies)
//      to double without materializing huge quotients.

#ifndef UOCQA_BASE_BIGINT_H_
#define UOCQA_BASE_BIGINT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace uocqa {

class BigInt {
 public:
  /// Zero.
  BigInt() = default;

  /// Value-initializing constructor from an unsigned 64-bit integer.
  explicit BigInt(uint64_t value) : small_(value) {}

  /// Parses a decimal string of digits. Returns zero for an empty string.
  static BigInt FromDecimalString(const std::string& digits);

  /// The value of little-endian base-2^32 limbs (leading zeros allowed).
  static BigInt FromLimbs(std::vector<uint32_t> limbs);

  bool IsZero() const { return limbs_.empty() && small_ == 0; }
  bool IsOne() const { return limbs_.empty() && small_ == 1; }

  /// True when the value fits in the inline uint64_t (no heap limbs).
  bool IsSmall() const { return limbs_.empty(); }

  /// Number of significant bits (0 for zero).
  size_t BitLength() const;

  /// Truncates to uint64 (asserts the value fits).
  uint64_t ToUint64() const;

  /// Nearest double (may be +inf for astronomically large values).
  double ToDouble() const;

  /// Decimal representation.
  std::string ToString() const;

  // -- comparison -----------------------------------------------------------
  int Compare(const BigInt& other) const;
  bool operator==(const BigInt& o) const { return Compare(o) == 0; }
  bool operator!=(const BigInt& o) const { return Compare(o) != 0; }
  bool operator<(const BigInt& o) const { return Compare(o) < 0; }
  bool operator<=(const BigInt& o) const { return Compare(o) <= 0; }
  bool operator>(const BigInt& o) const { return Compare(o) > 0; }
  bool operator>=(const BigInt& o) const { return Compare(o) >= 0; }

  // -- arithmetic -----------------------------------------------------------
  BigInt& operator+=(const BigInt& o);
  /// Asserts *this >= o (magnitude arithmetic only).
  BigInt& operator-=(const BigInt& o);
  BigInt& operator*=(const BigInt& o);
  BigInt& operator+=(uint64_t v);
  BigInt& operator*=(uint64_t v);

  friend BigInt operator+(BigInt a, const BigInt& b) { return a += b; }
  friend BigInt operator-(BigInt a, const BigInt& b) { return a -= b; }
  friend BigInt operator*(const BigInt& a, const BigInt& b);
  friend BigInt operator*(BigInt a, uint64_t b) { return a *= b; }

  /// Shifts left by `bits` bit positions.
  BigInt& ShiftLeft(size_t bits);
  /// Shifts right by `bits` bit positions (towards zero).
  BigInt& ShiftRight(size_t bits);

  /// Divides in place by a non-zero 32-bit divisor; returns the remainder.
  uint32_t DivModU32(uint32_t divisor);

  /// num/den as a double via top-bits extraction; den must be non-zero.
  /// Relative error is about 2^-52 regardless of operand sizes.
  static double RatioAsDouble(const BigInt& num, const BigInt& den);

  /// log2(value) as a double; value must be non-zero.
  double Log2() const;

 private:
  /// Moves a small value into `limbs_` so the limb algorithms below apply.
  /// Intermediate state only — Canonicalize() restores the invariant.
  void Promote();
  /// Drops leading zero limbs and collapses values < 2^64 back into the
  /// inline word (the canonical-form invariant).
  void Canonicalize();
  /// Adds `v` into an already-promoted limb representation.
  void AddU64ToLimbs(uint64_t v);
  /// Top (up to) 64 significant bits, left-aligned so bit 63 is the MSB.
  uint64_t TopBits64() const;
  /// Schoolbook limb product (used by all spilled multiplications).
  static std::vector<uint32_t> MulLimbs(const std::vector<uint32_t>& a,
                                        const std::vector<uint32_t>& b);

  uint64_t small_ = 0;           // the value, when limbs_ is empty
  std::vector<uint32_t> limbs_;  // little-endian base 2^32, else
};

/// Binomial coefficient C(n, k) computed exactly.
BigInt Binomial(uint32_t n, uint32_t k);

/// n! computed exactly.
BigInt Factorial(uint32_t n);

/// Multinomial coefficient (sum(parts))! / prod(parts!) computed as a product
/// of binomials, so it stays in BigInt multiplication land.
BigInt Multinomial(const std::vector<uint32_t>& parts);

}  // namespace uocqa

#endif  // UOCQA_BASE_BIGINT_H_
