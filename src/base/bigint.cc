#include "base/bigint.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <utility>

namespace uocqa {

namespace {

constexpr uint64_t kBase = uint64_t{1} << 32;

size_t BitWidthU64(uint64_t v) {
  return v == 0 ? 0 : 64 - static_cast<size_t>(__builtin_clzll(v));
}

}  // namespace

void BigInt::Promote() {
  assert(limbs_.empty());
  if (small_ != 0) {
    limbs_.push_back(static_cast<uint32_t>(small_ & 0xffffffffu));
    uint32_t hi = static_cast<uint32_t>(small_ >> 32);
    if (hi != 0) limbs_.push_back(hi);
    small_ = 0;
  }
}

void BigInt::Canonicalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.size() <= 2) {
    uint64_t v = 0;
    if (limbs_.size() == 2) v = static_cast<uint64_t>(limbs_[1]) << 32;
    if (!limbs_.empty()) v |= limbs_[0];
    limbs_.clear();
    small_ = v;
  } else {
    small_ = 0;
  }
}

BigInt BigInt::FromDecimalString(const std::string& digits) {
  BigInt out;
  for (char c : digits) {
    assert(c >= '0' && c <= '9');
    out *= uint64_t{10};
    out += uint64_t{static_cast<uint64_t>(c - '0')};
  }
  return out;
}

BigInt BigInt::FromLimbs(std::vector<uint32_t> limbs) {
  BigInt out;
  out.limbs_ = std::move(limbs);
  out.Canonicalize();
  return out;
}

size_t BigInt::BitLength() const {
  if (limbs_.empty()) return BitWidthU64(small_);
  uint32_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 32;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

uint64_t BigInt::ToUint64() const {
  assert(limbs_.empty() && "BigInt::ToUint64 overflow");
  return small_;
}

uint64_t BigInt::TopBits64() const {
  if (limbs_.empty()) {
    if (small_ == 0) return 0;
    return small_ << (64 - BitWidthU64(small_));
  }
  // Left-aligned top 64 bits of the magnitude.
  size_t bl = BitLength();
  uint64_t acc = 0;
  // Collect the top three limbs into a 96-bit window, then shift.
  size_t n = limbs_.size();
  unsigned __int128 window = 0;
  for (size_t i = 0; i < 3; ++i) {
    window <<= 32;
    if (i < n) window |= limbs_[n - 1 - i];
  }
  // window holds the top (up to) 96 bits; its MSB is at position
  // (bl - 1) % 32 + 64 within the 96-bit window.
  size_t msb_in_window = ((bl - 1) % 32) + 64;
  if (msb_in_window >= 63) {
    acc = static_cast<uint64_t>(window >> (msb_in_window - 63));
  } else {
    acc = static_cast<uint64_t>(window << (63 - msb_in_window));
  }
  return acc;
}

double BigInt::ToDouble() const {
  size_t bl = BitLength();
  if (bl == 0) return 0.0;
  uint64_t top = TopBits64();
  // top has its MSB at bit 63 and represents value * 2^(64 - bl) ... i.e.
  // value ~= top * 2^(bl - 64).
  return std::ldexp(static_cast<double>(top), static_cast<int>(bl) - 64);
}

double BigInt::Log2() const {
  size_t bl = BitLength();
  assert(bl > 0);
  uint64_t top = TopBits64();
  return std::log2(static_cast<double>(top)) + static_cast<double>(bl) - 64.0;
}

std::string BigInt::ToString() const {
  if (limbs_.empty()) return std::to_string(small_);
  BigInt tmp = *this;
  std::string out;
  while (!tmp.IsZero()) {
    uint32_t rem = tmp.DivModU32(1000000000u);
    for (int i = 0; i < 9; ++i) {
      out.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (out.size() > 1 && out.back() == '0') out.pop_back();
  std::reverse(out.begin(), out.end());
  return out;
}

int BigInt::Compare(const BigInt& other) const {
  // Canonical form: limbs are only used for values >= 2^64, so mixed
  // representations compare by representation alone.
  if (limbs_.empty() != other.limbs_.empty()) {
    return limbs_.empty() ? -1 : 1;
  }
  if (limbs_.empty()) {
    if (small_ == other.small_) return 0;
    return small_ < other.small_ ? -1 : 1;
  }
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] < other.limbs_[i] ? -1 : 1;
  }
  return 0;
}

void BigInt::AddU64ToLimbs(uint64_t v) {
  uint64_t carry = v;
  for (size_t i = 0; i < limbs_.size() && carry != 0; ++i) {
    uint64_t sum = (carry & 0xffffffffu) + limbs_[i];
    limbs_[i] = static_cast<uint32_t>(sum & 0xffffffffu);
    carry = (carry >> 32) + (sum >> 32);
  }
  while (carry != 0) {
    limbs_.push_back(static_cast<uint32_t>(carry & 0xffffffffu));
    carry >>= 32;
  }
}

BigInt& BigInt::operator+=(uint64_t v) {
  if (limbs_.empty()) {
    uint64_t sum;
    if (!__builtin_add_overflow(small_, v, &sum)) {
      small_ = sum;
      return *this;
    }
    // Spill: the true value is 2^64 + sum.
    limbs_ = {static_cast<uint32_t>(sum & 0xffffffffu),
              static_cast<uint32_t>(sum >> 32), 1u};
    small_ = 0;
    return *this;
  }
  AddU64ToLimbs(v);
  return *this;
}

BigInt& BigInt::operator+=(const BigInt& o) {
  if (o.limbs_.empty()) return *this += o.small_;
  if (limbs_.empty()) {
    uint64_t v = small_;
    limbs_ = o.limbs_;
    small_ = 0;
    AddU64ToLimbs(v);
    return *this;
  }
  size_t n = std::max(limbs_.size(), o.limbs_.size());
  limbs_.resize(n, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t sum = carry + limbs_[i] + (i < o.limbs_.size() ? o.limbs_[i] : 0);
    limbs_[i] = static_cast<uint32_t>(sum & 0xffffffffu);
    carry = sum >> 32;
  }
  if (carry != 0) limbs_.push_back(static_cast<uint32_t>(carry));
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& o) {
  assert(Compare(o) >= 0 && "BigInt subtraction underflow");
  if (limbs_.empty()) {
    // o <= *this < 2^64, so o is small too.
    small_ -= o.small_;
    return *this;
  }
  BigInt promoted;  // o in limb form, when it is small
  const std::vector<uint32_t>* ol = &o.limbs_;
  if (o.limbs_.empty()) {
    promoted = o;
    promoted.Promote();
    ol = &promoted.limbs_;
  }
  int64_t borrow = 0;
  for (size_t i = 0; i < limbs_.size(); ++i) {
    int64_t diff = static_cast<int64_t>(limbs_[i]) - borrow -
                   (i < ol->size() ? static_cast<int64_t>((*ol)[i]) : 0);
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    limbs_[i] = static_cast<uint32_t>(diff);
  }
  assert(borrow == 0);
  Canonicalize();
  return *this;
}

std::vector<uint32_t> BigInt::MulLimbs(const std::vector<uint32_t>& a,
                                       const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t carry = 0;
    uint64_t ai = a[i];
    for (size_t j = 0; j < b.size(); ++j) {
      uint64_t cur = out[i + j] + carry + ai * b[j];
      out[i + j] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    size_t k = i + b.size();
    while (carry != 0) {
      uint64_t cur = out[k] + carry;
      out[k] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  return out;
}

BigInt operator*(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) return BigInt();
  if (a.limbs_.empty() && b.limbs_.empty()) {
    unsigned __int128 p =
        static_cast<unsigned __int128>(a.small_) * b.small_;
    uint64_t hi = static_cast<uint64_t>(p >> 64);
    if (hi == 0) return BigInt(static_cast<uint64_t>(p));
    BigInt out;
    uint64_t lo = static_cast<uint64_t>(p);
    out.limbs_ = {static_cast<uint32_t>(lo & 0xffffffffu),
                  static_cast<uint32_t>(lo >> 32),
                  static_cast<uint32_t>(hi & 0xffffffffu),
                  static_cast<uint32_t>(hi >> 32)};
    out.Canonicalize();
    return out;
  }
  if (b.limbs_.empty()) {
    BigInt out = a;
    out *= b.small_;
    return out;
  }
  if (a.limbs_.empty()) {
    BigInt out = b;
    out *= a.small_;
    return out;
  }
  BigInt out;
  out.limbs_ = BigInt::MulLimbs(a.limbs_, b.limbs_);
  out.Canonicalize();
  return out;
}

BigInt& BigInt::operator*=(const BigInt& o) {
  *this = *this * o;
  return *this;
}

BigInt& BigInt::operator*=(uint64_t v) {
  if (v == 0 || IsZero()) {
    limbs_.clear();
    small_ = 0;
    return *this;
  }
  if (limbs_.empty()) {
    unsigned __int128 p = static_cast<unsigned __int128>(small_) * v;
    uint64_t hi = static_cast<uint64_t>(p >> 64);
    if (hi == 0) {
      small_ = static_cast<uint64_t>(p);
      return *this;
    }
    uint64_t lo = static_cast<uint64_t>(p);
    limbs_ = {static_cast<uint32_t>(lo & 0xffffffffu),
              static_cast<uint32_t>(lo >> 32),
              static_cast<uint32_t>(hi & 0xffffffffu),
              static_cast<uint32_t>(hi >> 32)};
    small_ = 0;
    Canonicalize();
    return *this;
  }
  uint32_t lo = static_cast<uint32_t>(v & 0xffffffffu);
  uint32_t hi = static_cast<uint32_t>(v >> 32);
  if (hi == 0) {
    uint64_t carry = 0;
    for (size_t i = 0; i < limbs_.size(); ++i) {
      uint64_t cur = static_cast<uint64_t>(limbs_[i]) * lo + carry;
      limbs_[i] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    if (carry != 0) limbs_.push_back(static_cast<uint32_t>(carry));
    return *this;
  }
  std::vector<uint32_t> vl{lo, hi};
  limbs_ = MulLimbs(limbs_, vl);
  Canonicalize();
  return *this;
}

BigInt& BigInt::ShiftLeft(size_t bits) {
  if (IsZero() || bits == 0) return *this;
  if (limbs_.empty()) {
    size_t width = BitWidthU64(small_);
    if (width + bits <= 64) {
      small_ <<= bits;
      return *this;
    }
    Promote();
  }
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  size_t old_size = limbs_.size();
  limbs_.resize(old_size + limb_shift + (bit_shift != 0 ? 1 : 0), 0);
  for (size_t i = old_size; i-- > 0;) {
    uint64_t v = static_cast<uint64_t>(limbs_[i]) << bit_shift;
    limbs_[i + limb_shift] = static_cast<uint32_t>(v & 0xffffffffu);
    if (bit_shift != 0) {
      limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
    }
    if (i < limb_shift) limbs_[i] = 0;
  }
  for (size_t i = 0; i < limb_shift; ++i) limbs_[i] = 0;
  Canonicalize();
  return *this;
}

BigInt& BigInt::ShiftRight(size_t bits) {
  if (limbs_.empty()) {
    small_ = bits >= 64 ? 0 : small_ >> bits;
    return *this;
  }
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) {
    limbs_.clear();
    small_ = 0;
    return *this;
  }
  limbs_.erase(limbs_.begin(),
               limbs_.begin() + static_cast<ptrdiff_t>(limb_shift));
  if (bit_shift != 0) {
    for (size_t i = 0; i < limbs_.size(); ++i) {
      uint32_t hi = (i + 1 < limbs_.size()) ? limbs_[i + 1] : 0;
      limbs_[i] = static_cast<uint32_t>(
          ((static_cast<uint64_t>(hi) << 32 | limbs_[i]) >> bit_shift) &
          0xffffffffu);
    }
  }
  Canonicalize();
  return *this;
}

uint32_t BigInt::DivModU32(uint32_t divisor) {
  assert(divisor != 0);
  if (limbs_.empty()) {
    uint32_t rem = static_cast<uint32_t>(small_ % divisor);
    small_ /= divisor;
    return rem;
  }
  uint64_t rem = 0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    uint64_t cur = (rem << 32) | limbs_[i];
    limbs_[i] = static_cast<uint32_t>(cur / divisor);
    rem = cur % divisor;
  }
  Canonicalize();
  return static_cast<uint32_t>(rem);
}

double BigInt::RatioAsDouble(const BigInt& num, const BigInt& den) {
  assert(!den.IsZero());
  if (num.IsZero()) return 0.0;
  size_t bn = num.BitLength();
  size_t bd = den.BitLength();
  double n_top = static_cast<double>(num.TopBits64());
  double d_top = static_cast<double>(den.TopBits64());
  // num ~= n_top * 2^(bn-64); den ~= d_top * 2^(bd-64).
  return std::ldexp(n_top / d_top,
                    static_cast<int>(bn) - static_cast<int>(bd));
}

BigInt Binomial(uint32_t n, uint32_t k) {
  if (k > n) return BigInt();
  if (k > n - k) k = n - k;
  // Row-by-row Pascal cache would be quadratic in memory for large n; a
  // direct product with exact small division is enough here because
  // C(n,k) = C(n,k-1) * (n-k+1) / k and the intermediate is always exact.
  BigInt result(1);
  for (uint32_t i = 1; i <= k; ++i) {
    result *= uint64_t{n - k + i};
    uint32_t rem = result.DivModU32(i);
    (void)rem;
    assert(rem == 0);
  }
  return result;
}

BigInt Factorial(uint32_t n) {
  BigInt result(1);
  for (uint32_t i = 2; i <= n; ++i) result *= uint64_t{i};
  return result;
}

BigInt Multinomial(const std::vector<uint32_t>& parts) {
  BigInt result(1);
  uint32_t total = 0;
  for (uint32_t p : parts) {
    total += p;
    result *= Binomial(total, p);
  }
  return result;
}

}  // namespace uocqa
