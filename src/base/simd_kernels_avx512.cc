// AVX-512 backend (F/BW/VL/DQ): 8 uint64 words per vector, mask-register
// group probes. Compiled in its own TU with per-file -mavx512* flags and
// only invoked after the runtime CPUID check in simd_kernels.cc. Every
// kernel is bit-identical to the scalar reference.

#include "base/simd_kernels_detail.h"

#if defined(UOCQA_SIMD_AVX512)

#include <immintrin.h>

namespace uocqa {
namespace simd {
namespace detail {
namespace {

void ClearWordsAvx512(uint64_t* dst, size_t n) {
  size_t i = 0;
  __m512i zero = _mm512_setzero_si512();
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(dst + i, zero);
  }
  if (i < n) {
    __mmask8 tail = static_cast<__mmask8>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_epi64(dst + i, tail, zero);
  }
}

void AndWordsAvx512(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                    size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(dst + i,
                        _mm512_and_si512(_mm512_loadu_si512(a + i),
                                         _mm512_loadu_si512(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] & b[i];
}

void OrWordsAvx512(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                   size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_si512(dst + i,
                        _mm512_or_si512(_mm512_loadu_si512(a + i),
                                        _mm512_loadu_si512(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] | b[i];
}

void AccumulateMaskedAvx512(uint64_t* dst, const uint64_t* src,
                            const uint64_t* mask, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m512i vd = _mm512_loadu_si512(dst + i);
    __m512i vs = _mm512_loadu_si512(src + i);
    __m512i vm = _mm512_loadu_si512(mask + i);
    _mm512_storeu_si512(dst + i,
                        _mm512_or_si512(vd, _mm512_and_si512(vs, vm)));
  }
  for (; i < n; ++i) dst[i] |= src[i] & mask[i];
}

bool EqualWordsAvx512(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    if (_mm512_cmpneq_epi64_mask(_mm512_loadu_si512(a + i),
                                 _mm512_loadu_si512(b + i)) != 0) {
      return false;
    }
  }
  for (; i < n; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// Lane-wise MixWord (same math as detail::MixWord; `idx1` holds i+1).
/// AVX-512DQ provides a true 64-bit lane multiply.
inline __m512i MixWord8(__m512i w, __m512i idx1) {
  const __m512i golden =
      _mm512_set1_epi64(static_cast<long long>(kHashGolden));
  __m512i z = _mm512_add_epi64(w, _mm512_mullo_epi64(idx1, golden));
  z = _mm512_mullo_epi64(
      _mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
      _mm512_set1_epi64(static_cast<long long>(kHashMul1)));
  z = _mm512_mullo_epi64(
      _mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
      _mm512_set1_epi64(static_cast<long long>(kHashMul2)));
  return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

uint64_t HashWordsAvx512(const uint64_t* a, size_t n) {
  size_t i = 0;
  __m512i acc = _mm512_setzero_si512();
  __m512i idx1 = _mm512_set_epi64(8, 7, 6, 5, 4, 3, 2, 1);
  const __m512i eight = _mm512_set1_epi64(8);
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_epi64(acc, MixWord8(_mm512_loadu_si512(a + i), idx1));
    idx1 = _mm512_add_epi64(idx1, eight);
  }
  // Reduce the lanes as uint64_t: GCC's _mm512_reduce_add_epi64 adds them
  // as signed long long, and a hash sum may overflow, which is undefined
  // there. The unsigned sum is the same value modulo 2^64.
  alignas(64) uint64_t lanes[8];
  _mm512_store_si512(lanes, acc);
  uint64_t sum = 0;
  for (uint64_t lane : lanes) sum += lane;
  for (; i < n; ++i) sum += MixWord(a[i], i);
  return FinalizeHash(sum, n);
}

void AppendSetBitsAvx512(const uint64_t* words, size_t n,
                         std::vector<uint32_t>* out) {
  size_t w = 0;
  for (; w + 8 <= n; w += 8) {
    __m512i v = _mm512_loadu_si512(words + w);
    __mmask8 nz = _mm512_test_epi64_mask(v, v);
    while (nz != 0) {
      unsigned lane = static_cast<unsigned>(__builtin_ctz(nz));
      nz = static_cast<__mmask8>(nz & (nz - 1));
      size_t k = w + lane;
      uint64_t bits = words[k];
      while (bits != 0) {
        unsigned tz = static_cast<unsigned>(__builtin_ctzll(bits));
        out->push_back(static_cast<uint32_t>(k * 64 + tz));
        bits &= bits - 1;
      }
    }
  }
  for (; w < n; ++w) {
    uint64_t bits = words[w];
    while (bits != 0) {
      unsigned tz = static_cast<unsigned>(__builtin_ctzll(bits));
      out->push_back(static_cast<uint32_t>(w * 64 + tz));
      bits &= bits - 1;
    }
  }
}

uint32_t CombineGroupAvx512(const GroupProbe& g,
                            const uint64_t* const* child_sets,
                            uint64_t* out) {
  if (g.rank == 0 || g.count < 16) {
    return CombineGroupScalar(g, child_sets, out);
  }
  uint32_t accepted = 0;
  uint32_t i = 0;
  const __m256i k63 = _mm256_set1_epi32(63);
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i zero = _mm512_setzero_si512();
  for (; i + 8 <= g.count; i += 8) {
    // m tracks the transitions still alive; dead lanes skip their gathers.
    __mmask8 m = 0xff;
    for (uint32_t c = 0; c < g.rank && m != 0; ++c) {
      const uint32_t* lanes = g.child + c * g.count + i;
      __m256i st =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lanes));
      __m256i widx = _mm256_srli_epi32(st, 6);
      // CompiledNfta sorts each group's probe lanes by child word, so a
      // whole block usually probes one word of child_sets[c]: broadcast
      // that word instead of issuing a (much slower) gather.
      __m256i wfirst = _mm256_set1_epi32(static_cast<int>(lanes[0] >> 6));
      __m512i word;
      if (_mm256_movemask_epi8(_mm256_cmpeq_epi32(widx, wfirst)) == -1) {
        word = _mm512_set1_epi64(
            static_cast<long long>(child_sets[c][lanes[0] >> 6]));
      } else {
        word = _mm512_mask_i32gather_epi64(zero, m, widx, child_sets[c], 8);
      }
      __m512i sh = _mm512_cvtepu32_epi64(_mm256_and_si256(st, k63));
      m = _mm512_mask_test_epi64_mask(m, _mm512_srlv_epi64(word, sh), one);
    }
    if (m != 0) {
      // Accepted-lane scatter. Lanes are secondarily sorted by from word,
      // so most blocks set bits in a single out word: build the bits with
      // a masked variable shift and one OR-reduce.
      __m256i fv = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(g.from + i));
      __m256i fw = _mm256_srli_epi32(fv, 6);
      __m256i fw0 = _mm256_set1_epi32(static_cast<int>(g.from[i] >> 6));
      if (_mm256_movemask_epi8(_mm256_cmpeq_epi32(fw, fw0)) == -1) {
        __m512i bits = _mm512_maskz_sllv_epi64(
            m, one, _mm512_cvtepu32_epi64(_mm256_and_si256(fv, k63)));
        out[g.from[i] >> 6] |= _mm512_reduce_or_epi64(bits);
        accepted += static_cast<uint32_t>(__builtin_popcount(m));
      } else {
        while (m != 0) {
          unsigned lane = static_cast<unsigned>(__builtin_ctz(m));
          m = static_cast<__mmask8>(m & (m - 1));
          uint32_t f = g.from[i + lane];
          out[f >> 6] |= uint64_t{1} << (f & 63);
          ++accepted;
        }
      }
    }
  }
  for (; i < g.count; ++i) {
    if (ProbeOneTransition(g, child_sets, i)) {
      uint32_t f = g.from[i];
      out[f >> 6] |= uint64_t{1} << (f & 63);
      ++accepted;
    }
  }
  return accepted;
}

}  // namespace

const Kernels* GetAvx512Kernels() {
  static const Kernels k = {
      Backend::kAvx512,      "avx512",
      &ClearWordsAvx512,     &AndWordsAvx512,
      &OrWordsAvx512,        &AccumulateMaskedAvx512,
      &EqualWordsAvx512,     &PopcountWordsScalar,
      &HashWordsAvx512,      &AppendSetBitsAvx512,
      &CombineGroupAvx512,
  };
  return &k;
}

}  // namespace detail
}  // namespace simd
}  // namespace uocqa

#endif  // UOCQA_SIMD_AVX512
