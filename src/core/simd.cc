#include "core/simd.h"

#include <atomic>

#include "core/hash.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define WAVEMR_SIMD_X86 1
#endif

#if defined(__aarch64__)
#include <arm_neon.h>
#define WAVEMR_SIMD_NEON 1
#endif

// This file is compiled with -ffp-contract=off (see src/core/CMakeLists.txt):
// the floating-point kernels promise a fixed evaluation order across tiers,
// and a silently fused multiply-add in the scalar fallback would break the
// bit-identity contract against explicit-intrinsic tiers.

namespace wavemr {
namespace {

constexpr uint64_t kPrime = PolyHash::kPrime;

// ===========================================================================
// Scalar tier. This is the bit-identity reference every other tier is tested
// against; it leans on the shared inline helpers in core/hash.h so it is the
// same arithmetic the rest of the engine uses.
// ===========================================================================

void Hash2X4Scalar(const uint64_t c0[4], const uint64_t c1[4],
                   const uint64_t x[4], uint64_t out[4]) {
  for (int l = 0; l < 4; ++l) {
    const uint64_t c[2] = {c0[l], c1[l]};
    out[l] = PolyHash2(c, x[l]);
  }
}

void Hash4X4Scalar(const uint64_t c0[4], const uint64_t c1[4],
                   const uint64_t c2[4], const uint64_t c3[4],
                   const uint64_t x[4], uint64_t out[4]) {
  for (int l = 0; l < 4; ++l) {
    const uint64_t c[4] = {c0[l], c1[l], c2[l], c3[l]};
    out[l] = PolyHash4(c, x[l]);
  }
}

void GcsSubSignBlockScalar(const uint64_t ci[2], const uint64_t cs[4],
                           const uint64_t* items, size_t n,
                           uint64_t subbuckets, uint64_t sub_mask,
                           uint32_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t ir = items[i] % kPrime;
    const uint64_t ih = PolyHash2(ci, ir);
    const uint64_t sub = sub_mask != 0 ? (ih & sub_mask) : (ih % subbuckets);
    const bool positive = (PolyHash4(cs, ir) & 1) != 0;
    out[i] = static_cast<uint32_t>(sub) | (positive ? 0x80000000u : 0u);
  }
}

void HaarButterflyScalar(const double* in, size_t half, double norm,
                         double* out_coeffs, double* out_sums) {
  const double* __restrict src = in;
  double* __restrict coeffs = out_coeffs;
  double* __restrict sums = out_sums;
  for (size_t k = 0; k < half; ++k) {
    const double left = src[2 * k];
    const double right = src[2 * k + 1];
    coeffs[k] = (right - left) * norm;
    sums[k] = left + right;
  }
}

double SumSquaresScalar(const double* v, size_t n) {
  double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 += v[i] * v[i];
    acc1 += v[i + 1] * v[i + 1];
    acc2 += v[i + 2] * v[i + 2];
    acc3 += v[i + 3] * v[i + 3];
  }
  double r = (acc0 + acc2) + (acc1 + acc3);
  for (; i < n; ++i) r += v[i] * v[i];
  return r;
}

void SparseLevelScalar(const uint64_t* keys, const double* weights, size_t n,
                       uint32_t shift, uint64_t block_mask, uint64_t half,
                       uint64_t base, double sqrt_block, uint64_t* idx_out,
                       double* val_out) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = keys[i] >> shift;
    const uint64_t offset = keys[i] & block_mask;
    const double mag = weights[i] / sqrt_block;
    idx_out[i] = base + k;
    val_out[i] = offset < half ? -mag : mag;
  }
}

constexpr SimdKernels kScalarTable = {
    SimdTier::kScalar,    Hash2X4Scalar,        Hash4X4Scalar,
    GcsSubSignBlockScalar, HaarButterflyScalar, SumSquaresScalar,
    SparseLevelScalar,
};

// ===========================================================================
// AVX2 tier (x86-64). Compiled with per-function target attributes so the
// binary keeps its plain x86-64 baseline; dispatch guarantees these only run
// on machines with AVX2.
//
// Mersenne-61 modular multiply without a 64x64->128 vector instruction:
// split a = a0 + a1*2^32 (a1 < 2^29 since a < 2^61) and likewise b, then
//   a*b = ll + mid*2^32 + hh*2^64,   ll = a0*b0 < 2^64,
//                                    mid = a0*b1 + a1*b0 < 2^62,
//                                    hh = a1*b1 < 2^58.
// Reduce with 2^61 = 1 (mod p), so 2^64 = 8 and, writing
// mid = m_lo + m_hi*2^29 (m_lo < 2^29), mid*2^32 = m_lo*2^32 + m_hi (mod p):
//   sum = (ll & p) + (ll >> 61) + (m_lo << 32) + (m_hi) + (hh << 3) < 3*2^61.
// A final fold (sum & p) + (sum >> 61) lands below 2p, and one conditional
// subtract yields the canonical residue -- exactly MulMod61's result. Every
// intermediate stays below 2^63, so the signed 64-bit compares AVX2 offers
// are safe for the unsigned values involved.
// ===========================================================================

#if WAVEMR_SIMD_X86

__attribute__((target("avx2"))) inline __m256i MulMod61Avx2(__m256i a,
                                                            __m256i b) {
  const __m256i prime = _mm256_set1_epi64x(static_cast<long long>(kPrime));
  const __m256i mask29 = _mm256_set1_epi64x((int64_t{1} << 29) - 1);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i ll = _mm256_mul_epu32(a, b);
  const __m256i mid =
      _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
  const __m256i hh = _mm256_mul_epu32(a_hi, b_hi);
  const __m256i sum = _mm256_add_epi64(
      _mm256_add_epi64(_mm256_and_si256(ll, prime), _mm256_srli_epi64(ll, 61)),
      _mm256_add_epi64(
          _mm256_add_epi64(
              _mm256_slli_epi64(_mm256_and_si256(mid, mask29), 32),
              _mm256_srli_epi64(mid, 29)),
          _mm256_slli_epi64(hh, 3)));
  const __m256i r = _mm256_add_epi64(_mm256_and_si256(sum, prime),
                                     _mm256_srli_epi64(sum, 61));
  const __m256i ge = _mm256_cmpgt_epi64(
      r, _mm256_set1_epi64x(static_cast<long long>(kPrime - 1)));
  return _mm256_sub_epi64(r, _mm256_and_si256(ge, prime));
}

/// Conditional subtract for values < 2p: the add step of a Horner round.
__attribute__((target("avx2"))) inline __m256i Mod61CondSubAvx2(__m256i acc) {
  const __m256i prime = _mm256_set1_epi64x(static_cast<long long>(kPrime));
  const __m256i ge = _mm256_cmpgt_epi64(
      acc, _mm256_set1_epi64x(static_cast<long long>(kPrime - 1)));
  return _mm256_sub_epi64(acc, _mm256_and_si256(ge, prime));
}

__attribute__((target("avx2"))) inline __m256i Hash2Avx2(__m256i c0,
                                                         __m256i c1,
                                                         __m256i x) {
  return Mod61CondSubAvx2(_mm256_add_epi64(MulMod61Avx2(c1, x), c0));
}

/// Lazily-reduced modular multiply for Horner chains: returns a value
/// congruent to a*b mod p that is < 2^61 + 4 (one fold, no conditional
/// subtract). Callers may add a canonical coefficient and feed the sum
/// (< 2^62 + 4) straight back in as `a`; `b` must be < 2^61 + 8 and b_hi must
/// be b >> 32 (passed in so a per-item chain hoists it). Every intermediate
/// stays below 2^63, the bound the limb decomposition needs. The chain's
/// final value is canonicalized once (fold + conditional subtract), so the
/// result is still bit-identical to the step-canonical scalar Horner.
__attribute__((target("avx2"))) inline __m256i MulMod61LazyAvx2(__m256i a,
                                                                __m256i b,
                                                                __m256i b_hi) {
  const __m256i prime = _mm256_set1_epi64x(static_cast<long long>(kPrime));
  const __m256i mask29 = _mm256_set1_epi64x((int64_t{1} << 29) - 1);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i ll = _mm256_mul_epu32(a, b);
  const __m256i mid =
      _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
  const __m256i hh = _mm256_mul_epu32(a_hi, b_hi);
  const __m256i sum = _mm256_add_epi64(
      _mm256_add_epi64(_mm256_and_si256(ll, prime), _mm256_srli_epi64(ll, 61)),
      _mm256_add_epi64(
          _mm256_add_epi64(
              _mm256_slli_epi64(_mm256_and_si256(mid, mask29), 32),
              _mm256_srli_epi64(mid, 29)),
          _mm256_slli_epi64(hh, 3)));
  return _mm256_add_epi64(_mm256_and_si256(sum, prime),
                          _mm256_srli_epi64(sum, 61));
}

/// Canonicalize a lazily-reduced value < 2^62 + 4: one fold lands below
/// 2^61 + 2 (< 2p), one conditional subtract lands on the canonical residue.
__attribute__((target("avx2"))) inline __m256i Mod61CanonAvx2(__m256i x) {
  const __m256i prime = _mm256_set1_epi64x(static_cast<long long>(kPrime));
  return Mod61CondSubAvx2(_mm256_add_epi64(_mm256_and_si256(x, prime),
                                           _mm256_srli_epi64(x, 61)));
}

__attribute__((target("avx2"))) inline __m256i Hash4Avx2(__m256i c0,
                                                         __m256i c1,
                                                         __m256i c2,
                                                         __m256i c3,
                                                         __m256i x) {
  __m256i acc = Mod61CondSubAvx2(_mm256_add_epi64(MulMod61Avx2(c3, x), c2));
  acc = Mod61CondSubAvx2(_mm256_add_epi64(MulMod61Avx2(acc, x), c1));
  return Mod61CondSubAvx2(_mm256_add_epi64(MulMod61Avx2(acc, x), c0));
}

__attribute__((target("avx2"))) void Hash2X4Avx2(const uint64_t c0[4],
                                                 const uint64_t c1[4],
                                                 const uint64_t x[4],
                                                 uint64_t out[4]) {
  const __m256i c0v =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c0));
  const __m256i c1v =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c1));
  const __m256i xv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      Hash2Avx2(c0v, c1v, xv));
}

__attribute__((target("avx2"))) void Hash4X4Avx2(const uint64_t c0[4],
                                                 const uint64_t c1[4],
                                                 const uint64_t c2[4],
                                                 const uint64_t c3[4],
                                                 const uint64_t x[4],
                                                 uint64_t out[4]) {
  const __m256i c0v =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c0));
  const __m256i c1v =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c1));
  const __m256i c2v =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c2));
  const __m256i c3v =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c3));
  const __m256i xv = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      Hash4Avx2(c0v, c1v, c2v, c3v, xv));
}

/// Both GCS hashes of one lane group, through the lazily-reduced Horner
/// chain: intermediates stay partially reduced (< 2^62 + 4) and only the
/// chain ends are canonicalized, which is where all the conditional
/// subtracts the step-canonical form pays for drop out. The item residue is
/// itself lazy (one fold of the raw item) -- the polynomial only depends on
/// x mod p, and MulMod61LazyAvx2 accepts b < 2^61 + 8.
__attribute__((target("avx2"))) inline void GcsHashGroupAvx2(
    __m256i xv, __m256i ci0, __m256i ci1, __m256i cs0, __m256i cs1,
    __m256i cs2, __m256i cs3, __m256i* h2, __m256i* h4) {
  const __m256i primev = _mm256_set1_epi64x(static_cast<long long>(kPrime));
  const __m256i xr = _mm256_add_epi64(_mm256_and_si256(xv, primev),
                                      _mm256_srli_epi64(xv, 61));
  const __m256i xh = _mm256_srli_epi64(xr, 32);
  *h2 = Mod61CanonAvx2(_mm256_add_epi64(MulMod61LazyAvx2(ci1, xr, xh), ci0));
  __m256i acc = _mm256_add_epi64(MulMod61LazyAvx2(cs3, xr, xh), cs2);
  acc = _mm256_add_epi64(MulMod61LazyAvx2(acc, xr, xh), cs1);
  acc = _mm256_add_epi64(MulMod61LazyAvx2(acc, xr, xh), cs0);
  *h4 = Mod61CanonAvx2(acc);
}

__attribute__((target("avx2"))) void GcsSubSignBlockAvx2(
    const uint64_t ci[2], const uint64_t cs[4], const uint64_t* items,
    size_t n, uint64_t subbuckets, uint64_t sub_mask, uint32_t* out) {
  // Broadcast coefficients hoisted out of the loop: this is the form the
  // update path calls once per (block, repetition), so the per-call setup
  // amortizes over up to a whole block of items.
  const __m256i ci0 = _mm256_set1_epi64x(static_cast<long long>(ci[0]));
  const __m256i ci1 = _mm256_set1_epi64x(static_cast<long long>(ci[1]));
  const __m256i cs0 = _mm256_set1_epi64x(static_cast<long long>(cs[0]));
  const __m256i cs1 = _mm256_set1_epi64x(static_cast<long long>(cs[1]));
  const __m256i cs2 = _mm256_set1_epi64x(static_cast<long long>(cs[2]));
  const __m256i cs3 = _mm256_set1_epi64x(static_cast<long long>(cs[3]));
  const __m256i maskv =
      _mm256_set1_epi64x(static_cast<long long>(sub_mask));
  const __m256i onev = _mm256_set1_epi64x(1);
  // Gathers the low 32 bits of each 64-bit lane into lanes 0-3.
  const __m256i narrow = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  size_t i = 0;
  if (sub_mask != 0) {
    // Pow2 sub-bucket path packs entirely in vector registers: sub fits in
    // 30 bits and the sign lands on bit 31, so (ih & mask) | ((sh & 1) << 31)
    // is the memo slot already; narrow each 64-bit lane to 32 bits and store
    // 4 slots at once. Two independent lane groups per iteration so the long
    // modular-multiply dependency chains overlap.
    for (; i + 8 <= n; i += 8) {
      __m256i h2a, h4a, h2b, h4b;
      GcsHashGroupAvx2(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(items + i)),
          ci0, ci1, cs0, cs1, cs2, cs3, &h2a, &h4a);
      GcsHashGroupAvx2(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(items + i + 4)),
          ci0, ci1, cs0, cs1, cs2, cs3, &h2b, &h4b);
      const __m256i pa = _mm256_or_si256(
          _mm256_and_si256(h2a, maskv),
          _mm256_slli_epi64(_mm256_and_si256(h4a, onev), 31));
      const __m256i pb = _mm256_or_si256(
          _mm256_and_si256(h2b, maskv),
          _mm256_slli_epi64(_mm256_and_si256(h4b, onev), 31));
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(out + i),
          _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(pa, narrow)));
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(out + i + 4),
          _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(pb, narrow)));
    }
    for (; i + 4 <= n; i += 4) {
      __m256i h2, h4;
      GcsHashGroupAvx2(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(items + i)),
          ci0, ci1, cs0, cs1, cs2, cs3, &h2, &h4);
      const __m256i p = _mm256_or_si256(
          _mm256_and_si256(h2, maskv),
          _mm256_slli_epi64(_mm256_and_si256(h4, onev), 31));
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(out + i),
          _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(p, narrow)));
    }
  } else {
    // Non-pow2 sub-bucket counts need a 64-bit modulo, which AVX2 has no
    // vector form for: hash in lanes, reduce and pack through the stack.
    for (; i + 4 <= n; i += 4) {
      __m256i h2, h4;
      GcsHashGroupAvx2(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(items + i)),
          ci0, ci1, cs0, cs1, cs2, cs3, &h2, &h4);
      alignas(32) uint64_t subs[4];
      alignas(32) uint64_t signs[4];
      _mm256_store_si256(reinterpret_cast<__m256i*>(subs), h2);
      _mm256_store_si256(reinterpret_cast<__m256i*>(signs), h4);
      for (int l = 0; l < 4; ++l) {
        out[i + l] = static_cast<uint32_t>(subs[l] % subbuckets) |
                     ((signs[l] & 1) != 0 ? 0x80000000u : 0u);
      }
    }
  }
  // Scalar tail: exact integers, so the lane/tail seam cannot show.
  for (; i < n; ++i) {
    const uint64_t ir = items[i] % kPrime;
    const uint64_t ih = PolyHash2(ci, ir);
    const uint64_t sub = sub_mask != 0 ? (ih & sub_mask) : (ih % subbuckets);
    const bool positive = (PolyHash4(cs, ir) & 1) != 0;
    out[i] = static_cast<uint32_t>(sub) | (positive ? 0x80000000u : 0u);
  }
}

__attribute__((target("avx2"))) void HaarButterflyAvx2(const double* in,
                                                       size_t half,
                                                       double norm,
                                                       double* out_coeffs,
                                                       double* out_sums) {
  const __m256d normv = _mm256_set1_pd(norm);
  size_t k = 0;
  for (; k + 4 <= half; k += 4) {
    // in[2k..2k+7] = e0..e7; unpack gives [e0,e4,e2,e6] / [e1,e5,e3,e7],
    // the cross-lane permute restores index order before the butterfly.
    const __m256d v0 = _mm256_loadu_pd(in + 2 * k);
    const __m256d v1 = _mm256_loadu_pd(in + 2 * k + 4);
    const __m256d lefts = _mm256_permute4x64_pd(_mm256_unpacklo_pd(v0, v1),
                                                _MM_SHUFFLE(3, 1, 2, 0));
    const __m256d rights = _mm256_permute4x64_pd(_mm256_unpackhi_pd(v0, v1),
                                                 _MM_SHUFFLE(3, 1, 2, 0));
    _mm256_storeu_pd(out_coeffs + k,
                     _mm256_mul_pd(_mm256_sub_pd(rights, lefts), normv));
    _mm256_storeu_pd(out_sums + k, _mm256_add_pd(lefts, rights));
  }
  for (; k < half; ++k) {
    const double left = in[2 * k];
    const double right = in[2 * k + 1];
    out_coeffs[k] = (right - left) * norm;
    out_sums[k] = left + right;
  }
}

__attribute__((target("avx2"))) double SumSquaresAvx2(const double* v,
                                                      size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(x, x));
  }
  // Horizontal sum (acc0 + acc2) + (acc1 + acc3) -- the order the scalar
  // table reproduces.
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  double r = _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
  for (; i < n; ++i) r += v[i] * v[i];
  return r;
}

__attribute__((target("avx2"))) void SparseLevelAvx2(
    const uint64_t* keys, const double* weights, size_t n, uint32_t shift,
    uint64_t block_mask, uint64_t half, uint64_t base, double sqrt_block,
    uint64_t* idx_out, double* val_out) {
  const __m128i shiftv = _mm_cvtsi64_si128(static_cast<long long>(shift));
  const __m256i maskv =
      _mm256_set1_epi64x(static_cast<long long>(block_mask));
  const __m256i halfv = _mm256_set1_epi64x(static_cast<long long>(half));
  const __m256i basev = _mm256_set1_epi64x(static_cast<long long>(base));
  const __m256d sqrtbv = _mm256_set1_pd(sqrt_block);
  const __m256d signbit = _mm256_set1_pd(-0.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i key =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const __m256i idx =
        _mm256_add_epi64(basev, _mm256_srl_epi64(key, shiftv));
    const __m256i offset = _mm256_and_si256(key, maskv);
    // offset, half < 2^61, so the signed compare is safe.
    const __m256i lt = _mm256_cmpgt_epi64(halfv, offset);
    const __m256d mag = _mm256_div_pd(_mm256_loadu_pd(weights + i), sqrtbv);
    const __m256d flip = _mm256_and_pd(_mm256_castsi256_pd(lt), signbit);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(idx_out + i), idx);
    _mm256_storeu_pd(val_out + i, _mm256_xor_pd(mag, flip));
  }
  for (; i < n; ++i) {
    const uint64_t k = keys[i] >> shift;
    const uint64_t offset = keys[i] & block_mask;
    const double mag = weights[i] / sqrt_block;
    idx_out[i] = base + k;
    val_out[i] = offset < half ? -mag : mag;
  }
}

const SimdKernels kAvx2Table = {
    SimdTier::kAvx2,      Hash2X4Avx2,       Hash4X4Avx2,
    GcsSubSignBlockAvx2,  HaarButterflyAvx2, SumSquaresAvx2,
    SparseLevelAvx2,
};

#endif  // WAVEMR_SIMD_X86

// ===========================================================================
// NEON tier (AArch64). Advanced SIMD is 128-bit, so every 4-lane kernel runs
// as two 2-lane halves; the modular-multiply limb decomposition and the
// floating-point evaluation orders are the same as the AVX2 tier (the
// sum-of-squares accumulators pair up so the final combine still evaluates
// (acc0 + acc2) + (acc1 + acc3)).
// ===========================================================================

#if WAVEMR_SIMD_NEON

inline uint64x2_t Mod61CondSubNeon(uint64x2_t acc) {
  const uint64x2_t prime = vdupq_n_u64(kPrime);
  const uint64x2_t ge = vcgeq_u64(acc, prime);
  return vsubq_u64(acc, vandq_u64(ge, prime));
}

inline uint64x2_t MulMod61Neon(uint64x2_t a, uint64x2_t b) {
  const uint64x2_t prime = vdupq_n_u64(kPrime);
  const uint32x2_t a_lo = vmovn_u64(a);
  const uint32x2_t b_lo = vmovn_u64(b);
  const uint32x2_t a_hi = vshrn_n_u64(a, 32);
  const uint32x2_t b_hi = vshrn_n_u64(b, 32);
  const uint64x2_t ll = vmull_u32(a_lo, b_lo);
  const uint64x2_t mid =
      vaddq_u64(vmull_u32(a_lo, b_hi), vmull_u32(a_hi, b_lo));
  const uint64x2_t hh = vmull_u32(a_hi, b_hi);
  const uint64x2_t sum = vaddq_u64(
      vaddq_u64(vandq_u64(ll, prime), vshrq_n_u64(ll, 61)),
      vaddq_u64(
          vaddq_u64(
              vshlq_n_u64(vandq_u64(mid, vdupq_n_u64((uint64_t{1} << 29) - 1)),
                          32),
              vshrq_n_u64(mid, 29)),
          vshlq_n_u64(hh, 3)));
  const uint64x2_t r =
      vaddq_u64(vandq_u64(sum, prime), vshrq_n_u64(sum, 61));
  return Mod61CondSubNeon(r);
}

inline uint64x2_t Mod61FoldNeon(uint64x2_t x) {
  const uint64x2_t prime = vdupq_n_u64(kPrime);
  return Mod61CondSubNeon(
      vaddq_u64(vandq_u64(x, prime), vshrq_n_u64(x, 61)));
}

inline uint64x2_t Hash2Neon(uint64x2_t c0, uint64x2_t c1, uint64x2_t x) {
  return Mod61CondSubNeon(vaddq_u64(MulMod61Neon(c1, x), c0));
}

inline uint64x2_t Hash4Neon(uint64x2_t c0, uint64x2_t c1, uint64x2_t c2,
                            uint64x2_t c3, uint64x2_t x) {
  uint64x2_t acc = Mod61CondSubNeon(vaddq_u64(MulMod61Neon(c3, x), c2));
  acc = Mod61CondSubNeon(vaddq_u64(MulMod61Neon(acc, x), c1));
  return Mod61CondSubNeon(vaddq_u64(MulMod61Neon(acc, x), c0));
}

void Hash2X4Neon(const uint64_t c0[4], const uint64_t c1[4],
                 const uint64_t x[4], uint64_t out[4]) {
  vst1q_u64(out, Hash2Neon(vld1q_u64(c0), vld1q_u64(c1), vld1q_u64(x)));
  vst1q_u64(out + 2, Hash2Neon(vld1q_u64(c0 + 2), vld1q_u64(c1 + 2),
                               vld1q_u64(x + 2)));
}

void Hash4X4Neon(const uint64_t c0[4], const uint64_t c1[4],
                 const uint64_t c2[4], const uint64_t c3[4],
                 const uint64_t x[4], uint64_t out[4]) {
  vst1q_u64(out, Hash4Neon(vld1q_u64(c0), vld1q_u64(c1), vld1q_u64(c2),
                           vld1q_u64(c3), vld1q_u64(x)));
  vst1q_u64(out + 2,
            Hash4Neon(vld1q_u64(c0 + 2), vld1q_u64(c1 + 2), vld1q_u64(c2 + 2),
                      vld1q_u64(c3 + 2), vld1q_u64(x + 2)));
}

void GcsSubSignBlockNeon(const uint64_t ci[2], const uint64_t cs[4],
                         const uint64_t* items, size_t n, uint64_t subbuckets,
                         uint64_t sub_mask, uint32_t* out) {
  const uint64x2_t ci0 = vdupq_n_u64(ci[0]);
  const uint64x2_t ci1 = vdupq_n_u64(ci[1]);
  const uint64x2_t cs0 = vdupq_n_u64(cs[0]);
  const uint64x2_t cs1 = vdupq_n_u64(cs[1]);
  const uint64x2_t cs2 = vdupq_n_u64(cs[2]);
  const uint64x2_t cs3 = vdupq_n_u64(cs[3]);
  const uint64x2_t maskv = vdupq_n_u64(sub_mask);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t ir = Mod61FoldNeon(vld1q_u64(items + i));
    uint64x2_t ih = Hash2Neon(ci0, ci1, ir);
    const uint64x2_t sh = Hash4Neon(cs0, cs1, cs2, cs3, ir);
    if (sub_mask != 0) ih = vandq_u64(ih, maskv);
    uint64_t subs[2], signs[2];
    vst1q_u64(subs, ih);
    vst1q_u64(signs, sh);
    for (int l = 0; l < 2; ++l) {
      const uint64_t sub = sub_mask != 0 ? subs[l] : subs[l] % subbuckets;
      out[i + l] = static_cast<uint32_t>(sub) |
                   ((signs[l] & 1) != 0 ? 0x80000000u : 0u);
    }
  }
  for (; i < n; ++i) {
    const uint64_t ir = items[i] % kPrime;
    const uint64_t ih = PolyHash2(ci, ir);
    const uint64_t sub = sub_mask != 0 ? (ih & sub_mask) : (ih % subbuckets);
    const bool positive = (PolyHash4(cs, ir) & 1) != 0;
    out[i] = static_cast<uint32_t>(sub) | (positive ? 0x80000000u : 0u);
  }
}

void HaarButterflyNeon(const double* in, size_t half, double norm,
                       double* out_coeffs, double* out_sums) {
  const float64x2_t normv = vdupq_n_f64(norm);
  size_t k = 0;
  for (; k + 2 <= half; k += 2) {
    const float64x2x2_t de = vld2q_f64(in + 2 * k);  // val[0]=lefts val[1]=rights
    vst1q_f64(out_coeffs + k,
              vmulq_f64(vsubq_f64(de.val[1], de.val[0]), normv));
    vst1q_f64(out_sums + k, vaddq_f64(de.val[0], de.val[1]));
  }
  for (; k < half; ++k) {
    const double left = in[2 * k];
    const double right = in[2 * k + 1];
    out_coeffs[k] = (right - left) * norm;
    out_sums[k] = left + right;
  }
}

double SumSquaresNeon(const double* v, size_t n) {
  float64x2_t acc_a = vdupq_n_f64(0.0);  // lanes (acc0, acc1)
  float64x2_t acc_b = vdupq_n_f64(0.0);  // lanes (acc2, acc3)
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float64x2_t xa = vld1q_f64(v + i);
    const float64x2_t xb = vld1q_f64(v + i + 2);
    acc_a = vaddq_f64(acc_a, vmulq_f64(xa, xa));
    acc_b = vaddq_f64(acc_b, vmulq_f64(xb, xb));
  }
  const float64x2_t pair = vaddq_f64(acc_a, acc_b);  // (a0+a2, a1+a3)
  double r = vgetq_lane_f64(pair, 0) + vgetq_lane_f64(pair, 1);
  for (; i < n; ++i) r += v[i] * v[i];
  return r;
}

void SparseLevelNeon(const uint64_t* keys, const double* weights, size_t n,
                     uint32_t shift, uint64_t block_mask, uint64_t half,
                     uint64_t base, double sqrt_block, uint64_t* idx_out,
                     double* val_out) {
  const int64x2_t negshift = vdupq_n_s64(-static_cast<int64_t>(shift));
  const uint64x2_t maskv = vdupq_n_u64(block_mask);
  const uint64x2_t halfv = vdupq_n_u64(half);
  const uint64x2_t basev = vdupq_n_u64(base);
  const uint64x2_t signbit = vdupq_n_u64(uint64_t{1} << 63);
  const float64x2_t sqrtbv = vdupq_n_f64(sqrt_block);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t key = vld1q_u64(keys + i);
    const uint64x2_t idx = vaddq_u64(basev, vshlq_u64(key, negshift));
    const uint64x2_t lt = vcltq_u64(vandq_u64(key, maskv), halfv);
    const float64x2_t mag = vdivq_f64(vld1q_f64(weights + i), sqrtbv);
    const float64x2_t val = vreinterpretq_f64_u64(
        veorq_u64(vreinterpretq_u64_f64(mag), vandq_u64(lt, signbit)));
    vst1q_u64(idx_out + i, idx);
    vst1q_f64(val_out + i, val);
  }
  for (; i < n; ++i) {
    const uint64_t k = keys[i] >> shift;
    const uint64_t offset = keys[i] & block_mask;
    const double mag = weights[i] / sqrt_block;
    idx_out[i] = base + k;
    val_out[i] = offset < half ? -mag : mag;
  }
}

const SimdKernels kNeonTable = {
    SimdTier::kNeon,      Hash2X4Neon,       Hash4X4Neon,
    GcsSubSignBlockNeon,  HaarButterflyNeon, SumSquaresNeon,
    SparseLevelNeon,
};

#endif  // WAVEMR_SIMD_NEON

std::atomic<const SimdKernels*> g_active{nullptr};

}  // namespace

const SimdKernels& SimdKernelsFor(SimdTier tier) {
  switch (tier) {
    case SimdTier::kAvx2:
#if WAVEMR_SIMD_X86
      return kAvx2Table;
#else
      break;
#endif
    case SimdTier::kNeon:
#if WAVEMR_SIMD_NEON
      return kNeonTable;
#else
      break;
#endif
    case SimdTier::kScalar:
      break;
  }
  return kScalarTable;
}

const SimdKernels& SimdK() {
  const SimdKernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = &SimdKernelsFor(ActiveSimdTier());
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

void OverrideSimdTierForTest(SimdTier tier) {
  g_active.store(&SimdKernelsFor(tier), std::memory_order_release);
}

}  // namespace wavemr
