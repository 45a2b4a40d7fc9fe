#ifndef WAVEMR_CORE_SIMD_H_
#define WAVEMR_CORE_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "core/cpu_features.h"

namespace wavemr {

/// Runtime-dispatched SIMD kernel table for the sketch + wavelet hot loops.
///
/// One table exists per tier the binary can express (always kScalar; kAvx2 on
/// x86-64 via per-function target attributes, kNeon on AArch64). The active
/// table is chosen once at startup from the shared CPU probe
/// (core/cpu_features.h) and the WAVEMR_SIMD override, then read through
/// SimdK(). Every kernel is bit-identity-constrained: for any input, every
/// tier must produce exactly the same bytes as the scalar table, so swapping
/// tiers can never change a synopsis, an SSE, or a counter anywhere in the
/// engine. Integer kernels are exact by construction; the floating-point
/// kernels fix an evaluation order (documented per kernel) that every tier
/// implements, and simd.cc is compiled with -ffp-contract=off so no tier
/// silently fuses a multiply-add the others kept separate.
///
/// This is also the seam a GPU backend would plug into: docs/simd.md
/// describes the contract a kCuda/kOpenCL table would have to satisfy.
struct SimdKernels {
  /// Tier this table implements (for logs and tier-guarded gates).
  SimdTier tier;

  // --- Mersenne-61 integer hash lanes (GCS / sketch math) -----------------
  // All inputs must be < 2^61; outputs are the canonical residue mod
  // 2^61 - 1, bit-identical to core/hash.h MulMod61 / PolyHash::Hash.

  /// Degree-2 polynomial per lane: out[l] = (c1[l]*x[l] + c0[l]) mod p,
  /// Horner order matching PolyHash::Hash.
  void (*hash2_x4)(const uint64_t c0[4], const uint64_t c1[4],
                   const uint64_t x[4], uint64_t out[4]);

  /// Degree-4 polynomial per lane, same Horner order (and the same
  /// conditional subtraction after every step) as PolyHash::Hash.
  void (*hash4_x4)(const uint64_t c0[4], const uint64_t c1[4],
                   const uint64_t c2[4], const uint64_t c3[4],
                   const uint64_t x[4], uint64_t out[4]);

  /// GCS per-item hash for one repetition: for items[i], i in [0, n), with
  /// broadcast coefficients, out[i] = sub | (sign << 31) where
  ///   sub  = Hash2(ci, items[i] % p) & sub_mask     (sub_mask != 0), or
  ///          Hash2(ci, items[i] % p) % subbuckets   (sub_mask == 0)
  ///   sign = Hash4(cs, items[i] % p) & 1.
  /// This is the packed slot GroupCountSketch::UpdateBatch applies; callers
  /// must ensure subbuckets <= 2^30 so sub fits in 31 bits. The update loop
  /// pays one indirect call per (block, repetition) -- at 4-lane granularity
  /// the call overhead would eat the vector win. Vector tiers run whole lane
  /// groups and finish the tail scalar (exact integers, so the seam is
  /// invisible).
  void (*gcs_sub_sign_block)(const uint64_t ci[2], const uint64_t cs[4],
                             const uint64_t* items, size_t n,
                             uint64_t subbuckets, uint64_t sub_mask,
                             uint32_t* out);

  // --- double kernels (wavelet math) --------------------------------------

  /// One ForwardHaar level: for k in [0, half),
  ///   out_coeffs[k] = (in[2k+1] - in[2k]) * norm;
  ///   out_sums[k]   = in[2k] + in[2k+1];
  /// Elementwise sub/add/mul only, so every tier is IEEE-exact equal.
  /// out_coeffs/out_sums must not alias in.
  void (*haar_butterfly)(const double* in, size_t half, double norm,
                         double* out_coeffs, double* out_sums);

  /// Sum of squares with the fixed 4-accumulator order
  ///   (acc0 + acc2) + (acc1 + acc3), then the remainder tail in sequence,
  /// where acc_l sums v[l], v[l+4], v[l+8], ... Every tier implements this
  /// exact association (it is the natural AVX2 horizontal sum), so the
  /// scalar table uses it too.
  double (*sum_squares)(const double* v, size_t n);

  /// One SparseHaar coefficient level: for i in [0, n),
  ///   k        = keys[i] >> shift;
  ///   offset   = keys[i] & block_mask;
  ///   mag      = weights[i] / sqrt_block;
  ///   idx_out[i] = base + k;
  ///   val_out[i] = offset < half ? -mag : mag;
  /// Division and sign flip are IEEE-exact, so tiers agree bit for bit. The
  /// caller adds val_out[i] into coefficient idx_out[i] in input order.
  void (*sparse_level)(const uint64_t* keys, const double* weights, size_t n,
                       uint32_t shift, uint64_t block_mask, uint64_t half,
                       uint64_t base, double sqrt_block, uint64_t* idx_out,
                       double* val_out);
};

/// Table for a specific tier. Requesting a tier the binary was not compiled
/// for returns the scalar table.
const SimdKernels& SimdKernelsFor(SimdTier tier);

/// The active table: SimdKernelsFor(ActiveSimdTier()) unless a test override
/// is installed. One atomic load; callers in hot loops should still hoist
/// the reference out of their innermost loop.
const SimdKernels& SimdK();

/// Test hook: repoint SimdK() at the given tier's table (process-wide).
/// Lets bit-identity tests compare tiers in one process without re-exec.
void OverrideSimdTierForTest(SimdTier tier);

}  // namespace wavemr

#endif  // WAVEMR_CORE_SIMD_H_
