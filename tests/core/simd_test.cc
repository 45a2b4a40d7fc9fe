#include "core/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/cpu_features.h"
#include "core/hash.h"
#include "core/rng.h"

namespace wavemr {
namespace {

constexpr uint64_t kPrime = PolyHash::kPrime;

// Every tier this binary can actually run on this machine. The scalar table
// is always first so the others are compared against it.
std::vector<SimdTier> RunnableTiers() {
  std::vector<SimdTier> tiers = {SimdTier::kScalar};
  if (BestSimdTier() != SimdTier::kScalar) tiers.push_back(BestSimdTier());
  return tiers;
}

// Interesting 61-bit operands: boundaries of the limb decomposition plus
// random values.
std::vector<uint64_t> HashOperands() {
  std::vector<uint64_t> ops = {0,
                               1,
                               2,
                               (uint64_t{1} << 29) - 1,
                               uint64_t{1} << 29,
                               (uint64_t{1} << 32) - 1,
                               uint64_t{1} << 32,
                               (uint64_t{1} << 32) + 1,
                               kPrime / 2,
                               kPrime - 2,
                               kPrime - 1};
  Rng rng(2024);
  for (int i = 0; i < 512; ++i) ops.push_back(rng.NextU64() % kPrime);
  return ops;
}

TEST(CpuFeaturesTest, ResolveSimdTierHonorsRequestAndHardware) {
  CpuFeatures none;
  CpuFeatures x86;
  x86.sse42 = x86.avx2 = true;
  CpuFeatures arm;
  arm.neon = arm.arm_crc32 = true;

  EXPECT_EQ(ResolveSimdTier(nullptr, none), SimdTier::kScalar);
  EXPECT_EQ(ResolveSimdTier(nullptr, x86), SimdTier::kAvx2);
  EXPECT_EQ(ResolveSimdTier(nullptr, arm), SimdTier::kNeon);
  EXPECT_EQ(ResolveSimdTier("auto", x86), SimdTier::kAvx2);
  EXPECT_EQ(ResolveSimdTier("", x86), SimdTier::kAvx2);

  EXPECT_EQ(ResolveSimdTier("scalar", x86), SimdTier::kScalar);
  EXPECT_EQ(ResolveSimdTier("scalar", arm), SimdTier::kScalar);
  EXPECT_EQ(ResolveSimdTier("avx2", x86), SimdTier::kAvx2);
  EXPECT_EQ(ResolveSimdTier("avx2", none), SimdTier::kScalar);
  EXPECT_EQ(ResolveSimdTier("avx2", arm), SimdTier::kScalar);
  EXPECT_EQ(ResolveSimdTier("neon", arm), SimdTier::kNeon);
  EXPECT_EQ(ResolveSimdTier("neon", x86), SimdTier::kScalar);

  // Unknown strings behave like auto rather than crashing or going scalar.
  EXPECT_EQ(ResolveSimdTier("avx512", x86), SimdTier::kAvx2);
  EXPECT_EQ(ResolveSimdTier("garbage", none), SimdTier::kScalar);
}

TEST(CpuFeaturesTest, TierNamesAreStable) {
  EXPECT_STREQ(SimdTierName(SimdTier::kScalar), "scalar");
  EXPECT_STREQ(SimdTierName(SimdTier::kAvx2), "avx2");
  EXPECT_STREQ(SimdTierName(SimdTier::kNeon), "neon");
}

TEST(SimdDispatchTest, ScalarTableIsAlwaysAvailable) {
  const SimdKernels& k = SimdKernelsFor(SimdTier::kScalar);
  EXPECT_EQ(k.tier, SimdTier::kScalar);
}

TEST(SimdDispatchTest, BestTierTableMatchesRequestedTier) {
  const SimdKernels& k = SimdKernelsFor(BestSimdTier());
  EXPECT_EQ(k.tier, BestSimdTier());
}

TEST(SimdDispatchTest, OverrideRoundTrips) {
  for (SimdTier tier : RunnableTiers()) {
    OverrideSimdTierForTest(tier);
    EXPECT_EQ(SimdK().tier, tier);
  }
  OverrideSimdTierForTest(ActiveSimdTier());
  EXPECT_EQ(SimdK().tier, ActiveSimdTier());
}

TEST(SimdKernelTest, Hash2AndHash4MatchPolyHashBitForBit) {
  Rng rng(77);
  for (SimdTier tier : RunnableTiers()) {
    const SimdKernels& k = SimdKernelsFor(tier);
    for (int trial = 0; trial < 64; ++trial) {
      // Four independent polynomials (one per lane), as EstimateItem uses.
      uint64_t c0[4], c1[4], c2[4], c3[4], x[4];
      PolyHash deg2[4] = {PolyHash(rng.NextU64(), 2), PolyHash(rng.NextU64(), 2),
                          PolyHash(rng.NextU64(), 2), PolyHash(rng.NextU64(), 2)};
      PolyHash deg4[4] = {PolyHash(rng.NextU64(), 4), PolyHash(rng.NextU64(), 4),
                          PolyHash(rng.NextU64(), 4), PolyHash(rng.NextU64(), 4)};
      uint64_t d0[4], d1[4], d2[4], d3[4];
      for (int l = 0; l < 4; ++l) {
        c0[l] = deg2[l].coeffs()[0];
        c1[l] = deg2[l].coeffs()[1];
        d0[l] = deg4[l].coeffs()[0];
        d1[l] = deg4[l].coeffs()[1];
        d2[l] = deg4[l].coeffs()[2];
        d3[l] = deg4[l].coeffs()[3];
        x[l] = rng.NextU64() % kPrime;
      }
      (void)c2;
      (void)c3;
      uint64_t out2[4], out4[4];
      k.hash2_x4(c0, c1, x, out2);
      k.hash4_x4(d0, d1, d2, d3, x, out4);
      for (int l = 0; l < 4; ++l) {
        ASSERT_EQ(out2[l], deg2[l].Hash(x[l])) << SimdTierName(tier);
        ASSERT_EQ(out4[l], deg4[l].Hash(x[l])) << SimdTierName(tier);
      }
    }
    // With c0 = 0 the degree-2 hash is a bare modular multiply, so the
    // limb-decomposition boundary operands hit the vector MulMod61 directly.
    const std::vector<uint64_t> ops = HashOperands();
    const uint64_t zero[4] = {0, 0, 0, 0};
    for (size_t i = 0; i + 8 <= ops.size(); i += 8) {
      uint64_t out[4];
      k.hash2_x4(zero, &ops[i], &ops[i + 4], out);
      for (int l = 0; l < 4; ++l) {
        ASSERT_EQ(out[l], MulMod61(ops[i + l], ops[i + 4 + l]))
            << "tier=" << SimdTierName(tier) << " a=" << ops[i + l]
            << " b=" << ops[i + 4 + l];
      }
    }
  }
}

TEST(SimdKernelTest, GcsSubSignMatchesScalarForPow2AndNonPow2) {
  Rng rng(123);
  for (SimdTier tier : RunnableTiers()) {
    const SimdKernels& k = SimdKernelsFor(tier);
    const SimdKernels& ref = SimdKernelsFor(SimdTier::kScalar);
    for (uint64_t subbuckets : {uint64_t{1}, uint64_t{8}, uint64_t{6},
                                uint64_t{1024}, uint64_t{1000}}) {
      const bool pow2 = (subbuckets & (subbuckets - 1)) == 0;
      const uint64_t sub_mask = pow2 ? subbuckets - 1 : 0;
      PolyHash hi(rng.NextU64(), 2);
      PolyHash hs(rng.NextU64(), 4);
      uint64_t ci[2] = {hi.coeffs()[0], hi.coeffs()[1]};
      uint64_t cs[4] = {hs.coeffs()[0], hs.coeffs()[1], hs.coeffs()[2],
                        hs.coeffs()[3]};
      // All tail lengths around the vector widths, plus a block-sized run.
      for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4},
                       size_t{5}, size_t{7}, size_t{8}, size_t{801}}) {
        // Full-range items, small ones and residues just past the prime:
        // the kernel owns the % kPrime reduction.
        std::vector<uint64_t> items(n);
        for (size_t i = 0; i < n; ++i) {
          items[i] = i % 4 == 1   ? rng.NextU64() % 4096
                     : i % 4 == 2 ? kPrime + i
                                  : rng.NextU64();
        }
        std::vector<uint32_t> got(n + 1, 0xDEADBEEFu);
        std::vector<uint32_t> want(n + 1, 0xDEADBEEFu);
        k.gcs_sub_sign_block(ci, cs, items.data(), n, subbuckets, sub_mask,
                             got.data());
        ref.gcs_sub_sign_block(ci, cs, items.data(), n, subbuckets, sub_mask,
                               want.data());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[i], want[i]) << SimdTierName(tier)
                                     << " subbuckets=" << subbuckets
                                     << " n=" << n << " i=" << i;
          // Cross-check the packed fields against PolyHash directly.
          const uint64_t ir = items[i] % kPrime;
          ASSERT_EQ(got[i] & 0x7FFFFFFFu, hi.Hash(ir) % subbuckets);
          ASSERT_EQ((got[i] >> 31) != 0, (hs.Hash(ir) & 1) != 0);
        }
        // The kernel must not write past n.
        ASSERT_EQ(got[n], 0xDEADBEEFu);
        ASSERT_EQ(want[n], 0xDEADBEEFu);
      }
    }
  }
}

TEST(SimdKernelTest, HaarButterflyIsBitIdenticalAcrossTiers) {
  Rng rng(5);
  for (size_t half : {size_t{1}, size_t{2}, size_t{3}, size_t{4}, size_t{7},
                      size_t{64}, size_t{257}}) {
    std::vector<double> in(2 * half);
    for (double& v : in) v = rng.NextDouble() * 100.0 - 50.0;
    const double norm = 1.0 / std::sqrt(static_cast<double>(2 * half));
    std::vector<double> ref_coeffs(half), ref_sums(half);
    SimdKernelsFor(SimdTier::kScalar)
        .haar_butterfly(in.data(), half, norm, ref_coeffs.data(),
                        ref_sums.data());
    // The scalar kernel must match the definition exactly.
    for (size_t kk = 0; kk < half; ++kk) {
      ASSERT_EQ(ref_coeffs[kk], (in[2 * kk + 1] - in[2 * kk]) * norm);
      ASSERT_EQ(ref_sums[kk], in[2 * kk] + in[2 * kk + 1]);
    }
    for (SimdTier tier : RunnableTiers()) {
      std::vector<double> coeffs(half), sums(half);
      SimdKernelsFor(tier).haar_butterfly(in.data(), half, norm, coeffs.data(),
                                          sums.data());
      for (size_t kk = 0; kk < half; ++kk) {
        ASSERT_EQ(coeffs[kk], ref_coeffs[kk])
            << SimdTierName(tier) << " half=" << half << " k=" << kk;
        ASSERT_EQ(sums[kk], ref_sums[kk]);
      }
    }
  }
}

TEST(SimdKernelTest, SumSquaresIsBitIdenticalAcrossTiers) {
  Rng rng(9);
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5},
                   size_t{8}, size_t{31}, size_t{1024}, size_t{1027}}) {
    std::vector<double> v(n);
    for (double& x : v) x = rng.NextDouble() * 8.0 - 4.0;
    const double ref =
        SimdKernelsFor(SimdTier::kScalar).sum_squares(v.data(), n);
    for (SimdTier tier : RunnableTiers()) {
      const double got = SimdKernelsFor(tier).sum_squares(v.data(), n);
      ASSERT_EQ(got, ref) << SimdTierName(tier) << " n=" << n;
    }
    // Sanity: close to the naive sum even if associated differently.
    double naive = 0.0;
    for (double x : v) naive += x * x;
    EXPECT_NEAR(ref, naive, 1e-9 * (1.0 + naive));
  }
}

TEST(SimdKernelTest, SparseLevelIsBitIdenticalAcrossTiers) {
  Rng rng(31337);
  const uint64_t u = uint64_t{1} << 20;
  const uint32_t levels = 20;
  for (uint32_t j : {uint32_t{0}, uint32_t{3}, uint32_t{19}}) {
    const uint64_t block = u >> j;
    const uint64_t half = block / 2;
    const uint64_t base = uint64_t{1} << j;
    const uint32_t shift = levels - j;
    const double sqrt_block = std::sqrt(static_cast<double>(block));
    for (size_t n : {size_t{1}, size_t{2}, size_t{5}, size_t{801}}) {
      std::vector<uint64_t> keys(n);
      std::vector<double> weights(n);
      for (size_t i = 0; i < n; ++i) {
        keys[i] = rng.NextU64() % u;
        weights[i] = rng.NextDouble() * 10.0 - 5.0;
      }
      std::vector<uint64_t> ref_idx(n), idx(n);
      std::vector<double> ref_val(n), val(n);
      SimdKernelsFor(SimdTier::kScalar)
          .sparse_level(keys.data(), weights.data(), n, shift, block - 1, half,
                        base, sqrt_block, ref_idx.data(), ref_val.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(ref_idx[i], base + keys[i] / block);
        const double mag = weights[i] / sqrt_block;
        ASSERT_EQ(ref_val[i], (keys[i] % block) < half ? -mag : mag);
      }
      for (SimdTier tier : RunnableTiers()) {
        SimdKernelsFor(tier).sparse_level(keys.data(), weights.data(), n,
                                          shift, block - 1, half, base,
                                          sqrt_block, idx.data(), val.data());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(idx[i], ref_idx[i]) << SimdTierName(tier) << " j=" << j;
          ASSERT_EQ(val[i], ref_val[i]) << SimdTierName(tier) << " j=" << j;
        }
      }
    }
  }
}

}  // namespace
}  // namespace wavemr
