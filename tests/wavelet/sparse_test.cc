#include "wavelet/sparse.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "core/bitops.h"
#include "core/rng.h"
#include "core/simd.h"
#include "sparse_reference.h"
#include "wavelet/haar.h"

namespace wavemr {
namespace {

struct SparseCase {
  uint64_t u;
  uint64_t nonzeros;
  uint64_t seed;
};

class SparseVsDenseTest : public ::testing::TestWithParam<SparseCase> {};

TEST_P(SparseVsDenseTest, SparseEqualsDense) {
  const SparseCase& c = GetParam();
  Rng rng(c.seed);
  std::unordered_map<uint64_t, double> entries;
  for (uint64_t i = 0; i < c.nonzeros; ++i) {
    entries[rng.NextBounded(c.u)] += 1.0 + rng.NextBounded(50);
  }
  SparseVector v(entries.begin(), entries.end());

  std::vector<double> dense(c.u, 0.0);
  for (const auto& [key, val] : entries) dense[key] = val;
  std::vector<double> expect = ForwardHaar(dense);

  std::vector<WCoeff> got = SparseHaar(v, c.u);
  std::unordered_map<uint64_t, double> got_map;
  for (const WCoeff& w : got) got_map[w.index] = w.value;

  for (uint64_t i = 0; i < c.u; ++i) {
    double g = got_map.count(i) ? got_map[i] : 0.0;
    ASSERT_NEAR(g, expect[i], 1e-8) << "coefficient " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SparseVsDenseTest,
    ::testing::Values(SparseCase{4, 1, 1}, SparseCase{8, 3, 2}, SparseCase{64, 10, 3},
                      SparseCase{256, 50, 4}, SparseCase{1024, 200, 5},
                      SparseCase{4096, 1, 6}, SparseCase{4096, 4096, 7}));

TEST(SparseHaarTest, OutputSortedAndBounded) {
  SparseVector v = {{5, 2.0}, {100, 1.0}, {900, 4.0}};
  std::vector<WCoeff> coeffs = SparseHaar(v, 1024);
  // At most |v| * (log2 u + 1) nonzero coefficients.
  EXPECT_LE(coeffs.size(), v.size() * (Log2Floor(1024) + 1));
  for (size_t i = 1; i < coeffs.size(); ++i) {
    EXPECT_LT(coeffs[i - 1].index, coeffs[i].index);
  }
}

TEST(SparseHaarTest, PointUpdateFanout) {
  EXPECT_EQ(PointUpdateFanout(1), 1u);
  EXPECT_EQ(PointUpdateFanout(2), 2u);
  EXPECT_EQ(PointUpdateFanout(1024), 11u);
}

TEST(SparseHaarTest, AccumulateIsAdditive) {
  const uint64_t u = 128;
  std::unordered_map<uint64_t, double> acc;
  reference::AccumulatePointUpdate(10, 3.0, u, &acc);
  reference::AccumulatePointUpdate(10, -3.0, u, &acc);
  for (const auto& [idx, val] : acc) EXPECT_NEAR(val, 0.0, 1e-12);
}

TEST(SparseHaarTest, EmptyInputYieldsNothing) {
  EXPECT_TRUE(SparseHaar({}, 64).empty());
}

SparseVector RandomVector(uint64_t seed, uint64_t u, int n) {
  Rng rng(seed);
  SparseVector v;
  for (int i = 0; i < n; ++i) {
    v.emplace_back(rng.NextBounded(u), (rng.NextDouble() - 0.5) * 100.0);
  }
  return v;
}

// Exact comparison against the key-major reference: every nonzero reference
// coefficient is present with the same bits, every coefficient that
// cancelled to zero is absent, nothing else is emitted, and the output
// ascends strictly by index.
void ExpectMatchesReferenceBitwise(const SparseVector& v, uint64_t u,
                                   const std::vector<WCoeff>& got) {
  std::unordered_map<uint64_t, double> want = reference::SparseHaarMap(v, u);
  size_t want_nonzero = 0;
  for (const auto& [idx, val] : want) want_nonzero += val != 0.0;
  ASSERT_EQ(got.size(), want_nonzero);
  for (size_t i = 0; i < got.size(); ++i) {
    if (i > 0) {
      ASSERT_LT(got[i - 1].index, got[i].index) << "position " << i;
    }
    EXPECT_NE(got[i].value, 0.0) << "index " << got[i].index;
    auto it = want.find(got[i].index);
    ASSERT_NE(it, want.end()) << "index " << got[i].index;
    ASSERT_EQ(got[i].value, it->second) << "index " << got[i].index;  // exact
  }
}

// The forced-scalar and the best SIMD tier must both equal the reference.
void ExpectAllTiersMatchReference(const SparseVector& v, uint64_t u) {
  for (SimdTier tier : {SimdTier::kScalar, BestSimdTier()}) {
    SCOPED_TRACE(SimdTierName(tier));
    OverrideSimdTierForTest(tier);
    std::vector<WCoeff> got = SparseHaar(v, u);
    OverrideSimdTierForTest(ActiveSimdTier());
    ExpectMatchesReferenceBitwise(v, u, got);
  }
}

TEST(SparseHaarTest, LevelMajorMatchesScalarPathBitwise) {
  // SparseHaar's level-major restructuring (hoisted sqrt, shift/mask block
  // math, index-addressed accumulation) must add every coefficient in the
  // same order as the key-major reference, so the two agree exactly -- not
  // just to within a tolerance. u = 2^12 with 500 entries is the all-dense
  // regime: every level fits the flat accumulator.
  for (uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(seed);
    ExpectAllTiersMatchReference(RandomVector(seed, 4096, 500), 4096);
  }
}

TEST(SparseHaarTest, SimdTiersMatchScalarPathBitwise) {
  // The level pass runs through the dispatched SIMD kernel; forced-scalar
  // and best-tier transforms must both equal the key-major reference, and
  // hence each other, bit for bit.
  ExpectAllTiersMatchReference(RandomVector(77, 8192, 700), 8192);
}

TEST(SparseHaarTest, HybridRegimeMatchesReferenceBitwise) {
  // u = 2^20 with few entries: the coarse levels are index-addressed, the
  // wide ones hash level by level.
  const uint64_t u = uint64_t{1} << 20;
  for (uint64_t seed : {21u, 22u}) {
    SCOPED_TRACE(seed);
    ExpectAllTiersMatchReference(RandomVector(seed, u, 100), u);
  }
  ExpectAllTiersMatchReference(RandomVector(23, u, 2000), u);
  // Clustered keys: the hashed levels see many keys per coefficient.
  SparseVector clustered;
  Rng rng(24);
  for (int i = 0; i < 300; ++i) {
    clustered.emplace_back(rng.NextBounded(512) * 2048 + rng.NextBounded(8),
                           1.0 + static_cast<double>(rng.NextBounded(9)));
  }
  ExpectAllTiersMatchReference(clustered, u);
}

TEST(SparseHaarTest, EdgeCasesMatchReferenceBitwise) {
  const uint64_t big = uint64_t{1} << 20;
  ExpectAllTiersMatchReference({}, 64);
  ExpectAllTiersMatchReference({}, big);
  ExpectAllTiersMatchReference({{0, 3.0}, {1, -1.25}}, 2);
  ExpectAllTiersMatchReference({{1, 0.5}}, 2);
  // Every key equal: the same path accumulates in input order.
  ExpectAllTiersMatchReference({{777, 1.5}, {777, -0.25}, {777, 3.0}, {777, 0.125}},
                               1024);
  ExpectAllTiersMatchReference({{0, 2.5}, {4095, -7.0}}, 4096);
  ExpectAllTiersMatchReference({{0, 2.5}, {big - 1, -7.0}}, big);
}

TEST(SparseHaarTest, CancelledCoefficientsAreAbsent) {
  // Equal weights on the two children of every finest-level pair cancel
  // those detail coefficients exactly.
  SparseVector pairs;
  for (uint64_t i = 0; i < 32; ++i) {
    const double w = 1.0 + static_cast<double>(i % 5);
    pairs.emplace_back(4 * i, w);
    pairs.emplace_back(4 * i + 1, w);
  }
  ExpectAllTiersMatchReference(pairs, 256);
  for (const WCoeff& c : SparseHaar(pairs, 256)) {
    EXPECT_LT(c.index, 128u) << "finest-level coefficient did not cancel";
  }

  // Opposite weights cancel the average (index 0); in a huge domain the
  // same happens on the hashed levels for a key and its negation.
  std::vector<WCoeff> avg = SparseHaar({{3, 1.5}, {200, -1.5}}, 256);
  ExpectMatchesReferenceBitwise({{3, 1.5}, {200, -1.5}}, 256, avg);
  ASSERT_FALSE(avg.empty());
  EXPECT_NE(avg.front().index, 0u);

  const uint64_t big = uint64_t{1} << 20;
  SparseVector hashed_cancel = {{big - 2, 4.0}, {big - 1, 4.0}, {5, 1.0}};
  ExpectAllTiersMatchReference(hashed_cancel, big);
  for (const WCoeff& c : SparseHaar(hashed_cancel, big)) {
    EXPECT_NE(c.index, (big >> 1) + ((big - 2) >> 1)) << "hashed level kept a zero";
  }

  // A point update and its negation cancel everything.
  EXPECT_TRUE(SparseHaar({{10, 3.0}, {10, -3.0}}, 128).empty());
}

TEST(SparseHaarTest, NegativeWeightsSupported) {
  // Sampling estimators can produce non-integral, negative-ish corrections;
  // the transform must be linear over arbitrary weights.
  SparseVector v = {{3, -2.5}, {7, 0.25}};
  std::vector<double> dense(16, 0.0);
  dense[3] = -2.5;
  dense[7] = 0.25;
  std::vector<double> expect = ForwardHaar(dense);
  std::unordered_map<uint64_t, double> got;
  for (const WCoeff& w : SparseHaar(v, 16)) got[w.index] = w.value;
  for (uint64_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(got.count(i) ? got[i] : 0.0, expect[i], 1e-10);
  }
}

}  // namespace
}  // namespace wavemr
