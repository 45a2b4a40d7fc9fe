#include "sketch/group_count_sketch.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/simd.h"
#include "sketch/wavelet_gcs.h"
#include "wavelet/haar.h"
#include "wavelet/sparse.h"

namespace wavemr {
namespace {

TEST(GroupCountSketchTest, GroupEnergyOfHeavyGroup) {
  GroupCountSketch sketch(3, 5, 64, 8);
  // Group 4 holds items 40..44 with substantial values.
  double energy = 0.0;
  for (uint64_t i = 0; i < 5; ++i) {
    double v = 100.0 + 10.0 * static_cast<double>(i);
    sketch.Update(4, 40 + i, v);
    energy += v * v;
  }
  // Light noise in other groups.
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    uint64_t g = 10 + rng.NextBounded(50);
    sketch.Update(g, g * 100 + rng.NextBounded(10), 1.0);
  }
  EXPECT_NEAR(sketch.GroupEnergy(4), energy, 0.3 * energy);
}

TEST(GroupCountSketchTest, SingletonItemEstimate) {
  GroupCountSketch sketch(5, 5, 128, 8);
  sketch.Update(77, 77, 250.0);
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    uint64_t item = rng.NextBounded(5000);
    sketch.Update(item, item, 1.0);
  }
  EXPECT_NEAR(sketch.EstimateItem(77, 77), 250.0, 30.0);
}

TEST(GroupCountSketchTest, MergeMatchesBulk) {
  GroupCountSketch a(1, 3, 16, 4), b(1, 3, 16, 4), bulk(1, 3, 16, 4);
  for (uint64_t i = 0; i < 200; ++i) {
    (i % 2 ? a : b).Update(i / 8, i, static_cast<double>(i % 7));
    bulk.Update(i / 8, i, static_cast<double>(i % 7));
  }
  a.Merge(b);
  for (size_t i = 0; i < a.NumCounters(); ++i) {
    EXPECT_DOUBLE_EQ(a.CounterAt(i), bulk.CounterAt(i));
  }
}

TEST(GroupCountSketchTest, UpdateBatchMatchesScalarUpdatesBitForBit) {
  // The restructured kernel must be a pure layout change: a bulk update is
  // the same sequence of counter additions as the scalar loop, so tables
  // agree exactly (not just approximately).
  const uint32_t shift = 3;  // dyadic groups of 8, as in the wavelet tree
  GroupCountSketch scalar(42, 5, 32, 8), batch(42, 5, 32, 8);
  std::vector<uint64_t> items;
  std::vector<double> values;
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    items.push_back(rng.NextBounded(1 << 12));
    values.push_back(static_cast<double>(rng.NextBounded(100)) * 0.25 - 12.0);
  }
  for (size_t i = 0; i < items.size(); ++i) {
    scalar.Update(items[i] >> shift, items[i], values[i]);
  }
  batch.UpdateBatch(items.data(), values.data(), items.size(), shift);
  ASSERT_EQ(scalar.NumCounters(), batch.NumCounters());
  for (size_t i = 0; i < scalar.NumCounters(); ++i) {
    EXPECT_DOUBLE_EQ(scalar.CounterAt(i), batch.CounterAt(i)) << "counter " << i;
  }
}

TEST(GroupCountSketchTest, UpdateBatchSortedItemsReuseGroupBuckets) {
  // Ascending items trigger the group-hash reuse fast path; interleaved
  // (unsorted) items must still land identically.
  GroupCountSketch sorted(7, 3, 16, 4), shuffled(7, 3, 16, 4);
  std::vector<uint64_t> asc;
  std::vector<double> val_asc;
  for (uint64_t i = 0; i < 256; ++i) {
    asc.push_back(i);
    val_asc.push_back(1.0 + static_cast<double>(i % 5));
  }
  sorted.UpdateBatch(asc.data(), val_asc.data(), asc.size(), 2);
  // Same multiset of updates, worst-case order for the cache (alternating
  // ends), applied scalar-wise.
  for (uint64_t i = 0; i < 256; ++i) {
    uint64_t item = (i % 2 == 0) ? i / 2 : 255 - i / 2;
    shuffled.Update(item >> 2, item, 1.0 + static_cast<double>(item % 5));
  }
  for (size_t i = 0; i < sorted.NumCounters(); ++i) {
    // Same cells, same totals; order differs so allow FP-rounding slack.
    EXPECT_NEAR(sorted.CounterAt(i), shuffled.CounterAt(i),
                1e-9 * (1.0 + std::fabs(sorted.CounterAt(i))));
  }
}

TEST(GroupCountSketchTest, LargeGroupShiftMapsEverythingToGroupZero) {
  GroupCountSketch a(3, 3, 16, 4), b(3, 3, 16, 4);
  std::vector<uint64_t> items = {1, 5, 900, 12345};
  std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  a.UpdateBatch(items.data(), values.data(), items.size(), 64);
  for (size_t i = 0; i < items.size(); ++i) b.Update(0, items[i], values[i]);
  for (size_t i = 0; i < a.NumCounters(); ++i) {
    EXPECT_DOUBLE_EQ(a.CounterAt(i), b.CounterAt(i));
  }
}

// ---------------------------------------------------------------------------
// Hierarchical wavelet GCS
// ---------------------------------------------------------------------------

WaveletGcsOptions TestGcsOptions() {
  WaveletGcsOptions opt;
  opt.seed = 99;
  opt.reps = 5;
  opt.subbuckets = 8;
  opt.degree_bits = 3;            // GCS-8
  opt.total_bytes = 256 * 1024;   // generous for a small test domain
  return opt;
}

TEST(WaveletGcsTest, RecoversPlantedHeavyCoefficients) {
  const uint64_t u = 1024;
  WaveletGcs sketch(u, TestGcsOptions());
  // Plant heavy coefficients directly in the wavelet domain.
  std::set<uint64_t> heavy = {3, 170, 512, 900};
  for (uint64_t idx : heavy) sketch.UpdateCoeff(idx, 500.0);
  Rng rng(1);
  for (int i = 0; i < 500; ++i) sketch.UpdateCoeff(rng.NextBounded(u), 1.0);

  std::vector<WCoeff> top = sketch.FindTopK(4);
  ASSERT_EQ(top.size(), 4u);
  for (const WCoeff& c : top) {
    EXPECT_TRUE(heavy.count(c.index) > 0) << "unexpected index " << c.index;
    EXPECT_NEAR(c.value, 500.0, 100.0);
  }
}

TEST(WaveletGcsTest, DataDomainUpdateMatchesTransformPath) {
  // UpdateData(x, c) must produce the same coefficient estimates as the true
  // transform of the point signal c * e_x.
  const uint64_t u = 256;
  WaveletGcs sketch(u, TestGcsOptions());
  sketch.UpdateData(37, 64.0);
  std::vector<double> dense(u, 0.0);
  dense[37] = 64.0;
  std::vector<double> w = ForwardHaar(dense);
  for (uint64_t i = 0; i < u; ++i) {
    if (w[i] != 0.0) {
      EXPECT_NEAR(sketch.EstimateCoeff(i), w[i], 1e-6) << "coeff " << i;
    }
  }
}

TEST(WaveletGcsTest, MergeAndFlatCountersMatchDirectUpdates) {
  // The Send-Sketch wire path (ForEachNonzeroCounter -> AddToFlatCounter)
  // must reconstruct the merged sketch exactly.
  const uint64_t u = 512;
  WaveletGcsOptions opt = TestGcsOptions();
  WaveletGcs local1(u, opt), local2(u, opt), wire(u, opt), direct(u, opt);
  Rng rng(8);
  for (int i = 0; i < 300; ++i) {
    uint64_t x = rng.NextBounded(u);
    double c = 1.0 + rng.NextBounded(9);
    (i % 2 ? local1 : local2).UpdateData(x, c);
    direct.UpdateData(x, c);
  }
  local1.ForEachNonzeroCounter(
      [&wire](uint64_t idx, double v) { wire.AddToFlatCounter(idx, v); });
  local2.ForEachNonzeroCounter(
      [&wire](uint64_t idx, double v) { wire.AddToFlatCounter(idx, v); });
  for (uint64_t i = 0; i < u; ++i) {
    // Identical up to floating-point addition order (the wire path sums the
    // two partitions' counters in a different sequence).
    double d = direct.EstimateCoeff(i);
    EXPECT_NEAR(wire.EstimateCoeff(i), d, 1e-9 * (1.0 + std::fabs(d))) << i;
  }
}

TEST(WaveletGcsTest, BulkUpdateDataMatchesPerCoefficientPath) {
  // UpdateData now feeds every level one sorted batch; the counters must be
  // exactly what the per-coefficient UpdateCoeff walk produces (the add
  // order per cell is preserved: ascending coefficient index).
  const uint64_t u = 512;
  WaveletGcsOptions opt = TestGcsOptions();
  WaveletGcs bulk(u, opt), scalar(u, opt);
  Rng rng(77);
  std::vector<std::pair<uint64_t, double>> points;
  for (int i = 0; i < 200; ++i) {
    points.emplace_back(rng.NextBounded(u), 1.0 + rng.NextBounded(20));
  }
  for (const auto& [x, c] : points) bulk.UpdateData(x, c);
  // Reference path: the error-tree coefficients of each point, applied one
  // UpdateCoeff at a time in ascending index order.
  for (const auto& [x, c] : points) {
    scalar.UpdateCoeff(0, c / std::sqrt(static_cast<double>(u)));
    for (uint32_t j = 0; j < 9; ++j) {  // log2(512) levels
      uint64_t block = u >> j;
      uint64_t k = x / block;
      uint64_t offset = x - k * block;
      double mag = c / std::sqrt(static_cast<double>(block));
      scalar.UpdateCoeff((uint64_t{1} << j) + k, (offset < block / 2) ? -mag : mag);
    }
  }
  uint64_t differing = 0;
  for (uint64_t i = 0; i < u; ++i) {
    if (bulk.EstimateCoeff(i) != scalar.EstimateCoeff(i)) ++differing;
  }
  EXPECT_EQ(differing, 0u);
}

TEST(WaveletGcsTest, EnergyEstimateTracksParseval) {
  const uint64_t u = 256;
  WaveletGcs sketch(u, TestGcsOptions());
  double energy = 0.0;
  for (uint64_t idx = 0; idx < 32; ++idx) {
    double v = static_cast<double>(idx) * 3.0;
    sketch.UpdateCoeff(idx, v);
    energy += v * v;
  }
  EXPECT_NEAR(sketch.EstimateEnergy(), energy, 0.35 * energy);
}

TEST(WaveletGcsTest, PaperSpaceRuleApplied) {
  WaveletGcsOptions opt;
  opt.total_bytes = 0;  // paper rule: 20KB * log2(u)
  WaveletGcs sketch(1 << 20, opt);
  EXPECT_GT(sketch.NumCounters() * sizeof(double), 200u * 1024);
  EXPECT_GT(sketch.CounterUpdatesPerDataPoint(), 0u);
}

TEST(WaveletGcsTest, CounterUpdateCostFormula) {
  WaveletGcsOptions opt = TestGcsOptions();
  WaveletGcs sketch(1024, opt);
  // log2(1024)+1 = 11 coefficients, each touching every level in each rep.
  EXPECT_EQ(sketch.CounterUpdatesPerDataPoint(),
            11u * sketch.num_levels() * opt.reps);
}

// ---------------------------------------------------------------------------
// WaveletGcs::UpdateSortedData (the Send-Sketch mapper's path)
// ---------------------------------------------------------------------------

/// Restores the startup tier when a test is done overriding it.
class SimdTierGuard {
 public:
  explicit SimdTierGuard(SimdTier tier) { OverrideSimdTierForTest(tier); }
  ~SimdTierGuard() { OverrideSimdTierForTest(ActiveSimdTier()); }
};

std::vector<SimdTier> TiersUnderTest() {
  return {SimdTier::kScalar, BestSimdTier()};
}

/// Every counter of the sketch, by flat index (zeros included).
std::vector<double> AllCounters(const WaveletGcs& sketch) {
  std::vector<double> counters(sketch.NumCounters(), 0.0);
  sketch.ForEachNonzeroCounter(
      [&counters](uint64_t idx, double v) { counters[idx] = v; });
  return counters;
}

/// Counters agree exactly, as IEEE bit patterns; returns the mismatch count.
size_t BitMismatches(const WaveletGcs& a, const WaveletGcs& b) {
  const std::vector<double> ca = AllCounters(a);
  const std::vector<double> cb = AllCounters(b);
  EXPECT_EQ(ca.size(), cb.size());
  size_t mismatches = 0;
  for (size_t i = 0; i < ca.size() && i < cb.size(); ++i) {
    if (std::bit_cast<uint64_t>(ca[i]) != std::bit_cast<uint64_t>(cb[i])) ++mismatches;
  }
  return mismatches;
}

WaveletGcs SortedDataSketch(uint64_t u, const WaveletGcsOptions& opt,
                            const SparseVector& v) {
  std::vector<uint64_t> keys;
  std::vector<double> weights;
  for (const auto& [key, weight] : v) {
    keys.push_back(key);
    weights.push_back(weight);
  }
  WaveletGcs sketch(u, opt);
  sketch.UpdateSortedData(keys.data(), weights.data(), keys.size());
  return sketch;
}

/// The contract: UpdateCoeff over SparseHaar's coefficients in index order.
WaveletGcs CoefficientReferenceSketch(uint64_t u, const WaveletGcsOptions& opt,
                                      const SparseVector& v) {
  WaveletGcs sketch(u, opt);
  for (const WCoeff& c : SparseHaar(v, u)) sketch.UpdateCoeff(c.index, c.value);
  return sketch;
}

/// `count` distinct ascending keys drawn uniformly from [0, u).
SparseVector DenseDomainVector(uint64_t seed, uint64_t u, size_t count) {
  Rng rng(seed);
  std::set<uint64_t> keys;
  while (keys.size() < count) keys.insert(rng.NextBounded(u));
  SparseVector v;
  for (uint64_t key : keys) v.emplace_back(key, (rng.NextDouble() - 0.5) * 100.0);
  return v;
}

/// `count` distinct ascending keys in a few tight clusters of a wide domain,
/// weighted by positive integer counts like a mapper's frequency vector.
SparseVector ClusteredVector(uint64_t seed, uint64_t u, size_t count) {
  Rng rng(seed);
  std::vector<uint64_t> centers;
  for (int c = 0; c < 16; ++c) centers.push_back(rng.NextBounded(u));
  std::set<uint64_t> keys;
  while (keys.size() < count) {
    const uint64_t center = centers[rng.NextBounded(centers.size())];
    keys.insert(std::min(u - 1, center + rng.NextBounded(512)));
  }
  SparseVector v;
  for (uint64_t key : keys) {
    v.emplace_back(key, static_cast<double>(1 + rng.NextBounded(40)));
  }
  return v;
}

TEST(WaveletGcsSortedDataTest, MatchesSparseHaarCoefficientPathBitForBit) {
  const WaveletGcsOptions opt = TestGcsOptions();
  const struct {
    const char* name;
    uint64_t u;
    SparseVector v;
  } cases[] = {
      {"dense u=2^10 |v|=600", 1 << 10, DenseDomainVector(5, 1 << 10, 600)},
      {"sparse u=2^20 |v|=2000", uint64_t{1} << 20,
       ClusteredVector(6, uint64_t{1} << 20, 2000)},
  };
  for (SimdTier tier : TiersUnderTest()) {
    SimdTierGuard guard(tier);
    for (const auto& c : cases) {
      const WaveletGcs got = SortedDataSketch(c.u, opt, c.v);
      const WaveletGcs want = CoefficientReferenceSketch(c.u, opt, c.v);
      EXPECT_GT(got.NonzeroCounters(), 0u);
      EXPECT_EQ(BitMismatches(got, want), 0u)
          << c.name << " tier=" << SimdTierName(tier);
    }
  }
}

TEST(WaveletGcsSortedDataTest, EdgeCasesMatchReferencesBitForBit) {
  const WaveletGcsOptions opt = TestGcsOptions();
  const uint64_t wide = uint64_t{1} << 20;
  for (SimdTier tier : TiersUnderTest()) {
    SimdTierGuard guard(tier);
    // n = 0 touches nothing.
    WaveletGcs empty(1 << 10, opt);
    empty.UpdateSortedData(nullptr, nullptr, 0);
    EXPECT_EQ(empty.NonzeroCounters(), 0u);

    // One key is exactly one error-tree path: same adds as UpdateData.
    WaveletGcs path(wide, opt);
    path.UpdateData(123457, 6.0);
    EXPECT_EQ(BitMismatches(SortedDataSketch(wide, opt, {{123457, 6.0}}), path), 0u)
        << SimdTierName(tier);

    // The domain endpoints.
    const SparseVector ends = {{0, 3.0}, {wide - 1, 11.0}};
    EXPECT_EQ(BitMismatches(SortedDataSketch(wide, opt, ends),
                            CoefficientReferenceSketch(wide, opt, ends)),
              0u)
        << SimdTierName(tier);

    // Keys 4 and 5 with equal weights cancel coefficient 130 = 2^7 + 4/2
    // exactly. Its cells get no add at all, not a +x then -x residue pair,
    // so the sketch equals the reference that never sees index 130.
    const SparseVector cancel = {{4, 2.5}, {5, 2.5}};
    for (const WCoeff& c : SparseHaar(cancel, 256)) ASSERT_NE(c.index, 130u);
    EXPECT_EQ(BitMismatches(SortedDataSketch(256, opt, cancel),
                            CoefficientReferenceSketch(256, opt, cancel)),
              0u)
        << SimdTierName(tier);
  }
}

TEST(WaveletGcsSortedDataTest, CountersWithinRoundingOfPerKeyPath) {
  // Same linear map as one UpdateData per key; only the summation order of
  // each counter differs.
  const WaveletGcsOptions opt = TestGcsOptions();
  const uint64_t wide = uint64_t{1} << 20;
  const struct {
    uint64_t u;
    SparseVector v;
  } cases[] = {
      {1 << 10, ClusteredVector(7, 1 << 10, 600)},
      {wide, ClusteredVector(8, wide, 2000)},
  };
  for (SimdTier tier : TiersUnderTest()) {
    SimdTierGuard guard(tier);
    for (const auto& c : cases) {
      WaveletGcs per_key(c.u, opt);
      for (const auto& [key, weight] : c.v) per_key.UpdateData(key, weight);
      const std::vector<double> got = AllCounters(SortedDataSketch(c.u, opt, c.v));
      const std::vector<double> want = AllCounters(per_key);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i], want[i], 1e-9 * (1.0 + std::fabs(want[i])))
            << "counter " << i << " u=" << c.u << " tier=" << SimdTierName(tier);
      }
    }
  }
}

}  // namespace
}  // namespace wavemr
