#include <gtest/gtest.h>

#include <map>
#include <set>

#include "approx/send_sketch.h"
#include "data/frequency.h"
#include "histogram/builder.h"
#include "serve/estimator.h"
#include "sketch/wavelet_gcs.h"
#include "wavelet/topk.h"

namespace wavemr {
namespace {

ZipfDataset SkewedDataset() {
  ZipfDatasetOptions opt;
  opt.num_records = 30000;
  opt.domain_size = 1 << 10;
  opt.alpha = 1.3;  // strongly skewed: few dominant coefficients
  opt.num_splits = 8;
  opt.seed = 31;
  return ZipfDataset(opt);
}

TEST(SendSketchTest, SseBetweenIdealAndTotalEnergy) {
  ZipfDataset ds = SkewedDataset();
  std::vector<WCoeff> truth = TrueCoefficients(ds);
  BuildOptions opt;
  opt.k = 10;
  opt.gcs.total_bytes = 512 * 1024;
  opt.gcs.reps = 5;
  auto result = BuildWaveletHistogram(ds, AlgorithmKind::kSendSketch, opt);
  ASSERT_TRUE(result.ok());
  double sse = SseAgainstTrueCoefficients(result->ToSnapshot(), truth);
  double ideal = IdealSse(truth, opt.k);
  double energy = TotalEnergy(truth);
  EXPECT_GE(sse, ideal * (1 - 1e-9));
  // A reasonable sketch recovers most of the top-k energy on skewed data.
  EXPECT_LT(sse, 0.5 * energy);
}

TEST(SendSketchTest, CommunicationIsNonzeroCountersTimesEntryBytes) {
  ZipfDataset ds = SkewedDataset();
  BuildOptions opt;
  opt.k = 10;
  opt.gcs.total_bytes = 64 * 1024;
  auto result = BuildWaveletHistogram(ds, AlgorithmKind::kSendSketch, opt);
  ASSERT_TRUE(result.ok());
  const RoundStats& round = result->stats.rounds[0];
  EXPECT_EQ(round.shuffle_bytes, round.shuffle_pairs * 12);
  // Bounded by m * total counters.
  uint64_t counters = WaveletGcs(ds.info().domain_size, opt.gcs).NumCounters();
  EXPECT_LE(round.shuffle_pairs, ds.info().num_splits * counters);
  EXPECT_GT(round.shuffle_pairs, 0u);
}

TEST(SendSketchTest, CommunicationIndependentOfN) {
  // Sketch size depends on u, not n: doubling records leaves the per-split
  // sketch size capped by the counter count.
  ZipfDatasetOptions small;
  small.num_records = 10000;
  small.domain_size = 1 << 10;
  small.num_splits = 8;
  ZipfDatasetOptions big = small;
  big.num_records = 40000;
  BuildOptions opt;
  opt.gcs.total_bytes = 32 * 1024;
  auto a = BuildWaveletHistogram(ZipfDataset(small), AlgorithmKind::kSendSketch, opt);
  auto b = BuildWaveletHistogram(ZipfDataset(big), AlgorithmKind::kSendSketch, opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Within 2x of each other (both near saturation of the sketch).
  EXPECT_LT(b->stats.TotalCommBytes(), 2 * a->stats.TotalCommBytes() + 1024);
}

TEST(SendSketchTest, DeterministicUnderFixedSeed) {
  ZipfDataset ds = SkewedDataset();
  BuildOptions opt;
  opt.k = 8;
  opt.gcs.total_bytes = 64 * 1024;
  auto a = BuildWaveletHistogram(ds, AlgorithmKind::kSendSketch, opt);
  auto b = BuildWaveletHistogram(ds, AlgorithmKind::kSendSketch, opt);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->histogram.num_terms(), b->histogram.num_terms());
  for (size_t i = 0; i < a->histogram.num_terms(); ++i) {
    EXPECT_EQ(a->histogram.coefficients()[i].index,
              b->histogram.coefficients()[i].index);
  }
}

TEST(SendSketchTest, RecoversDominantCoefficient) {
  // One overwhelmingly frequent key -> its path coefficients dominate; the
  // sketch must find the average coefficient (index 0) at least.
  std::vector<std::vector<uint64_t>> splits(4);
  for (int j = 0; j < 4; ++j) splits[j].assign(2000, 5);  // all records key 5
  InMemoryDataset ds(std::move(splits), 1 << 8);
  BuildOptions opt;
  opt.k = 5;
  opt.gcs.total_bytes = 128 * 1024;
  auto result = BuildWaveletHistogram(ds, AlgorithmKind::kSendSketch, opt);
  ASSERT_TRUE(result.ok());
  std::vector<WCoeff> truth = TrueCoefficients(ds);
  std::vector<WCoeff> ideal = TopKByMagnitude(truth, opt.k);
  // The sketch's top coefficient should be the true dominant one.
  ASSERT_GE(result->histogram.num_terms(), 1u);
  std::vector<WCoeff> got = TopKByMagnitude(result->histogram.coefficients(), 1);
  EXPECT_EQ(got[0].index, ideal[0].index);
  EXPECT_NEAR(got[0].value, ideal[0].value, 0.2 * std::fabs(ideal[0].value));
}

TEST(SendSketchTest, MatchesPerKeyReferenceBuild) {
  // The mapper sketches each split's Haar coefficients; the paper's mapper
  // makes one UpdateData per distinct key. Same linear map, so the shipped
  // counters agree up to rounding: the same top-k indices, and the same
  // counters nonzero except where exact cancellation leaves no residue.
  ZipfDataset ds = SkewedDataset();
  BuildOptions opt;
  opt.k = 10;
  opt.gcs.total_bytes = 64 * 1024;
  auto result = BuildWaveletHistogram(ds, AlgorithmKind::kSendSketch, opt);
  ASSERT_TRUE(result.ok());

  const uint64_t u = ds.info().domain_size;
  const WaveletGcsOptions gcs = SendSketchGcsOptions(opt);
  WaveletGcs merged(u, gcs);
  uint64_t reference_pairs = 0;
  for (uint64_t split = 0; split < ds.info().num_splits; ++split) {
    std::map<uint64_t, uint64_t> freq;
    ds.ScanSplit(split, [&freq](uint64_t key) { ++freq[key]; });
    WaveletGcs local(u, gcs);
    for (const auto& [key, count] : freq) {
      local.UpdateData(key, static_cast<double>(count));
    }
    reference_pairs += local.NonzeroCounters();
    merged.Merge(local);
  }
  const double reference_bytes = static_cast<double>(reference_pairs * 12);
  EXPECT_NEAR(static_cast<double>(result->stats.TotalCommBytes()), reference_bytes,
              1e-3 * reference_bytes);

  std::set<uint64_t> want, got;
  for (const WCoeff& c : merged.FindTopK(opt.k)) want.insert(c.index);
  for (const WCoeff& c : result->histogram.coefficients()) got.insert(c.index);
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace wavemr
