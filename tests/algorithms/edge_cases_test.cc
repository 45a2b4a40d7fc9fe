#include <gtest/gtest.h>

#include "data/frequency.h"
#include "histogram/builder.h"
#include "serve/estimator.h"

namespace wavemr {
namespace {

// Degenerate and boundary configurations every algorithm must survive.

TEST(EdgeCasesTest, EmptySplitsAreHandled) {
  // n < m leaves some splits empty.
  ZipfDatasetOptions opt;
  opt.num_records = 3;
  opt.domain_size = 1 << 6;
  opt.num_splits = 5;
  ZipfDataset ds(opt);
  BuildOptions build;
  build.k = 4;
  build.epsilon = 0.9;
  for (AlgorithmKind kind : AllAlgorithms()) {
    auto result = BuildWaveletHistogram(ds, kind, build);
    ASSERT_TRUE(result.ok()) << AlgorithmName(kind);
    EXPECT_LE(result->histogram.num_terms(), build.k) << AlgorithmName(kind);
  }
}

TEST(EdgeCasesTest, SingleKeyDataset) {
  std::vector<std::vector<uint64_t>> splits(4);
  for (auto& s : splits) s.assign(500, 9);
  InMemoryDataset ds(std::move(splits), 1 << 5);
  std::vector<WCoeff> truth = TrueCoefficients(ds);
  BuildOptions build;
  build.k = 3;
  for (AlgorithmKind kind : ExactAlgorithms()) {
    auto result = BuildWaveletHistogram(ds, kind, build);
    ASSERT_TRUE(result.ok());
    double ideal = IdealSse(truth, build.k);
    EXPECT_NEAR(SseAgainstTrueCoefficients(result->ToSnapshot(), truth), ideal,
                1e-6 * (1 + ideal))
        << AlgorithmName(kind);
  }
}

TEST(EdgeCasesTest, KZeroYieldsEmptyHistogram) {
  ZipfDatasetOptions opt;
  opt.num_records = 2000;
  opt.domain_size = 1 << 8;
  opt.num_splits = 4;
  ZipfDataset ds(opt);
  BuildOptions build;
  build.k = 0;
  for (AlgorithmKind kind :
       {AlgorithmKind::kSendV, AlgorithmKind::kHWTopk, AlgorithmKind::kTwoLevelS}) {
    auto result = BuildWaveletHistogram(ds, kind, build);
    ASSERT_TRUE(result.ok()) << AlgorithmName(kind);
    EXPECT_EQ(result->histogram.num_terms(), 0u) << AlgorithmName(kind);
  }
}

TEST(EdgeCasesTest, EmptyDatasetYieldsEmptyHistogram) {
  // n = 0: no coefficient is nonzero, so no algorithm has a term to keep.
  // Send-Sketch's zero-energy sketch must not fill the synopsis with
  // zero-valued estimates.
  InMemoryDataset ds(std::vector<std::vector<uint64_t>>(4), 1 << 8);
  BuildOptions build;
  build.k = 20;
  for (AlgorithmKind kind : AllAlgorithms()) {
    auto result = BuildWaveletHistogram(ds, kind, build);
    ASSERT_TRUE(result.ok()) << AlgorithmName(kind);
    EXPECT_EQ(result->histogram.num_terms(), 0u) << AlgorithmName(kind);
  }
}

TEST(EdgeCasesTest, KExceedsNonzeroCoefficients) {
  InMemoryDataset ds({{1, 1, 1}, {1, 1}}, 1 << 4);
  BuildOptions build;
  build.k = 1000;
  for (AlgorithmKind kind : ExactAlgorithms()) {
    auto result = BuildWaveletHistogram(ds, kind, build);
    ASSERT_TRUE(result.ok());
    // A single key has log2(u)+1 = 5 nonzero coefficients.
    EXPECT_EQ(result->histogram.num_terms(), 5u) << AlgorithmName(kind);
    EXPECT_NEAR(PointEstimate(result->ToSnapshot(), 1), 5.0, 1e-9);
  }
}

TEST(EdgeCasesTest, MinimalDomain) {
  InMemoryDataset ds({{0, 1, 2, 3}, {0, 0}}, 4);
  BuildOptions build;
  build.k = 4;
  for (AlgorithmKind kind : ExactAlgorithms()) {
    auto result = BuildWaveletHistogram(ds, kind, build);
    ASSERT_TRUE(result.ok());
    EXPECT_NEAR(PointEstimate(result->ToSnapshot(), 0), 3.0, 1e-9) << AlgorithmName(kind);
    EXPECT_NEAR(PointEstimate(result->ToSnapshot(), 3), 1.0, 1e-9) << AlgorithmName(kind);
  }
}

TEST(EdgeCasesTest, HWTopkRejectsOversizedDomain) {
  // The wire format uses 4-byte coefficient ids, as in the paper.
  ZipfDatasetOptions opt;
  opt.num_records = 10;
  opt.domain_size = uint64_t{1} << 33;
  opt.num_splits = 2;
  ZipfDataset ds(opt);
  BuildOptions build;
  auto result = BuildWaveletHistogram(ds, AlgorithmKind::kHWTopk, build);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EdgeCasesTest, HugeEpsilonStillProducesAHistogram) {
  // eps = 1 draws (almost) nothing; the estimate is a legal (mostly empty)
  // histogram, never a crash.
  ZipfDatasetOptions opt;
  opt.num_records = 5000;
  opt.domain_size = 1 << 8;
  opt.num_splits = 4;
  ZipfDataset ds(opt);
  BuildOptions build;
  build.epsilon = 1.0;
  for (AlgorithmKind kind : {AlgorithmKind::kBasicS, AlgorithmKind::kImprovedS,
                             AlgorithmKind::kTwoLevelS}) {
    auto result = BuildWaveletHistogram(ds, kind, build);
    ASSERT_TRUE(result.ok()) << AlgorithmName(kind);
  }
}

TEST(EdgeCasesTest, TimeScaleMultipliesWorkNotOverhead) {
  ZipfDatasetOptions opt;
  opt.num_records = 20000;
  opt.domain_size = 1 << 10;
  opt.num_splits = 8;
  ZipfDataset ds(opt);

  BuildOptions base;
  auto a = BuildWaveletHistogram(ds, AlgorithmKind::kSendV, base);
  BuildOptions scaled = base;
  scaled.cost_model.time_scale = 100.0;
  auto b = BuildWaveletHistogram(ds, AlgorithmKind::kSendV, scaled);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Identical measured bytes; scaled work time.
  EXPECT_EQ(a->stats.TotalCommBytes(), b->stats.TotalCommBytes());
  double overhead = base.cost_model.job_overhead_s;
  double work_a = a->stats.rounds[0].shuffle_s + a->stats.rounds[0].reduce_s;
  double work_b = b->stats.rounds[0].shuffle_s + b->stats.rounds[0].reduce_s;
  EXPECT_NEAR(work_b, 100.0 * work_a, 1e-6 * work_b);
  EXPECT_DOUBLE_EQ(a->stats.rounds[0].overhead_s, overhead);
  EXPECT_DOUBLE_EQ(b->stats.rounds[0].overhead_s, overhead);
}

TEST(EdgeCasesTest, BasicSamplingCommMatchesSampledDistinctKeys) {
  ZipfDatasetOptions opt;
  opt.num_records = 50000;
  opt.domain_size = 1 << 10;
  opt.num_splits = 10;
  ZipfDataset ds(opt);
  BuildOptions build;
  build.epsilon = 0.02;  // sample 2500 of 50000
  auto result = BuildWaveletHistogram(ds, AlgorithmKind::kBasicS, build);
  ASSERT_TRUE(result.ok());
  const RoundStats& round = result->stats.rounds[0];
  // One 8-byte pair per distinct sampled key per split; bounded by the
  // total sample size 1/eps^2.
  EXPECT_EQ(round.shuffle_bytes, round.shuffle_pairs * 8);
  EXPECT_LE(round.shuffle_pairs, static_cast<uint64_t>(1.0 / (0.02 * 0.02)) + 10);
  EXPECT_GT(round.shuffle_pairs, 100u);
}

}  // namespace
}  // namespace wavemr
