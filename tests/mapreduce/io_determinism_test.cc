// --spill-io=sync vs --spill-io=async must be invisible in every output:
// the async data plane (core/io.h) promises bit-identical synopses,
// counters, and shuffle accounting for all 7 algorithms, across the same
// threads x reduce-tasks x spill knobs the SIMD determinism suite exercises.
// This is the acceptance gate for the overlapped spill writes: they may only
// change *when* bytes move, never what any observer sees.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/io.h"
#include "data/dataset.h"
#include "histogram/builder.h"

namespace wavemr {
namespace {

ZipfDataset TestDataset() {
  ZipfDatasetOptions opt;
  opt.num_records = 1 << 14;
  opt.domain_size = 1 << 10;
  opt.alpha = 1.1;
  opt.num_splits = 16;
  opt.seed = 97;
  return ZipfDataset(opt);
}

struct Case {
  AlgorithmKind kind;
  int threads;
  int reduce_tasks = 0;
  uint64_t shuffle_buffer_bytes = 0;  // 0 = default budget (no spill)
  int queue_depth = IoOptions().queue_depth;
};

std::string CaseName(const testing::TestParamInfo<Case>& info) {
  std::string algo = AlgorithmName(info.param.kind);
  for (char& c : algo) {
    if (c == '-') c = '_';
  }
  std::string name = algo + "_t" + std::to_string(info.param.threads);
  if (info.param.reduce_tasks > 0) {
    name += "_r" + std::to_string(info.param.reduce_tasks);
  }
  if (info.param.shuffle_buffer_bytes > 0) name += "_spill";
  if (info.param.queue_depth != IoOptions().queue_depth) {
    name += "_q" + std::to_string(info.param.queue_depth);
  }
  return name;
}

BuildResult BuildOnBackend(const Dataset& ds, const Case& c,
                           IoBackendKind backend) {
  BuildOptions opt;
  opt.k = 20;
  opt.epsilon = 0.05;
  opt.seed = 1234;
  opt.threads = c.threads;
  opt.reduce_tasks = c.reduce_tasks;
  opt.io.backend = backend;
  opt.io.queue_depth = c.queue_depth;
  opt.io.retry.backoff_initial_us = 0;
  if (c.shuffle_buffer_bytes > 0) {
    opt.io.shuffle_buffer_bytes = c.shuffle_buffer_bytes;
  }
  auto result = BuildWaveletHistogram(ds, c.kind, opt);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

class SyncVsAsyncIoTest : public testing::TestWithParam<Case> {};

TEST_P(SyncVsAsyncIoTest, BitIdenticalAcrossBackends) {
  const Case param = GetParam();
  ZipfDataset ds = TestDataset();

  BuildResult sync = BuildOnBackend(ds, param, IoBackendKind::kSync);
  BuildResult async = BuildOnBackend(ds, param, IoBackendKind::kAsync);

  // Identical synopses: same coefficients, bit for bit.
  const auto& want = sync.histogram.coefficients();
  const auto& got = async.histogram.coefficients();
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].index, got[i].index) << "coefficient " << i;
    ASSERT_EQ(want[i].value, got[i].value) << "coefficient " << i;
  }

  // Identical counters -- including every spill count, so what spilled and
  // what stayed resident matched decision for decision.
  EXPECT_EQ(sync.stats.counters.values(), async.stats.counters.values());

  // Identical per-round shuffle/broadcast accounting and simulated time.
  ASSERT_EQ(sync.stats.NumRounds(), async.stats.NumRounds());
  for (size_t r = 0; r < sync.stats.rounds.size(); ++r) {
    const RoundStats& a = sync.stats.rounds[r];
    const RoundStats& b = async.stats.rounds[r];
    EXPECT_EQ(a.shuffle_pairs, b.shuffle_pairs) << "round " << r;
    EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes) << "round " << r;
    EXPECT_EQ(a.broadcast_bytes, b.broadcast_bytes) << "round " << r;
    EXPECT_EQ(a.map_tasks, b.map_tasks) << "round " << r;
    EXPECT_DOUBLE_EQ(a.map_makespan_s, b.map_makespan_s) << "round " << r;
    EXPECT_DOUBLE_EQ(a.TotalSeconds(), b.TotalSeconds()) << "round " << r;
  }
}

const std::vector<AlgorithmKind>& AllKinds() {
  static const std::vector<AlgorithmKind> kinds = {
      AlgorithmKind::kSendV,     AlgorithmKind::kSendCoef,
      AlgorithmKind::kHWTopk,    AlgorithmKind::kBasicS,
      AlgorithmKind::kImprovedS, AlgorithmKind::kTwoLevelS,
      AlgorithmKind::kSendSketch};
  return kinds;
}

// Every algorithm under: serial; threaded + partitioned reduce; threaded +
// partitioned reduce + forced spill (the case where the async plane actually
// overlaps writes). The exact algorithms -- their sorted rounds are the
// heaviest spill users -- add spill cases at both ends of the write queue:
// depth 16 keeps many writes uncollected, depth 1 collects each write
// before the next is submitted.
std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (AlgorithmKind kind : AllKinds()) {
    cases.push_back(Case{kind, /*threads=*/1, /*reduce_tasks=*/1});
    cases.push_back(Case{kind, /*threads=*/4, /*reduce_tasks=*/4});
    cases.push_back(Case{kind, /*threads=*/4, /*reduce_tasks=*/2,
                         /*shuffle_buffer_bytes=*/4096});
  }
  for (AlgorithmKind kind :
       {AlgorithmKind::kSendCoef, AlgorithmKind::kHWTopk}) {
    cases.push_back(Case{kind, /*threads=*/4, /*reduce_tasks=*/2,
                         /*shuffle_buffer_bytes=*/4096,
                         /*queue_depth=*/16});
    cases.push_back(Case{kind, /*threads=*/2, /*reduce_tasks=*/2,
                         /*shuffle_buffer_bytes=*/4096,
                         /*queue_depth=*/1});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SyncVsAsyncIoTest,
                         testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace wavemr
