#include "mapreduce/shuffle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/rng.h"

namespace wavemr {
namespace {

using Pair = std::pair<uint64_t, uint64_t>;

// Reference semantics the plane must reproduce: concatenate the runs in run
// order and stable-sort by key (exactly what the old engine's driver did).
std::vector<Pair> StableSortedConcatenation(
    const std::vector<ShuffleRun<uint64_t, uint64_t>>& runs) {
  std::vector<Pair> all;
  for (const auto& run : runs) {
    for (size_t i = 0; i < run.size(); ++i) {
      all.emplace_back(run.keys[i], run.values[i]);
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Pair& a, const Pair& b) { return a.first < b.first; });
  return all;
}

// Random runs with heavy key duplication (small key domain) so stability is
// actually exercised; values are globally unique sequence numbers, which
// makes any ordering deviation visible.
std::vector<ShuffleRun<uint64_t, uint64_t>> RandomRuns(uint64_t seed,
                                                       size_t num_runs,
                                                       size_t max_run_len,
                                                       uint64_t key_domain) {
  Rng rng(seed);
  std::vector<ShuffleRun<uint64_t, uint64_t>> runs(num_runs);
  uint64_t sequence = 0;
  for (auto& run : runs) {
    const size_t len = rng.NextBounded(max_run_len + 1);  // empty runs allowed
    for (size_t i = 0; i < len; ++i) {
      run.Append(rng.NextBounded(key_domain), sequence++);
    }
  }
  return runs;
}

TEST(ShuffleRunTest, SortByKeyMatchesStableSortBitwise) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    for (uint64_t domain : {uint64_t{1}, uint64_t{7}, uint64_t{1} << 16,
                            uint64_t{1} << 40}) {
      auto runs = RandomRuns(seed ^ domain, 1, 3000, domain);
      ShuffleRun<uint64_t, uint64_t>& run = runs[0];

      std::vector<Pair> want;
      for (size_t i = 0; i < run.size(); ++i) {
        want.emplace_back(run.keys[i], run.values[i]);
      }
      std::stable_sort(want.begin(), want.end(), [](const Pair& a, const Pair& b) {
        return a.first < b.first;
      });

      run.SortByKey();
      ASSERT_EQ(run.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(run.keys[i], want[i].first) << "pair " << i;
        EXPECT_EQ(run.values[i], want[i].second) << "pair " << i;
      }
      EXPECT_TRUE(run.sorted);
    }
  }
}

TEST(ShuffleRunTest, SortIsIdempotentAndHandlesEdges) {
  ShuffleRun<uint64_t, uint64_t> empty;
  empty.SortByKey();
  EXPECT_TRUE(empty.sorted);
  EXPECT_TRUE(empty.empty());

  ShuffleRun<uint64_t, uint64_t> one;
  one.Append(42, 7);
  one.SortByKey();
  one.SortByKey();
  EXPECT_EQ(one.keys[0], 42u);
  EXPECT_EQ(one.values[0], 7u);
}

// The satellite property test: merging R randomly sized sorted runs equals
// stable_sort of their concatenation -- duplicate keys drain lower-indexed
// runs first and preserve within-run order, empty runs are skipped.
TEST(RunMergerTest, MergeEqualsStableSortOfConcatenation) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const size_t num_runs = 1 + (seed % 9);  // 1..9 runs
    auto runs = RandomRuns(seed * 1000, num_runs, 400, /*key_domain=*/32);
    std::vector<Pair> want = StableSortedConcatenation(runs);

    for (auto& run : runs) run.SortByKey();
    RunMerger<uint64_t, uint64_t> merger(runs);
    std::vector<Pair> got;
    merger.Drain([&got](const uint64_t& k, const uint64_t& v) {
      got.emplace_back(k, v);
    });

    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "seed " << seed << " pair " << i;
    }
  }
}

TEST(RunMergerTest, AllRunsEmptyOrNoRuns) {
  std::vector<ShuffleRun<uint64_t, uint64_t>> none;
  RunMerger<uint64_t, uint64_t> empty_merger(none);
  size_t count = 0;
  empty_merger.Drain([&count](const uint64_t&, const uint64_t&) { ++count; });
  EXPECT_EQ(count, 0u);

  std::vector<ShuffleRun<uint64_t, uint64_t>> empties(5);
  RunMerger<uint64_t, uint64_t> merger(empties);
  merger.Drain([&count](const uint64_t&, const uint64_t&) { ++count; });
  EXPECT_EQ(count, 0u);
}

TEST(RunMergerTest, TieBreakPrefersLowerRunIndex) {
  // Three runs of the same single key: values must drain in run order.
  std::vector<ShuffleRun<uint64_t, uint64_t>> runs(3);
  for (uint64_t r = 0; r < 3; ++r) {
    runs[r].Append(5, r * 10);
    runs[r].Append(5, r * 10 + 1);
    runs[r].SortByKey();
  }
  RunMerger<uint64_t, uint64_t> merger(runs);
  std::vector<uint64_t> values;
  merger.Drain([&values](const uint64_t&, const uint64_t& v) {
    values.push_back(v);
  });
  EXPECT_EQ(values, (std::vector<uint64_t>{0, 1, 10, 11, 20, 21}));
}

TEST(ShufflePlaneTest, StreamingPlaneDeliversInRunOrderAndAccounts) {
  ShufflePlane<uint64_t, uint64_t> plane(
      [](const uint64_t*, const uint64_t*, size_t n) { return uint64_t{8} * n; },
      /*sorted=*/false, SpillPolicy{0});
  auto runs = RandomRuns(77, 4, 50, 16);
  std::vector<Pair> want;
  for (const auto& run : runs) {
    for (size_t i = 0; i < run.size(); ++i) {
      want.emplace_back(run.keys[i], run.values[i]);
    }
  }
  std::vector<Pair> got;
  uint64_t total = 0;
  for (auto& run : runs) {
    total += run.size();
    plane.Accept(std::move(run),
                 [&got](const uint64_t& k, const uint64_t& v) {
                   got.emplace_back(k, v);
                 });
  }
  EXPECT_EQ(got, want);  // emit order within runs, run order across them
  EXPECT_EQ(plane.pairs(), total);
  EXPECT_EQ(plane.wire_bytes(), 8 * total);
  EXPECT_EQ(plane.num_runs(), 0u);  // streaming planes retain nothing
  EXPECT_EQ(plane.spill_events(), 0u);
}

TEST(ShufflePlaneTest, SortedPlaneMergesAndCountsWouldSpills) {
  // Budget below one run's payload: every retained run past the first
  // trips the would-spill check.
  ShufflePlane<uint64_t, uint64_t> plane(
      [](const uint64_t*, const uint64_t*, size_t n) { return uint64_t{8} * n; },
      /*sorted=*/true, SpillPolicy{/*buffer_bytes=*/100});
  auto runs = RandomRuns(99, 3, 40, 8);
  std::vector<Pair> want = StableSortedConcatenation(runs);
  uint64_t resident = 0;
  uint64_t expect_spills = 0;
  for (auto& run : runs) {
    run.SortByKey();
    resident += run.PayloadBytes();
    if (resident > 100) ++expect_spills;
  }
  for (auto& run : runs) {
    plane.Accept(std::move(run), [](const uint64_t&, const uint64_t&) {
      FAIL() << "sorted plane must not stream at Accept";
    });
  }
  EXPECT_EQ(plane.num_runs(), 3u);
  EXPECT_EQ(plane.spill_events(), expect_spills);

  std::vector<Pair> got;
  plane.Merge([&got](const uint64_t& k, const uint64_t& v) {
    got.emplace_back(k, v);
  });
  EXPECT_EQ(got, want);
}

TEST(SpillPolicyTest, ZeroBudgetNeverSpills) {
  SpillPolicy unbounded{0};
  EXPECT_FALSE(unbounded.ShouldSpill(uint64_t{1} << 40));
  SpillPolicy tight{64};
  EXPECT_FALSE(tight.ShouldSpill(64));
  EXPECT_TRUE(tight.ShouldSpill(65));
}

// The two delivery modes are different loops over the same loser tree; the
// stream must be bit-identical on every workload shape -- uniform duplicate
// keys, run-disjoint key ranges (the streak/gallop path), single runs.
TEST(RunMergerTest, BlockwiseDrainMatchesPerPairReplay) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const size_t num_runs = 1 + (seed % 7);
    // Alternate workloads: tiny key domain (heavy ties) vs per-run disjoint
    // ranges (long winner streaks).
    std::vector<ShuffleRun<uint64_t, uint64_t>> runs;
    if (seed % 2 == 0) {
      runs = RandomRuns(seed * 31, num_runs, 500, /*key_domain=*/16);
    } else {
      Rng rng(seed * 31);
      runs.resize(num_runs);
      uint64_t sequence = 0;
      for (size_t r = 0; r < num_runs; ++r) {
        const size_t len = rng.NextBounded(501);
        for (size_t i = 0; i < len; ++i) {
          runs[r].Append(r * 1000 + rng.NextBounded(1000), sequence++);
        }
      }
    }
    for (auto& run : runs) run.SortByKey();

    std::vector<Pair> blockwise, per_pair;
    RunMerger<uint64_t, uint64_t> m1(runs);
    m1.Drain([&blockwise](const uint64_t& k, const uint64_t& v) {
      blockwise.emplace_back(k, v);
    });
    RunMerger<uint64_t, uint64_t> m2(runs);
    m2.DrainPerPair([&per_pair](const uint64_t& k, const uint64_t& v) {
      per_pair.emplace_back(k, v);
    });
    EXPECT_EQ(blockwise, per_pair) << "seed " << seed;
    EXPECT_EQ(blockwise, StableSortedConcatenation(runs)) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Real spilling: merge over a mix of resident and file-backed runs.
// ---------------------------------------------------------------------------

// The satellite property test: a plane under a tiny budget spills real
// files, and Merge still equals stable_sort of the runs' concatenation --
// including empty runs and duplicate keys -- with the spill counters
// reporting the eviction.
TEST(ShufflePlaneTest, MergeWithRealSpillEqualsStableSort) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SpillDir dir;
    ShufflePlane<uint64_t, uint64_t> plane(
        [](const uint64_t*, const uint64_t*, size_t n) { return uint64_t{8} * n; },
        /*sorted=*/true, SpillPolicy{/*buffer_bytes=*/512}, &dir);
    const size_t num_runs = 2 + (seed % 8);
    auto runs = RandomRuns(seed * 131, num_runs, 120, /*key_domain=*/24);
    std::vector<Pair> want = StableSortedConcatenation(runs);
    uint64_t total = 0;
    for (auto& run : runs) {
      total += run.size();
      run.SortByKey();
      plane.Accept(std::move(run), [](const uint64_t&, const uint64_t&) {
        FAIL() << "sorted plane must not stream at Accept";
      });
    }
    if (total * 16 > 512) {
      EXPECT_GT(plane.spill_files(), 0u) << "seed " << seed;
      EXPECT_GT(plane.spill_bytes(), 0u) << "seed " << seed;
    }
    EXPECT_EQ(plane.num_runs(), num_runs);
    EXPECT_LE(plane.resident_bytes(), 512u) << "largest-first eviction";

    std::vector<Pair> got;
    plane.Merge([&got](const uint64_t& k, const uint64_t& v) {
      got.emplace_back(k, v);
    });
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

// Spilling must not change a single delivered bit relative to the unbounded
// (all-resident) plane, for the full merge and for every partition split.
TEST(ShufflePlaneTest, SpilledAndResidentPlanesDeliverIdenticalStreams) {
  for (uint64_t seed : {3u, 17u, 99u}) {
    auto runs = RandomRuns(seed, 6, 200, /*key_domain=*/64);
    for (auto& run : runs) run.SortByKey();

    SpillDir dir;
    ShufflePlane<uint64_t, uint64_t> spilled(
        [](const uint64_t*, const uint64_t*, size_t n) { return uint64_t{8} * n; },
        true, SpillPolicy{256}, &dir);
    ShufflePlane<uint64_t, uint64_t> resident(
        [](const uint64_t*, const uint64_t*, size_t n) { return uint64_t{8} * n; },
        true, SpillPolicy{0}, nullptr);
    for (auto& run : runs) {
      auto copy = run;
      spilled.Accept(std::move(copy), [](const uint64_t&, const uint64_t&) {});
      resident.Accept(std::move(run), [](const uint64_t&, const uint64_t&) {});
    }

    std::vector<Pair> a, b;
    spilled.Merge([&a](const uint64_t& k, const uint64_t& v) { a.emplace_back(k, v); });
    resident.Merge([&b](const uint64_t& k, const uint64_t& v) { b.emplace_back(k, v); });
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

TEST(ShufflePlaneTest, CountingOnlyPlaneWithoutDirNeverWritesFiles) {
  // The pre-external behavior: no SpillDir means would-spill accounting
  // only, runs stay resident.
  ShufflePlane<uint64_t, uint64_t> plane(
      [](const uint64_t*, const uint64_t*, size_t n) { return uint64_t{8} * n; },
      true, SpillPolicy{16}, nullptr);
  auto runs = RandomRuns(5, 3, 40, 8);
  for (auto& run : runs) {
    run.SortByKey();
    plane.Accept(std::move(run), [](const uint64_t&, const uint64_t&) {});
  }
  EXPECT_GT(plane.spill_events(), 0u);
  EXPECT_EQ(plane.spill_files(), 0u);
  EXPECT_EQ(plane.spill_bytes(), 0u);
}

}  // namespace
}  // namespace wavemr
