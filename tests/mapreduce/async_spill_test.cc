// The async spill data plane end to end: overlapped spill writes must be
// invisible in every observable (merged stream, counters, files on disk),
// a corrupt spill block must surface exactly when the merge reaches it, the
// buffer arena must actually recycle (the ASan lanes run this file to catch
// use-after-recycle), the submit/collect failpoints must fire on both
// backends, and every exit path -- clean, aborted, failing -- must leave the
// spill directory empty.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include "core/failpoint.h"
#include "core/io.h"
#include "core/rng.h"
#include "data/dataset.h"
#include "mapreduce/job.h"
#include "mapreduce/shuffle.h"
#include "mapreduce/spill.h"

namespace wavemr {
namespace {

namespace fs = std::filesystem;

using TestRun = ShuffleRun<uint64_t, uint64_t>;
using Plane = ShufflePlane<uint64_t, uint64_t>;
using Pair = std::pair<uint64_t, uint64_t>;

IoOptions TestIoOptions(int queue_depth = 4,
                       IoBackendKind backend = IoBackendKind::kAsync) {
  IoOptions options;
  options.backend = backend;
  options.queue_depth = queue_depth;
  options.retry.backoff_initial_us = 0;  // retry tests run instantly
  return options;
}

constexpr IoBackendKind kBothBackends[] = {IoBackendKind::kSync,
                                           IoBackendKind::kAsync};

size_t FilesIn(const fs::path& dir) {
  size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++n;
  }
  return n;
}

class AsyncSpillTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::DisarmAll(); }

  TestRun MakeRun(uint64_t seed, size_t len) {
    Rng rng(seed);
    TestRun run;
    for (size_t i = 0; i < len; ++i) run.Append(rng.NextBounded(1 << 20), i);
    run.SortByKey();
    return run;
  }

  /// Feeds `num_runs` deterministic runs into a fresh plane on `io` with a
  /// budget small enough that most of them spill.
  std::unique_ptr<Plane> FillPlane(SpillDir* dir, IoBackend* io,
                                   size_t num_runs = 8,
                                   size_t run_len = 2000) {
    auto plane = std::make_unique<Plane>(
        [](const uint64_t*, const uint64_t*, size_t n) { return 16 * n; },
        /*sorted=*/true, SpillPolicy{run_len * 16}, dir, io);
    for (uint64_t r = 0; r < num_runs; ++r) {
      plane->Accept(MakeRun(100 + r, run_len),
                    [](const uint64_t&, const uint64_t&) {});
    }
    return plane;
  }

  static std::vector<Pair> Drain(const Plane& plane) {
    std::vector<Pair> out;
    const_cast<Plane&>(plane).Merge(
        [&out](const uint64_t& k, const uint64_t& v) { out.emplace_back(k, v); });
    return out;
  }

  static void FlipByte(const fs::path& path, std::streamoff off, char mask) {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(off);
    char byte;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ mask);
    f.seekp(off);
    f.write(&byte, 1);
  }

  SpillFileInfo WriteGood(SpillDir* dir, const TestRun& run) {
    SpillFileInfo info;
    info.path = dir->NextFilePath("async");
    info.num_pairs = run.size();
    if (!run.empty()) {
      info.min_key = run.keys.front();
      info.max_key = run.keys.back();
    }
    const SpillWriteResult w = WriteSpillFile<uint64_t, uint64_t>(
        info.path, run.keys.data(), run.values.data(), run.size());
    EXPECT_TRUE(w.io.ok()) << w.io.ToString();
    info.file_bytes = w.file_bytes;
    return info;
  }
};

// ---------------------------------------------------------------------------
// Bit-identity: the async plane's every observable matches the sync plane.
// ---------------------------------------------------------------------------

TEST_F(AsyncSpillTest, AsyncPlaneMatchesSyncPlaneBitForBit) {
  SpillDir sync_dir;
  SyncIoBackend sync_io;
  auto sync_plane = FillPlane(&sync_dir, &sync_io);
  const std::vector<Pair> want = Drain(*sync_plane);
  ASSERT_GT(sync_plane->spill_files(), 0u) << "budget must force real spills";

  SpillDir async_dir;
  AsyncIoBackend async_io(TestIoOptions());
  auto async_plane = FillPlane(&async_dir, &async_io);
  const std::vector<Pair> got = Drain(*async_plane);

  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "pair " << i << " diverged";
  }
  // Same spill accounting: what spilled, how much, and how big.
  EXPECT_EQ(async_plane->spill_files(), sync_plane->spill_files());
  EXPECT_EQ(async_plane->spill_bytes(), sync_plane->spill_bytes());
  EXPECT_EQ(async_plane->spill_payload_bytes(),
            sync_plane->spill_payload_bytes());
  EXPECT_EQ(async_plane->spill_events(), sync_plane->spill_events());
  EXPECT_EQ(async_plane->resident_bytes(), sync_plane->resident_bytes());
  EXPECT_EQ(async_plane->spill_fallbacks(), 0u);
}

TEST_F(AsyncSpillTest, OrdinalOrderSurvivesConcurrentWrites) {
  // A deep queue lets many writes race on the workers; collection must
  // still register files in submission (= ordinal) order, which CutForRank
  // depends on for probe/spilled_ index pairing.
  SpillDir dir;
  AsyncIoBackend io(TestIoOptions(/*queue_depth=*/8));
  auto plane = FillPlane(&dir, &io, /*num_runs=*/16, /*run_len=*/3000);
  ASSERT_GT(plane->spill_files(), 4u);

  // Rank probes agree with the merged stream under any cut, which only
  // holds when spilled_[i] pairs with the i-th probe in ordinal order.
  const std::vector<Pair> all = Drain(*plane);
  const uint64_t mid_rank = all.size() / 2;
  const MergeCut<uint64_t> cut = plane->CutForRank(mid_rank);
  std::vector<Pair> head;
  plane->MergeCutRange(MergeCut<uint64_t>{}, /*has_hi=*/true, cut,
                       [&head](const uint64_t& k, const uint64_t& v) {
                         head.emplace_back(k, v);
                       });
  ASSERT_EQ(head.size(), mid_rank);
  for (size_t i = 0; i < head.size(); ++i) {
    ASSERT_EQ(head[i], all[i]) << "cut stream diverged at " << i;
  }
}

// ---------------------------------------------------------------------------
// Read path: corruption surfaces at the block that holds it.
// ---------------------------------------------------------------------------

TEST_F(AsyncSpillTest, PrefetchedBlockCorruptionIsDetected) {
  SpillDir dir;
  AsyncIoBackend io(TestIoOptions());
  TestRun run = MakeRun(7, 3 * 4096 + 100);  // four checksum blocks
  SpillFileInfo info = WriteGood(&dir, run);
  // Corrupt a key byte in the *third* block: the two healthy blocks before
  // it are served, and the CRC failure surfaces exactly when NextBlock
  // reaches the corrupt one.
  FlipByte(info.path,
           static_cast<std::streamoff>(kSpillHeaderBytes + 2 * 4096 * 8 + 24),
           0x01);
  FileRunCursor<uint64_t, uint64_t> cursor(info, 0, info.num_pairs, &io);
  const uint64_t* k = nullptr;
  const uint64_t* v = nullptr;
  uint64_t consumed = 0;
  try {
    for (uint64_t got; (got = cursor.NextBlock(&k, &v)) > 0;) consumed += got;
    FAIL() << "corrupt block read back without error";
  } catch (const SpillIoError& e) {
    EXPECT_EQ(e.io().op, IoResult::Op::kChecksum) << e.what();
    EXPECT_EQ(consumed, 2 * 4096u)
        << "both healthy blocks served before the corrupt one failed";
  }
}

// ---------------------------------------------------------------------------
// Arena: buffers recycle across the merge, and the lease discipline holds
// (this test is in the ASan lane: a use-after-recycle would be a heap error).
// ---------------------------------------------------------------------------

TEST_F(AsyncSpillTest, ArenaRecyclesBuffersAcrossBlocks) {
  SpillDir dir;
  AsyncIoBackend io(TestIoOptions(/*queue_depth=*/2));
  TestRun run = MakeRun(10, 8 * 4096);
  SpillFileInfo info = WriteGood(&dir, run);
  // Two cursors in turn: the first leases one buffer per column for all 8
  // blocks, the second gets both back from the freelist.
  for (int pass = 0; pass < 2; ++pass) {
    FileRunCursor<uint64_t, uint64_t> cursor(info, 0, info.num_pairs, &io);
    const uint64_t* k = nullptr;
    const uint64_t* v = nullptr;
    uint64_t i = 0;
    for (uint64_t got; (got = cursor.NextBlock(&k, &v)) > 0;) {
      // Touch every served byte while the lease is live: under ASan a
      // recycled-too-early buffer turns this into a hard failure.
      for (uint64_t j = 0; j < got; ++j, ++i) {
        ASSERT_EQ(k[j], run.keys[i]);
        ASSERT_EQ(v[j], run.values[i]);
      }
    }
    ASSERT_EQ(i, run.size());
  }
  EXPECT_EQ(io.arena().allocations(), 2u)
      << "one lease per column, not one per block or per cursor";
  EXPECT_EQ(io.arena().reuses(), 2u) << "the second cursor recycled both";
}

// ---------------------------------------------------------------------------
// Exit paths: the spill directory is empty no matter how the round ends.
// ---------------------------------------------------------------------------

TEST_F(AsyncSpillTest, CleanExitLeavesSpillDirEmpty) {
  SpillDir dir;
  AsyncIoBackend io(TestIoOptions());
  {
    auto plane = FillPlane(&dir, &io);
    ASSERT_GT(plane->spill_files(), 0u);
    ASSERT_TRUE(dir.created());
    EXPECT_GT(FilesIn(dir.path()), 0u);
    (void)Drain(*plane);
  }  // plane destructor: EnsureSpillsComplete + DeleteSpillFiles
  EXPECT_EQ(FilesIn(dir.path()), 0u);
}

TEST_F(AsyncSpillTest, AbortWithWritesInFlightLeavesSpillDirEmpty) {
  SpillDir dir;
  AsyncIoBackend io(TestIoOptions(/*queue_depth=*/8));
  {
    // Destroy the plane right after Accept, with writes still possibly in
    // flight and no merge ever run -- the mid-round unwind path.
    auto plane = FillPlane(&dir, &io, /*num_runs=*/12, /*run_len=*/4000);
    (void)plane;
  }
  ASSERT_TRUE(dir.created());
  EXPECT_EQ(FilesIn(dir.path()), 0u)
      << "in-flight async writes must land and be deleted before the plane dies";
}

TEST_F(AsyncSpillTest, ReducerExceptionUnwindLeavesSpillDirEmpty) {
  SpillDir dir;
  AsyncIoBackend io(TestIoOptions());
  try {
    auto plane = FillPlane(&dir, &io);
    plane->Merge([](const uint64_t&, const uint64_t&) {
      throw std::runtime_error("reducer died");
    });
    FAIL() << "merge should have rethrown";
  } catch (const std::runtime_error&) {
  }
  ASSERT_TRUE(dir.created());
  EXPECT_EQ(FilesIn(dir.path()), 0u);
}

TEST_F(AsyncSpillTest, ExhaustedRetriesLeaveSpillDirEmpty) {
  ASSERT_TRUE(Failpoints::ArmFromSpec("spill.write.write=error:ENOSPC").ok());
  SpillDir dir;
  AsyncIoBackend io(TestIoOptions());
  {
    auto plane = FillPlane(&dir, &io);
    EXPECT_EQ(plane->spill_files(), 0u);
    EXPECT_GT(plane->spill_fallbacks(), 0u);
    EXPECT_GT(plane->spill_retries(), 0u) << "ENOSPC is transient: retried "
                                             "on the worker before pinning";
    Failpoints::DisarmAll();
    // Degraded but correct: the pinned-resident plane still merges fine.
    const std::vector<Pair> got = Drain(*plane);
    EXPECT_EQ(got.size(), 8u * 2000u);
  }
  if (dir.created()) {
    EXPECT_EQ(FilesIn(dir.path()), 0u);
  }
}

// ---------------------------------------------------------------------------
// The submit/collect failpoint sites fire on both backends.
// ---------------------------------------------------------------------------

TEST_F(AsyncSpillTest, SubmitFailpointPinsRunBeforeSubmission) {
  for (IoBackendKind kind : kBothBackends) {
    SCOPED_TRACE(IoBackendKindName(kind));
    ASSERT_TRUE(Failpoints::ArmFromSpec("spill.write.submit=error:EIO").ok());
    SpillDir dir;
    auto io = MakeIoBackend(TestIoOptions(/*queue_depth=*/4, kind));
    auto plane = FillPlane(&dir, io.get());
    EXPECT_EQ(plane->spill_files(), 0u) << "every submission was rejected";
    EXPECT_GT(plane->spill_fallbacks(), 0u);
    EXPECT_EQ(plane->spill_retries(), 0u) << "rejected before any write ran";
    Failpoints::DisarmAll();
    EXPECT_EQ(Drain(*plane).size(), 8u * 2000u);
    if (dir.created()) {
      EXPECT_EQ(FilesIn(dir.path()), 0u);
    }
  }
}

TEST_F(AsyncSpillTest, CompleteFailpointRemovesFileAndFallsBack) {
  for (IoBackendKind kind : kBothBackends) {
    SCOPED_TRACE(IoBackendKindName(kind));
    ASSERT_TRUE(Failpoints::ArmFromSpec("spill.write.complete=once:EIO").ok());
    SpillDir dir;
    auto io = MakeIoBackend(TestIoOptions(/*queue_depth=*/4, kind));
    auto plane = FillPlane(&dir, io.get());
    const uint64_t files = plane->spill_files();  // forces collection
    EXPECT_GT(plane->spill_fallbacks(), 0u) << "one completion was rejected";
    Failpoints::DisarmAll();
    // On-disk file count matches the registered count: the rejected write's
    // file was removed at collection, not leaked.
    ASSERT_TRUE(dir.created());
    EXPECT_EQ(FilesIn(dir.path()), files);
    // And the plane still merges everything (rejected run went resident).
    EXPECT_EQ(Drain(*plane).size(), 8u * 2000u);
  }
}

// ---------------------------------------------------------------------------
// Full-engine smoke: MrEnv wires IoOptions through to the plane.
// ---------------------------------------------------------------------------

class EmitManyMapper : public MapperBase<EmitManyMapper, uint64_t, uint64_t> {
 public:
  template <typename Ctx>
  void RunImpl(Ctx& ctx) {
    for (uint64_t i = 0; i < 512; ++i) {
      ctx.Emit((ctx.split_id() * 977 + i * 131) % 2048, i);
    }
  }
};

class CollectingReducer : public Reducer<uint64_t, uint64_t> {
 public:
  void Absorb(const uint64_t& k, const uint64_t& v,
              ReduceContext<uint64_t, uint64_t>&) override {
    pairs.emplace_back(k, v);
  }
  void Finish(ReduceContext<uint64_t, uint64_t>&) override {}
  std::vector<Pair> pairs;
};

std::vector<Pair> RunSpillingJob(MrEnv* env) {
  CollectingReducer reducer;
  JobPlan<uint64_t, uint64_t> plan;
  plan.name = "async-identity";
  plan.mapper_factory = [](uint64_t) {
    return std::make_unique<EmitManyMapper>();
  };
  plan.reducer = &reducer;
  plan.sorted_shuffle = true;
  std::vector<std::vector<uint64_t>> splits(8, std::vector<uint64_t>{1, 2, 3});
  InMemoryDataset ds(std::move(splits), 2048);
  RunRound(plan, ds, env);
  return std::move(reducer.pairs);
}

TEST_F(AsyncSpillTest, MrEnvRoundMatchesAcrossBackendsAndShuffleBufferKnob) {
  MrEnv sync_env;
  sync_env.io.backend = IoBackendKind::kSync;
  sync_env.io.shuffle_buffer_bytes = 2048;  // small enough to force spills
  const auto want = RunSpillingJob(&sync_env);
  ASSERT_GT(sync_env.stats.counters.Get("shuffle_spill_files"), 0u);

  MrEnv async_env;
  async_env.io.backend = IoBackendKind::kAsync;
  async_env.io.shuffle_buffer_bytes = 2048;
  const auto got = RunSpillingJob(&async_env);

  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "pair " << i << " diverged";
  }
  EXPECT_EQ(async_env.stats.counters.values(),
            sync_env.stats.counters.values());
  // Both spill dirs end the test empty (their planes died with the rounds).
  if (sync_env.spill_dir.created()) {
    EXPECT_EQ(FilesIn(sync_env.spill_dir.path()), 0u);
  }
  if (async_env.spill_dir.created()) {
    EXPECT_EQ(FilesIn(async_env.spill_dir.path()), 0u);
  }
}

}  // namespace
}  // namespace wavemr
