// The async I/O data plane's core pieces in isolation: option parsing and
// validation (the --spill-io surface), the recycling buffer arena, and the
// Submit/Wait contract of both backends.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/io.h"

namespace wavemr {
namespace {

// ---------------------------------------------------------------------------
// ParseIoBackendKind / IoBackendKindName
// ---------------------------------------------------------------------------

TEST(IoBackendKindTest, ParsesEveryFlagSpelling) {
  EXPECT_EQ(*ParseIoBackendKind("sync"), IoBackendKind::kSync);
  EXPECT_EQ(*ParseIoBackendKind("async"), IoBackendKind::kAsync);
  EXPECT_EQ(*ParseIoBackendKind("auto"), IoBackendKind::kAuto);
}

TEST(IoBackendKindTest, RejectsUnknownSpellingWithActionableMessage) {
  auto kind = ParseIoBackendKind("uring");
  ASSERT_FALSE(kind.ok());
  EXPECT_NE(kind.status().ToString().find("sync|async|auto"), std::string::npos)
      << kind.status().ToString();
  EXPECT_NE(kind.status().ToString().find("uring"), std::string::npos);
  EXPECT_FALSE(ParseIoBackendKind("").ok());
  EXPECT_FALSE(ParseIoBackendKind("Sync").ok()) << "case-sensitive like --algo";
}

TEST(IoBackendKindTest, NamesRoundTripThroughParse) {
  for (IoBackendKind kind : {IoBackendKind::kSync, IoBackendKind::kAsync,
                             IoBackendKind::kAuto}) {
    EXPECT_EQ(*ParseIoBackendKind(IoBackendKindName(kind)), kind);
  }
}

TEST(IoOptionsTest, AutoResolvesToAsync) {
  IoOptions options;
  EXPECT_EQ(options.backend, IoBackendKind::kAuto);
  EXPECT_EQ(options.ResolvedBackend(), IoBackendKind::kAsync);
  options.backend = IoBackendKind::kSync;
  EXPECT_EQ(options.ResolvedBackend(), IoBackendKind::kSync);
}

// ---------------------------------------------------------------------------
// IoOptions::Validate: same message style as BuildOptions::Validate.
// ---------------------------------------------------------------------------

TEST(IoOptionsTest, DefaultsValidate) {
  EXPECT_TRUE(IoOptions().Validate().ok());
  EXPECT_EQ(IoOptions().shuffle_buffer_bytes, uint64_t{256} << 20);
}

TEST(IoOptionsTest, QueueDepthBounds) {
  IoOptions options;
  options.queue_depth = 0;
  auto st = options.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("IoOptions.queue_depth"), std::string::npos);
  EXPECT_NE(st.ToString().find("got 0"), std::string::npos) << st.ToString();
  options.queue_depth = 1025;
  EXPECT_FALSE(options.Validate().ok());
  options.queue_depth = 1;
  EXPECT_TRUE(options.Validate().ok());
  options.queue_depth = 1024;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(IoOptionsTest, RetryBudgetBounds) {
  IoOptions options;
  options.retry.max_attempts = 0;
  auto st = options.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("IoOptions.retry.max_attempts"),
            std::string::npos);
  options.retry.max_attempts = 1;
  options.retry.backoff_initial_us = -5;
  EXPECT_FALSE(options.Validate().ok());
  options.retry.backoff_initial_us = 0;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(IoRetryPolicyTest, TransientTableIsExactlyTheDocumentedFour) {
  EXPECT_TRUE(IoRetryPolicy::IsTransient(EINTR));
  EXPECT_TRUE(IoRetryPolicy::IsTransient(EAGAIN));
  EXPECT_TRUE(IoRetryPolicy::IsTransient(ENOSPC));
  EXPECT_TRUE(IoRetryPolicy::IsTransient(ENOBUFS));
  EXPECT_FALSE(IoRetryPolicy::IsTransient(EIO));
  EXPECT_FALSE(IoRetryPolicy::IsTransient(EBADF));
  EXPECT_FALSE(IoRetryPolicy::IsTransient(0));
}

// ---------------------------------------------------------------------------
// IoResult
// ---------------------------------------------------------------------------

TEST(IoResultTest, ToStringCarriesOpErrnoAndDetail) {
  IoResult r;
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.ToString(), "ok");
  r.op = IoResult::Op::kChecksum;
  r.detail = "block 3 of /tmp/run-0";
  const std::string s = r.ToString();
  EXPECT_NE(s.find("spill checksum error"), std::string::npos) << s;
  EXPECT_NE(s.find("block 3"), std::string::npos) << s;
  EXPECT_FALSE(r.ToStatus().ok());
}

// ---------------------------------------------------------------------------
// IoBufferArena
// ---------------------------------------------------------------------------

TEST(IoBufferArenaTest, RecyclesInsteadOfReallocating) {
  IoBufferArena arena;
  {
    IoBuffer b = arena.Acquire(4096);
    ASSERT_TRUE(b);
    EXPECT_GE(b.capacity(), 4096u);
    std::memset(b.data(), 0xAB, 4096);
  }  // lease ends: storage returns to the freelist
  EXPECT_EQ(arena.allocations(), 1u);
  EXPECT_EQ(arena.reuses(), 0u);
  {
    IoBuffer b = arena.Acquire(4096);
    ASSERT_TRUE(b);
  }
  EXPECT_EQ(arena.allocations(), 1u) << "second acquire must reuse";
  EXPECT_EQ(arena.reuses(), 1u);
}

TEST(IoBufferArenaTest, BestFitPrefersSmallestSufficientBuffer) {
  IoBufferArena arena;
  {
    IoBuffer small = arena.Acquire(1024);
    IoBuffer large = arena.Acquire(65536);
  }  // both recycled; freelist holds {1024, 65536}
  ASSERT_EQ(arena.allocations(), 2u);
  IoBuffer b = arena.Acquire(512);
  EXPECT_EQ(b.capacity(), 1024u) << "best fit: the 1 KiB buffer, not 64 KiB";
  IoBuffer c = arena.Acquire(2048);
  EXPECT_EQ(c.capacity(), 65536u) << "1 KiB is too small; take the 64 KiB one";
  EXPECT_EQ(arena.reuses(), 2u);
  EXPECT_EQ(arena.allocations(), 2u);
}

TEST(IoBufferArenaTest, MoveTransfersTheLease) {
  IoBufferArena arena;
  IoBuffer a = arena.Acquire(256);
  std::byte* raw = a.data();
  IoBuffer b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(b.data(), raw);
  b.Release();
  EXPECT_FALSE(b);
  b.Release();  // idempotent
  EXPECT_EQ(arena.reuses() + arena.allocations(), 1u);
}

TEST(IoBufferArenaTest, FreelistIsBounded) {
  IoBufferArena arena;
  {
    std::vector<IoBuffer> held;
    for (size_t i = 0; i < IoBufferArena::kMaxFreeBuffers + 8; ++i) {
      held.push_back(arena.Acquire(64));
    }
  }  // all released; only kMaxFreeBuffers stay parked
  for (size_t i = 0; i < IoBufferArena::kMaxFreeBuffers; ++i) {
    IoBuffer b = arena.Acquire(64);
    b.Release();
    EXPECT_EQ(arena.allocations(), IoBufferArena::kMaxFreeBuffers + 8)
        << "acquire " << i << " should come from the freelist";
  }
}

TEST(IoBufferArenaTest, ConcurrentAcquireReleaseIsSafe) {
  IoBufferArena arena;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&arena, t] {
      for (int i = 0; i < 200; ++i) {
        IoBuffer b = arena.Acquire(static_cast<size_t>(1) << (8 + (i + t) % 4));
        ASSERT_TRUE(b);
        b.data()[0] = std::byte{0x5A};  // touch the lease (ASan watches)
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(arena.allocations() + arena.reuses(), 800u);
}

// ---------------------------------------------------------------------------
// Backends: the Submit/Wait contract.
// ---------------------------------------------------------------------------

TEST(SyncIoBackendTest, SubmitRunsInlineBeforeReturning) {
  SyncIoBackend backend;
  EXPECT_STREQ(backend.name(), "sync");
  const std::thread::id caller = std::this_thread::get_id();
  bool ran = false;
  IoTicket ticket = backend.Submit([&] {
    ran = true;
    EXPECT_EQ(std::this_thread::get_id(), caller) << "sync = inline";
  });
  EXPECT_TRUE(ran) << "job finished before Submit returned";
  EXPECT_TRUE(ticket.valid());
  ticket.Wait();  // immediately satisfied
}

TEST(AsyncIoBackendTest, SubmitOverlapsAndWaitCompletes) {
  IoOptions options;
  options.queue_depth = 2;
  AsyncIoBackend backend(options);
  EXPECT_STREQ(backend.name(), "async");
  std::atomic<int> done{0};
  std::vector<IoTicket> tickets;
  for (int i = 0; i < 16; ++i) {
    tickets.push_back(backend.Submit(
        [&done] { done.fetch_add(1, std::memory_order_relaxed); }));
  }
  for (IoTicket& t : tickets) t.Wait();
  EXPECT_EQ(done.load(), 16);
}

TEST(AsyncIoBackendTest, JobsRunOffTheSubmittingThread) {
  AsyncIoBackend backend;
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id job_thread;
  IoTicket t = backend.Submit([&] { job_thread = std::this_thread::get_id(); });
  t.Wait();
  EXPECT_NE(job_thread, caller);
}

TEST(AsyncIoBackendTest, DestructorJoinsAfterPendingJobs) {
  std::atomic<int> done{0};
  {
    AsyncIoBackend backend;
    std::vector<IoTicket> tickets;
    for (int i = 0; i < 8; ++i) {
      tickets.push_back(backend.Submit(
          [&done] { done.fetch_add(1, std::memory_order_relaxed); }));
    }
    for (IoTicket& t : tickets) t.Wait();
  }  // destructor joins the workers
  EXPECT_EQ(done.load(), 8);
}

TEST(MakeIoBackendTest, BuildsWhatResolvedBackendNames) {
  IoOptions options;
  options.backend = IoBackendKind::kSync;
  EXPECT_STREQ(MakeIoBackend(options)->name(), "sync");
  options.backend = IoBackendKind::kAsync;
  EXPECT_STREQ(MakeIoBackend(options)->name(), "async");
  options.backend = IoBackendKind::kAuto;  // resolves to async
  EXPECT_STREQ(MakeIoBackend(options)->name(), "async");
}

TEST(MakeIoBackendTest, BackendKeepsItsOptions) {
  IoOptions options;
  options.backend = IoBackendKind::kAsync;
  options.queue_depth = 7;
  options.shuffle_buffer_bytes = 4096;
  auto backend = MakeIoBackend(options);
  EXPECT_EQ(backend->options().queue_depth, 7);
  EXPECT_EQ(backend->options().shuffle_buffer_bytes, 4096u);
}

TEST(DefaultSyncIoBackendTest, IsProcessWideAndSync) {
  IoBackend* a = DefaultSyncIoBackend();
  ASSERT_NE(a, nullptr);
  EXPECT_STREQ(a->name(), "sync");
  EXPECT_EQ(a, DefaultSyncIoBackend());
}

}  // namespace
}  // namespace wavemr
