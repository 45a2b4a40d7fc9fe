#include "core/io.h"

#include <algorithm>

namespace wavemr {

const char* IoBackendKindName(IoBackendKind kind) {
  switch (kind) {
    case IoBackendKind::kSync: return "sync";
    case IoBackendKind::kAsync: return "async";
    case IoBackendKind::kAuto: return "auto";
  }
  return "unknown";
}

StatusOr<IoBackendKind> ParseIoBackendKind(const std::string& name) {
  if (name == "sync") return IoBackendKind::kSync;
  if (name == "async") return IoBackendKind::kAsync;
  if (name == "auto") return IoBackendKind::kAuto;
  return Status::InvalidArgument(
      "spill-io backend must be one of sync|async|auto; got \"" + name + "\"");
}

Status IoOptions::Validate() const {
  if (queue_depth < 1 || queue_depth > 1024) {
    return Status::InvalidArgument(
        "IoOptions.queue_depth must be in [1, 1024] (spill writes in flight); "
        "got " +
        std::to_string(queue_depth));
  }
  if (shuffle_buffer_bytes == 0) {
    return Status::InvalidArgument(
        "IoOptions.shuffle_buffer_bytes must be > 0 (the shuffle needs at "
        "least one buffered run before spilling)");
  }
  if (retry.max_attempts < 1) {
    return Status::InvalidArgument(
        "IoOptions.retry.max_attempts must be >= 1 (total tries, not "
        "retries); got " +
        std::to_string(retry.max_attempts));
  }
  if (retry.backoff_initial_us < 0) {
    return Status::InvalidArgument(
        "IoOptions.retry.backoff_initial_us must be >= 0; got " +
        std::to_string(retry.backoff_initial_us));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// IoBufferArena
// ---------------------------------------------------------------------------

void IoBuffer::Release() {
  if (arena_ != nullptr && data_ != nullptr) {
    arena_->Recycle(std::move(data_), capacity_);
  }
  arena_ = nullptr;
  data_.reset();
  capacity_ = 0;
}

IoBuffer IoBufferArena::Acquire(size_t min_bytes) {
  if (min_bytes == 0) min_bytes = 1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // free_ is sorted by capacity: the first entry that fits is the best fit.
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->first >= min_bytes) {
        const size_t capacity = it->first;
        std::unique_ptr<std::byte[]> data = std::move(it->second);
        free_.erase(it);
        reuses_.fetch_add(1, std::memory_order_relaxed);
        return IoBuffer(this, std::move(data), capacity);
      }
    }
  }
  allocations_.fetch_add(1, std::memory_order_relaxed);
  return IoBuffer(this, std::make_unique<std::byte[]>(min_bytes), min_bytes);
}

void IoBufferArena::Recycle(std::unique_ptr<std::byte[]> data,
                            size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  if (free_.size() >= kMaxFreeBuffers) return;  // drop: storage frees here
  auto it = std::lower_bound(
      free_.begin(), free_.end(), capacity,
      [](const auto& entry, size_t cap) { return entry.first < cap; });
  free_.insert(it, std::make_pair(capacity, std::move(data)));
}

// ---------------------------------------------------------------------------
// SyncIoBackend
// ---------------------------------------------------------------------------

SyncIoBackend::SyncIoBackend(IoOptions options)
    : IoBackend(std::move(options)) {}

IoTicket SyncIoBackend::Submit(std::function<void()> job) {
  job();
  std::promise<void> done;
  done.set_value();
  return IoTicket(done.get_future());
}

// ---------------------------------------------------------------------------
// AsyncIoBackend
// ---------------------------------------------------------------------------

AsyncIoBackend::AsyncIoBackend(IoOptions options)
    : IoBackend(std::move(options)) {
  // One worker per in-flight slot keeps the queue drained at full depth;
  // clamp so a large --io-queue-depth bounds memory, not thread count.
  const int workers =
      std::clamp(this->options().queue_depth, 1, 16);
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AsyncIoBackend::~AsyncIoBackend() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

IoTicket AsyncIoBackend::Submit(std::function<void()> job) {
  // packaged_task is move-only; std::function needs copyable callables.
  auto task = std::make_shared<std::packaged_task<void()>>(std::move(job));
  IoTicket ticket(task->get_future());
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.emplace_back([task] { (*task)(); });
  }
  cv_.notify_one();
  return ticket;
}

void AsyncIoBackend::WorkerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || queue_head_ < queue_.size(); });
      if (queue_head_ >= queue_.size()) {
        if (stop_) return;
        continue;
      }
      job = std::move(queue_[queue_head_]);
      ++queue_head_;
      if (queue_head_ == queue_.size()) {
        queue_.clear();
        queue_head_ = 0;
      }
    }
    job();  // jobs never throw (IoBackend contract)
  }
}

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

std::unique_ptr<IoBackend> MakeIoBackend(const IoOptions& options) {
  switch (options.ResolvedBackend()) {
    case IoBackendKind::kAsync:
      return std::make_unique<AsyncIoBackend>(options);
    case IoBackendKind::kSync:
    case IoBackendKind::kAuto:  // ResolvedBackend never returns kAuto
      break;
  }
  return std::make_unique<SyncIoBackend>(options);
}

IoBackend* DefaultSyncIoBackend() {
  static SyncIoBackend* backend = new SyncIoBackend();
  return backend;
}

}  // namespace wavemr
