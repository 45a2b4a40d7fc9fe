// In-memory span recorder for the traced run. The harness opens a span
// around every call it makes into a wavemr layer (name, start, end, parent,
// build/query id); spans stay in memory and are written out once, as Chrome
// trace-event JSON, when the traced run ends. Disabled, a span is one branch.
#ifndef PERFBENCH_HARNESS_SPANS_H_
#define PERFBENCH_HARNESS_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;   // "<layer>.<call>", e.g. "wavelet.sparse_haar"
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;    // index into spans(), -1 at the top level
    uint64_t id = 0;    // build or query id (0 = none)
    bool derived = false;  // placed from RoundStats durations, not timed here
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Turns recording on/off (the traced run alternates by pass).
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span; returns its index or -1 when disabled.
  int Begin(const char* name, uint64_t id = 0);
  void End(int index);
  /// Adds a finished span with explicit times: overlapping async work (one
  /// span per in-flight query) or, with `derived`, a phase whose duration
  /// the library measured (RoundStats) laid out end to end by the caller.
  /// Returns the new span's index, or -1 when disabled.
  int Add(const std::string& name, int parent, int64_t start_ns,
          int64_t end_ns, uint64_t id, bool derived = false);
  /// Nanoseconds since the recorder was created (valid when disabled too).
  int64_t NowNs() const;

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time per layer (the name part before the first '.') in ms: each
  /// span's duration minus the part its direct children cover, summed.
  std::map<std::string, double> SelfMsByLayer() const;
  /// Writes the spans as a Chrome trace-event JSON file (opens in Perfetto).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: `ScopedSpan s(rec, "data.scan");`.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, uint64_t id = 0)
      : rec_(rec), index_(rec.Begin(name, id)) {}
  ~ScopedSpan() { rec_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  SpanRecorder& rec_;
  int index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SPANS_H_
