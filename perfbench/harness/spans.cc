#include "spans.h"

#include <cstdio>

namespace perfbench {

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
      .count();
}

int SpanRecorder::Begin(const char* name, uint64_t id) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_ns = NowNs();
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.id = id;
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  spans_[index].end_ns = NowNs();
  // Spans close in LIFO order; tolerate a recorder toggled mid-span.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
}

int SpanRecorder::Add(const std::string& name, int parent, int64_t start_ns,
                      int64_t end_ns, uint64_t id, bool derived) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = parent;
  s.id = id;
  s.derived = derived;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> SpanRecorder::SelfMsByLayer() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name.substr(0, s.name.find('.'))] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
  }
  return self;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Derived spans get their own track so they never overlap timed ones.
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"id\":%llu}}",
                 i == 0 ? "" : ",\n", s.name.c_str(),
                 s.name.substr(0, s.name.find('.')).c_str(), s.derived ? 2 : 1,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<unsigned long long>(s.id));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
