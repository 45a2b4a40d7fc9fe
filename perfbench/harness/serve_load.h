// The serve side of the benchmark: a wavemr_serve child process and an
// open-loop load generator that talks the wire protocol to it.
#ifndef PERFBENCH_HARNESS_SERVE_LOAD_H_
#define PERFBENCH_HARNESS_SERVE_LOAD_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.h"
#include "core/status.h"
#include "serve/protocol.h"
#include "spans.h"

namespace perfbench {

/// One wavemr_serve process. Start() forks/execs it and waits for its
/// "listening on port N" line; Stop() sends SIGTERM and reaps it. The
/// destructor stops a still-running child, so no process outlives the run.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  wavemr::Status Start(const std::string& binary,
                       const std::vector<std::string>& args);
  /// Stops the child; returns its exit status (0 = clean shutdown).
  int Stop();

  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// Peak resident set of the child in MiB, valid after Stop().
  double peak_rss_mb() const { return peak_rss_mb_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  double peak_rss_mb_ = 0.0;
};

inline constexpr int kQueryConnections = 2;  // rebuilds use one more
inline constexpr uint32_t kTopKCount = 10;   // terms a top-k query asks for

struct LoadOptions {
  int port = 0;
  double seconds = 1.0;
  double qps = 10000.0;      // total over all query connections
  uint64_t domain_size = 1;  // u of the served snapshot
  uint64_t seed = 1;         // query parameters
};

/// Draws the next query of the 70% point / 25% range / 5% top-k mix.
wavemr::QueryRequest NextQuery(wavemr::Rng& rng, uint64_t domain_size);

/// One answered query, kept for the post-run check against in-process
/// estimation on the snapshot version the response names.
struct Answer {
  wavemr::QueryRequest request;
  uint64_t version = 0;
  double estimate = 0.0;                       // kPoint / kRange
  std::vector<wavemr::WCoeff> coefficients;    // kTopK
};

struct LoadResult {
  std::vector<double> latency_ms;   // per query, from its due time
  std::vector<double> late_ms;      // how late each query left the generator
  std::vector<double> publish_ms;   // kRebuild sent -> new version received
  std::vector<uint64_t> published_versions;
  std::vector<Answer> answers;
  uint64_t queries_sent = 0;
  uint64_t rebuilds_sent = 0;
  uint64_t errors = 0;              // error responses, bad frames, lost replies
  uint64_t connect_failures = 0;
  std::string first_error;
};

/// Runs the open-loop schedule: query i is due at t0 + i/qps on connection
/// i mod kQueryConnections (70% point, 25% range, 5% top-k); one kRebuild is
/// due every second on its own connection. Latency is measured from
/// the due time, so a stalled server cannot hide its backlog. One thread,
/// non-blocking sockets.
LoadResult RunOpenLoop(const LoadOptions& options, SpanRecorder& spans);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SERVE_LOAD_H_
