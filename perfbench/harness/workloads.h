// The four named workloads and the state one run of them carries. Builds go
// through BuildWaveletHistogram; the mapreduce layer is read from the
// JobStats each build returns; the serve workload talks to a wavemr_serve
// child process.
#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check.h"
#include "common.h"
#include "histogram/builder.h"
#include "serve/serve_main.h"
#include "serve_load.h"
#include "spans.h"

namespace perfbench {

inline constexpr size_t kTerms = 30;           // the paper's default k
inline constexpr double kServeEpsilon = 0.001;  // served TwoLevel-S builds

struct Workload {
  std::string name;
  wavemr::DataArgs data;                      // flags of the generated dataset
  std::vector<wavemr::AlgorithmKind> algos;   // one pass builds each once
  wavemr::BuildOptions build;
  wavemr::AlgorithmKind primary;  // its cheapest build: map speedup, queries
  bool serve = false;
};

wavemr::StatusOr<Workload> MakeWorkload(const RunConfig& cfg);

/// One finished, checked build.
struct BuildRecord {
  wavemr::AlgorithmKind kind;
  int threads = 1;
  double wall_ms = 0.0;
  bool traced = false;   // span recorder was on during the build
  int pass = -1;         // measuring pass, -1 for layer-sweep builds
  uint64_t read_bytes = 0;  // bytes the process read during the build
  size_t spans = 0;         // spans the recorder kept for this build
  wavemr::BuildResult result;
};

/// One open-loop session against a wavemr_serve process, after checking.
struct ServeSession {
  LoadResult load;
  wavemr::ServeStats before;       // kStats before the load
  wavemr::ServeStats after;        // and after it
  uint64_t mismatches = 0;         // answers unequal to in-process estimates
  double served_sse_ratio = 0.0;   // of version 1, the initial build
};

struct Run {
  explicit Run(const RunConfig& c, Workload wl)
      : cfg(c), w(std::move(wl)), spans(c.trace) {}

  RunConfig cfg;
  Workload w;
  SpanRecorder spans;
  RunResult out;
  std::unique_ptr<wavemr::Dataset> dataset;
  Reference ref;
  std::vector<double> setup_s;        // the end-to-end setup measurements
  std::vector<double> materialize_s;  // each dataset generation + warm-up
  std::vector<BuildRecord> builds;
  std::map<wavemr::AlgorithmKind, uint64_t> digests;  // first build's bits
  std::map<wavemr::AlgorithmKind, uint64_t> comm;     // first build's bytes
  std::map<wavemr::AlgorithmKind, double> sse_ratio;
  std::optional<ServeSession> session;  // the serve workload's measured one
  uint64_t next_id = 1;
};

/// Builds `kind` on the run's dataset, times it, checks it against the
/// reference and the first build's digest, and appends it to run.builds.
/// Returns false when the build failed (nothing is appended).
bool BuildAndCheck(Run& run, wavemr::AlgorithmKind kind,
                   const wavemr::BuildOptions& options, int pass);

bool IsExact(wavemr::AlgorithmKind kind);
/// Lower-case display name ("send-v", "twolevel-s") for metric names.
std::string Slug(wavemr::AlgorithmKind kind);

/// The served dataset's build options (what wavemr_serve's kRebuild runs).
wavemr::BuildOptions ServedBuildOptions(const Run& run, uint64_t seed);

/// Starts wavemr_serve on the workload's dataset; returns false (and counts
/// a failure) when it does not come up.
bool StartServer(Run& run, ServerProcess* server);

/// True when a served answer equals, bit for bit, in-process estimation on
/// `snapshot` (the version the answer names).
bool AnswerMatches(const Answer& answer, const wavemr::HistogramSnapshot& snapshot);

/// Runs an open-loop session against `server` and checks every answer
/// against in-process estimation on the snapshot version it names.
ServeSession RunServeSession(Run& run, ServerProcess* server, double seconds);

/// Creates the run's in-process copy of the workload's dataset `times`
/// times, keeping the last and timing each into run.materialize_s. Warms
/// the key cache. Returns false on a failure.
bool MakeRunDataset(Run& run, int times);

/// Answers `batches` x 256 in-process queries (the serve workload's mix) on
/// `snapshot`, timing each one; appends the latencies.
void InProcessQueries(const wavemr::HistogramSnapshot& snapshot, uint64_t seed,
                      int batches, std::vector<double>* per_query_ms);

/// Traced runs: measures every layer on the workload's inputs and adds the
/// per-layer metrics (layers.cc).
void MeasureLayers(Run& run);

/// Runs the configured workload; fills run-level metrics and notes.
void RunWorkload(Run& run);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
