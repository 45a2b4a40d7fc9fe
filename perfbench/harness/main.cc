// perfbench_harness: runs one named workload of the wavemr benchmark and
// prints its report, ending with one JSON line:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// Untraced runs (--trace=0) report the end-to-end metrics; traced runs
// (--trace=1) report the per-layer metrics and write a Chrome trace.
//
//   perfbench_harness --workload=exact-zipf --seed=1 --seconds=10 --trace=0
//       --serve-bin=PATH [--scale=small] [--trace-out=FILE] [--commit=ID]
//   perfbench_harness --perturb-check      # the correctness gate's self-test
//
// Exit code: 0 when every output checked out, 1 on a correctness failure,
// 2 on bad usage.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/cpu_features.h"
#include "core/io.h"
#include "core/thread_pool.h"
#include "serve/estimator.h"
#include "workloads.h"

namespace perfbench {
namespace {

bool Flag(const char* arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload=NAME "
               "--seed=N --seconds=S --trace=0|1 --serve-bin=PATH [--scale=small] "
               "[--trace-out=FILE] [--commit=ID]\n"
               "       perfbench_harness --perturb-check\n",
               why);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// The run header: enough to tell two results apart by machine and build.
void PrintHeader(const RunConfig& cfg, const Workload& w, const std::string& commit) {
  const char* build_type = PERFBENCH_BUILD_TYPE;
  const bool release = std::strcmp(build_type, "Release") == 0;
  std::printf(
      "# header {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"scale\": %s, \"nproc\": %d, \"threads\": %d, \"simd_tier\": %s, "
      "\"spill_io\": %s, \"build_type\": %s, \"ipo\": %s, \"commit\": %s}\n",
      JsonString(cfg.workload).c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.seconds, cfg.trace ? 1 : 0, cfg.scale == Scale::kSmall ? "\"small\"" : "\"full\"",
      wavemr::ThreadPool::DefaultThreadCount(), cfg.threads,
      JsonString(wavemr::SimdTierName(wavemr::ActiveSimdTier())).c_str(),
      JsonString(wavemr::IoBackendKindName(w.build.io.ResolvedBackend())).c_str(),
      JsonString(build_type).c_str(), PERFBENCH_IPO ? "true" : "false",
      JsonString(commit).c_str());
  if (!release) std::printf("# WARNING: not a Release build; timings are not comparable\n");
}

int PrintResult(const RunResult& r) {
  bool finite = true;
  std::string metrics;
  for (const auto& [name, m] : r.metrics) {
    if (!metrics.empty()) metrics += ", ";
    finite = finite && std::isfinite(m.value);
    metrics += JsonString(name) + ": {\"value\": " +
               (std::isfinite(m.value) ? Sprintf("%.17g", m.value) : std::string("null")) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  const bool correct = r.failed == 0 && r.attempted > 0 && finite;
  if (!finite) std::printf("FAIL: a metric is not a finite number\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return correct ? 0 : 1;
}

// The gate must catch one wrong coefficient: perturb a correct exact build
// by one part in a million and by one ulp-sized index swap, and check both
// are rejected while the unperturbed build passes.
int PerturbCheck() {
  RunConfig cfg;
  cfg.workload = "exact-zipf";
  cfg.scale = Scale::kSmall;
  cfg.threads = wavemr::ThreadPool::DefaultThreadCount();
  auto w = MakeWorkload(cfg);
  Run run(cfg, std::move(*w));
  if (!MakeRunDataset(run, 1)) return 1;
  run.ref = ComputeReference(*run.dataset, kTerms);
  if (!BuildAndCheck(run, wavemr::AlgorithmKind::kSendV, run.w.build, 0)) return 1;
  const wavemr::WaveletHistogram& good = run.builds.back().result.histogram;
  const bool good_ok = CheckExact(good, run.ref).ok;

  std::vector<wavemr::WCoeff> coeffs = good.coefficients();
  coeffs[coeffs.size() / 2].value *= 1.0 + 1e-6;
  const wavemr::WaveletHistogram bad_value(good.domain_size(), coeffs);
  coeffs = good.coefficients();
  // Replace the smallest retained term by a coefficient outside the top k.
  size_t smallest = 0;
  for (size_t i = 0; i < coeffs.size(); ++i) {
    if (std::fabs(coeffs[i].value) < std::fabs(coeffs[smallest].value)) smallest = i;
  }
  uint64_t outside = 1;
  while (std::any_of(coeffs.begin(), coeffs.end(),
                     [outside](const wavemr::WCoeff& c) { return c.index == outside; }) ||
         std::fabs(run.ref.dense[outside]) >= run.ref.kth_magnitude) {
    ++outside;
  }
  coeffs[smallest] = wavemr::WCoeff{outside, run.ref.dense[outside]};
  const wavemr::WaveletHistogram bad_index(good.domain_size(), coeffs);

  const bool value_caught = !CheckExact(bad_value, run.ref).ok;
  const bool index_caught = !CheckExact(bad_index, run.ref).ok;
  const bool digest_moves = Digest(bad_value) != Digest(good);
  // The serve check must pass a correct answer and reject one off by one ulp.
  const wavemr::HistogramSnapshot snap = wavemr::HistogramSnapshot::FromHistogram(good);
  Answer answer;
  answer.request.op = wavemr::QueryOp::kRange;
  answer.request.range_hi = snap.domain_size() / 3;
  answer.estimate = wavemr::RangeSum(snap, 0, answer.request.range_hi);
  const bool answer_ok = AnswerMatches(answer, snap);
  answer.estimate = std::nextafter(answer.estimate, HUGE_VAL);
  const bool wire_caught = answer_ok && !AnswerMatches(answer, snap);
  std::printf("perturb-check: unperturbed build %s; perturbed value %s; foreign index %s; "
              "digest %s; one-ulp served answer %s\n",
              good_ok ? "passes" : "FAILS", value_caught ? "caught" : "MISSED",
              index_caught ? "caught" : "MISSED", digest_moves ? "changes" : "UNCHANGED",
              wire_caught ? "caught" : "MISSED");
  return good_ok && value_caught && index_caught && digest_moves && wire_caught ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  cfg.threads = wavemr::ThreadPool::DefaultThreadCount();
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (std::strcmp(argv[i], "--perturb-check") == 0) return PerturbCheck();
    if (Flag(argv[i], "workload", &v)) {
      cfg.workload = v;
    } else if (Flag(argv[i], "seed", &v)) {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(argv[i], "seconds", &v)) {
      cfg.seconds = std::atof(v.c_str());
    } else if (Flag(argv[i], "trace", &v)) {
      cfg.trace = v == "1";
    } else if (Flag(argv[i], "scale", &v)) {
      if (v != "small" && v != "full") return Usage("--scale is small|full");
      cfg.scale = v == "small" ? Scale::kSmall : Scale::kFull;
    } else if (Flag(argv[i], "serve-bin", &v)) {
      cfg.serve_bin = v;
    } else if (Flag(argv[i], "trace-out", &v)) {
      cfg.trace_out = v;
    } else if (Flag(argv[i], "commit", &v)) {
      commit = v;
    } else {
      return Usage((std::string("unknown argument ") + argv[i]).c_str());
    }
  }
  if (cfg.seconds <= 0) return Usage("--seconds must be positive");
  if (cfg.serve_bin.empty()) return Usage("--serve-bin is required");
  auto workload = MakeWorkload(cfg);
  if (!workload.ok()) return Usage(workload.status().ToString().c_str());
  PrintHeader(cfg, *workload, commit);
  std::fflush(stdout);

  Run run(cfg, std::move(*workload));
  RunWorkload(run);
  for (const std::string& line : run.out.notes) std::printf("%s\n", line.c_str());
  std::printf("failed_frac %.6g ratio  (%llu failed of %llu attempted)\n",
              run.out.attempted ? static_cast<double>(run.out.failed) / run.out.attempted : 1.0,
              static_cast<unsigned long long>(run.out.failed),
              static_cast<unsigned long long>(run.out.attempted));
  for (const auto& [name, m] : run.out.metrics) {
    std::printf("%-36s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  return PrintResult(run.out);
}
