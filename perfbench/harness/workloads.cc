#include "workloads.h"

#include <sys/resource.h>

#include <bit>
#include <cstdio>
#include <future>

#include "core/bitops.h"
#include "core/thread_pool.h"
#include "serve/client.h"
#include "serve/estimator.h"

namespace perfbench {

using wavemr::AlgorithmKind;
using wavemr::BuildOptions;
using wavemr::HistogramSnapshot;

namespace {

constexpr int kSetups = 3;            // setup_s is the median of these
constexpr int kQueryBatches = 16;     // in-process query batches per build
constexpr char kHost[] = "127.0.0.1";

}  // namespace

std::string Slug(AlgorithmKind kind) {
  std::string slug = wavemr::AlgorithmName(kind);
  for (char& ch : slug) ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  return slug;
}

bool IsExact(AlgorithmKind kind) {
  return kind == AlgorithmKind::kSendV || kind == AlgorithmKind::kSendCoef ||
         kind == AlgorithmKind::kHWTopk;
}

wavemr::StatusOr<Workload> MakeWorkload(const RunConfig& cfg) {
  const bool small = cfg.scale == Scale::kSmall;
  Workload w;
  w.name = cfg.workload;
  w.data.generate = "zipf";
  w.data.n = small ? uint64_t{1} << 18 : uint64_t{1} << 22;
  w.data.u = uint64_t{1} << 17;
  w.data.splits = small ? 16 : 64;
  w.data.alpha = 1.1;
  w.data.seed = cfg.seed;
  BuildOptions& b = w.build;
  b.k = kTerms;
  b.seed = cfg.seed;
  b.threads = cfg.threads;
  if (w.name == "exact-zipf") {
    w.algos = {AlgorithmKind::kHWTopk, AlgorithmKind::kSendCoef, AlgorithmKind::kSendV};
    w.primary = AlgorithmKind::kSendV;
  } else if (w.name == "skew-spill") {
    w.data.alpha = 1.2;
    w.algos = {AlgorithmKind::kSendV};
    w.primary = AlgorithmKind::kSendV;
    b.force_sorted_shuffle = true;
    b.send_v_emit_per_record = true;
    b.send_v_disable_combiner = true;
    b.reduce_tasks = cfg.threads;
    // About 1/8 of the per-record pair payload, so the merge reads spill files.
    b.io.shuffle_buffer_bytes = small ? uint64_t{512} << 10 : uint64_t{8} << 20;
  } else if (w.name == "approx-wide") {
    w.data.u = small ? uint64_t{1} << 18 : uint64_t{1} << 20;
    b.epsilon = small ? 0.004 : 0.001;  // samples about a quarter of n
    w.algos = {AlgorithmKind::kTwoLevelS, AlgorithmKind::kSendSketch};
    w.primary = AlgorithmKind::kTwoLevelS;
  } else if (w.name == "serve-rebuild") {
    w.serve = true;
    w.primary = AlgorithmKind::kTwoLevelS;
    b.epsilon = small ? 0.004 : kServeEpsilon;  // as ServedBuildOptions
  } else {
    return wavemr::Status::InvalidArgument(
        "unknown workload '" + w.name +
        "' (exact-zipf|skew-spill|approx-wide|serve-rebuild)");
  }
  // Scaled analogue of the paper's 20 KB * log2(u) sketch budget, as in the
  // perf-smoke bench, so Send-Sketch stays smaller than the data.
  b.gcs.total_bytes = 2048 * wavemr::Log2Floor(w.data.u);
  return w;
}

BuildOptions ServedBuildOptions(const Run& run, uint64_t seed) {
  wavemr::BuildArgs args;
  args.algo = "twolevel-s";
  args.k = kTerms;
  args.eps = run.cfg.scale == Scale::kSmall ? 0.004 : kServeEpsilon;
  args.threads = run.cfg.threads;
  return args.ToBuildOptions(seed);
}

bool MakeRunDataset(Run& run, int times) {
  uint64_t first_checksum = 0;
  for (int i = 0; i < times; ++i) {
    run.dataset.reset();
    const auto t0 = Clock::now();
    uint64_t checksum = 0;
    {
      ScopedSpan span(run.spans, "data.materialize");
      auto ds = wavemr::MakeDataset(run.w.data);
      if (!ds.ok()) {
        run.out.Count(false);
        run.out.Note("FAIL dataset: " + ds.status().ToString());
        return false;
      }
      run.dataset = std::move(*ds);
      // First touch generates each split's keys; scan them all in parallel
      // the way the map phase would.
      wavemr::ThreadPool pool(run.cfg.threads);
      std::vector<std::future<uint64_t>> sums;
      const wavemr::Dataset& d = *run.dataset;
      for (uint64_t j = 0; j < d.info().num_splits; ++j) {
        sums.push_back(pool.Submit([&d, j] {
          uint64_t s = 0;
          wavemr::ForEachKeyBatch(d, j, [&s](const uint64_t* keys, uint64_t n) {
            for (uint64_t i = 0; i < n; ++i) s += keys[i] * 0x9e3779b97f4a7c15ULL;
          });
          return s;
        }));
      }
      for (auto& f : sums) checksum += f.get();
    }
    run.materialize_s.push_back(MsSince(t0) / 1e3);
    if (i == 0) first_checksum = checksum;
    if (checksum != first_checksum) {
      run.out.Count(false);
      run.out.Note("FAIL dataset: regenerated keys differ (same seed)");
      return false;
    }
  }
  return true;
}

namespace {

// Lays the library-measured phases of each round out as derived spans under
// the build span: <layer>.<round> with mapreduce.map / mapreduce.reduce
// children, then whatever the rounds do not account for.
void AddRoundSpans(Run& run, const BuildRecord& rec, int build_span,
                   int64_t start_ns, uint64_t id) {
  if (build_span < 0) return;
  SpanRecorder& spans = run.spans;
  const std::string layer = IsExact(rec.kind) ? "exact." : "approx.";
  int64_t t = start_ns;
  double attributed = 0.0;
  for (const wavemr::RoundStats& r : rec.result.stats.rounds) {
    const double ms = r.map_wall_ms + r.reduce_wall_ms;
    const int64_t end = t + static_cast<int64_t>(ms * 1e6);
    const int round = spans.Add(layer + r.name, build_span, t, end, id, true);
    const int64_t map_end = t + static_cast<int64_t>(r.map_wall_ms * 1e6);
    spans.Add("mapreduce.map", round, t, map_end, id, true);
    if (r.reduce_wall_ms > 0.0) spans.Add("mapreduce.reduce", round, map_end, end, id, true);
    attributed += ms;
    t = end;
  }
  const double rest = rec.wall_ms - attributed;
  if (rest > 0.0) {
    spans.Add("mapreduce.unattributed", build_span, t,
              t + static_cast<int64_t>(rest * 1e6), id, true);
  }
}

// Bytes the process has read through read/pread so far (rchar in
// /proc/self/io, all threads). The dataset is generated in memory, so what
// a build adds is its spill reads, plus the ~100 bytes of this probe.
uint64_t ReadBytesSoFar() {
  uint64_t rchar = 0;
  if (FILE* f = std::fopen("/proc/self/io", "r")) {
    unsigned long long v = 0;
    if (std::fscanf(f, "rchar: %llu", &v) == 1) rchar = v;
    std::fclose(f);
  }
  return rchar;
}

}  // namespace

bool BuildAndCheck(Run& run, AlgorithmKind kind, const BuildOptions& options,
                   int pass) {
  const uint64_t id = run.next_id++;
  BuildRecord rec;
  rec.kind = kind;
  rec.threads = options.threads;
  rec.traced = run.spans.enabled();
  rec.pass = pass;
  int span = -1;
  int64_t start_ns = 0;
  const size_t spans_before = run.spans.spans().size();
  const uint64_t read_before = ReadBytesSoFar();
  const auto t0 = Clock::now();
  auto result = [&] {
    ScopedSpan s(run.spans, "histogram.build", id);
    span = s.index();
    start_ns = run.spans.NowNs();
    return wavemr::BuildWaveletHistogram(*run.dataset, kind, options);
  }();
  rec.wall_ms = MsSince(t0);
  rec.read_bytes = ReadBytesSoFar() - read_before;
  const std::string name = wavemr::AlgorithmName(kind);
  if (!result.ok()) {
    run.out.Count(false);
    run.out.Note("FAIL " + name + ": " + result.status().ToString());
    return false;
  }
  rec.result = std::move(*result);
  AddRoundSpans(run, rec, span, start_ns, id);

  ScopedSpan check_span(run.spans, "check.build", id);
  const wavemr::WaveletHistogram& h = rec.result.histogram;
  CheckOutcome c = IsExact(kind) ? CheckExact(h, run.ref) : CheckApprox(h, run.ref);
  const uint64_t digest = Digest(h);
  const uint64_t comm = rec.result.stats.TotalCommBytes();
  auto [d, fresh] = run.digests.emplace(kind, digest);
  auto [cb, fresh_comm] = run.comm.emplace(kind, comm);
  if (c.ok && !fresh && d->second != digest) {
    c.ok = false;
    c.why = "coefficient digest drifted from the first build";
  }
  if (c.ok && !fresh_comm && cb->second != comm) {
    c.ok = false;
    c.why = "comm bytes drifted from the first build";
  }
  run.out.Count(c.ok);
  if (!c.ok) run.out.Note("FAIL " + name + ": " + c.why);
  run.sse_ratio[kind] = std::max(run.sse_ratio[kind], c.sse_ratio);
  rec.spans = run.spans.spans().size() - spans_before;
  run.builds.push_back(std::move(rec));
  return true;
}

void InProcessQueries(const HistogramSnapshot& snapshot, uint64_t seed,
                      int batches, std::vector<double>* per_query_ms) {
  constexpr int kBatch = 256;
  wavemr::Rng rng(wavemr::Mix64(seed));
  std::vector<wavemr::QueryRequest> qs(kBatch);
  for (int b = 0; b < batches; ++b) {
    for (auto& q : qs) q = NextQuery(rng, snapshot.domain_size());
    for (const auto& q : qs) {
      const auto t0 = Clock::now();
      switch (q.op) {
        case wavemr::QueryOp::kPoint:
          Consume(wavemr::PointEstimate(snapshot, q.point_x));
          break;
        case wavemr::QueryOp::kRange:
          Consume(wavemr::RangeSum(snapshot, q.range_lo, q.range_hi));
          break;
        default:
          Consume(static_cast<double>(snapshot.TopCoefficients(q.topk_count).size()));
      }
      per_query_ms->push_back(MsSince(t0));
    }
  }
}

bool StartServer(Run& run, ServerProcess* server) {
  const wavemr::DataArgs& d = run.w.data;
  const BuildOptions served = ServedBuildOptions(run, d.seed);
  auto flag = [](const char* name, auto value) {
    return std::string("--") + name + "=" + std::to_string(value);
  };
  std::vector<std::string> args = {
      "--generate=zipf", flag("n", d.n), flag("u", d.u), flag("splits", d.splits),
      Sprintf("--alpha=%.17g", d.alpha), flag("seed", d.seed),
      "--algo=twolevel-s", flag("k", served.k),
      Sprintf("--eps=%.17g", served.epsilon), flag("threads", served.threads),
      "--workers=2", "--port=0"};
  ScopedSpan span(run.spans, "serve.start");
  wavemr::Status st = server->Start(run.cfg.serve_bin, args);
  if (!st.ok()) {
    run.out.Count(false);
    run.out.Note("FAIL serve start: " + st.ToString());
    return false;
  }
  return true;
}

namespace {

bool FetchStats(Run& run, int port, wavemr::ServeStats* out) {
  ScopedSpan span(run.spans, "serve.stats");
  wavemr::ServeClient client;
  wavemr::Status st = client.Connect(kHost, port);
  if (st.ok()) {
    auto stats = client.Stats();
    if (stats.ok()) {
      *out = *stats;
      return true;
    }
    st = stats.status();
  }
  run.out.Count(false);
  run.out.Note("FAIL serve stats: " + st.ToString());
  return false;
}

}  // namespace

bool AnswerMatches(const Answer& a, const HistogramSnapshot& snapshot) {
  auto same_bits = [](double x, double y) {
    return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
  };
  switch (a.request.op) {
    case wavemr::QueryOp::kPoint:
      return same_bits(a.estimate, wavemr::PointEstimate(snapshot, a.request.point_x));
    case wavemr::QueryOp::kRange:
      return same_bits(a.estimate,
                       wavemr::RangeSum(snapshot, a.request.range_lo, a.request.range_hi));
    default:
      return a.coefficients == snapshot.TopCoefficients(a.request.topk_count);
  }
}

ServeSession RunServeSession(Run& run, ServerProcess* server, double seconds) {
  ServeSession s;
  FetchStats(run, server->port(), &s.before);
  LoadOptions lo;
  lo.port = server->port();
  lo.seconds = seconds;
  lo.domain_size = run.w.data.u;
  lo.seed = run.cfg.seed;
  if (run.cfg.scale == Scale::kSmall) lo.qps = 2000.0;
  s.load = RunOpenLoop(lo, run.spans);
  FetchStats(run, server->port(), &s.after);

  // Check every answer against in-process estimation on the version it
  // names. Version 1 is the initial build (seed = dataset seed); rebuild c
  // publishes version c + 1 with seed + c.
  ScopedSpan span(run.spans, "check.serve");
  if (!run.dataset && !MakeRunDataset(run, 1)) return s;
  if (run.ref.terms == 0) run.ref = ComputeReference(*run.dataset, kTerms);
  std::map<uint64_t, std::optional<HistogramSnapshot>> versions;
  auto version = [&](uint64_t v) -> const HistogramSnapshot* {
    auto it = versions.find(v);
    if (it == versions.end()) {
      std::optional<HistogramSnapshot> snap;
      if (v >= 1) {
        auto built = wavemr::BuildWaveletHistogram(
            *run.dataset, AlgorithmKind::kTwoLevelS,
            ServedBuildOptions(run, run.w.data.seed + (v - 1)));
        if (built.ok()) snap = built->ToSnapshot();
      }
      it = versions.emplace(v, std::move(snap)).first;
    }
    return it->second ? &*it->second : nullptr;
  };
  for (const Answer& a : s.load.answers) {
    const HistogramSnapshot* snap = version(a.version);
    if ((snap == nullptr || !AnswerMatches(a, *snap)) && s.mismatches++ == 0) {
      run.out.Note("FAIL serve: answer on version " + std::to_string(a.version) +
                   " differs from in-process estimation");
    }
  }
  uint64_t last = 1;
  for (uint64_t v : s.load.published_versions) {
    if (v <= last) {
      ++s.mismatches;
      run.out.Note("FAIL serve: rebuild published version " + std::to_string(v) +
                   " after " + std::to_string(last));
    }
    last = v;
  }
  if (const HistogramSnapshot* v1 = version(1)) s.served_sse_ratio = SseRatio(*v1, run.ref);
  if (s.load.errors + s.load.connect_failures > 0) {
    run.out.Note("FAIL serve: " + std::to_string(s.load.errors) + " errors, " +
                 std::to_string(s.load.connect_failures) +
                 " connect failures; first: " + s.load.first_error);
  }
  const uint64_t answered = s.load.answers.size() + s.load.publish_ms.size();
  run.out.attempted += s.load.queries_sent + s.load.rebuilds_sent +
                       s.load.connect_failures;
  run.out.failed += s.mismatches + s.load.connect_failures +
                    (s.load.queries_sent + s.load.rebuilds_sent - answered);
  return s;
}

namespace {

// Resets the kernel's peak-RSS mark (VmHWM) so each pass reports its own
// peak instead of the run's extreme; false where the kernel refuses.
bool ResetPeakRss() {
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

double PeakRssMb() {
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long kib = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %lu kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib > 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void RunBuilds(Run& run, double seconds) {
  if (!MakeRunDataset(run, kSetups)) return;
  run.setup_s = run.materialize_s;
  {
    ScopedSpan span(run.spans, "check.reference");
    run.ref = ComputeReference(*run.dataset, kTerms);
  }
  std::vector<double> query_ms;
  std::vector<double> pass_rss_mb;
  const bool per_pass_rss = ResetPeakRss();
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  int pass = 0;
  do {
    // Traced runs alternate recorder on/off by pass, so traced and untraced
    // builds can be set side by side.
    if (run.cfg.trace) run.spans.set_enabled(pass % 2 == 0);
    if (per_pass_rss) ResetPeakRss();
    for (AlgorithmKind kind : run.w.algos) {
      if (!BuildAndCheck(run, kind, run.w.build, pass)) return;
      const HistogramSnapshot snap = run.builds.back().result.ToSnapshot();
      InProcessQueries(snap, run.cfg.seed + pass, kQueryBatches, &query_ms);
    }
    pass_rss_mb.push_back(PeakRssMb());
    ++pass;
  } while (Clock::now() < deadline || pass < 2);
  run.spans.set_enabled(run.cfg.trace);

  // Per-algorithm medians, untraced passes only (all of them untraced runs).
  std::vector<double> medians;
  uint64_t comm = 0;
  double sse = 0.0;
  for (AlgorithmKind kind : run.w.algos) {
    std::vector<double> walls;
    for (const BuildRecord& b : run.builds) {
      if (b.kind == kind && b.pass >= 0 && !b.traced) walls.push_back(b.wall_ms);
    }
    medians.push_back(Median(walls));
    comm += run.comm[kind];
    // Send-Sketch's ratio swings with the data by more than any end-to-end
    // bound allows (6.4 vs 7.8 between seeds); it is a per-layer number.
    if (kind != AlgorithmKind::kSendSketch) sse = std::max(sse, run.sse_ratio[kind]);
    run.out.Note(Sprintf("build_ms.%s %.3f ms  (median of %zu builds; q1-q3 %.3f-%.3f); "
                         "sse_ratio %.6f",
                         Slug(kind).c_str(), medians.back(), walls.size(),
                         Quantile(walls, 0.25), Quantile(walls, 0.75), run.sse_ratio[kind]));
  }
  if (run.cfg.trace) return;
  run.out.Set("setup_s", Median(run.setup_s), "s");
  run.out.Set("build_ms", GeoMean(medians), "ms");
  run.out.Set("comm_bytes", static_cast<double>(comm), "bytes");
  run.out.Set("sse_ratio", sse, "ratio");
  // Median over passes of each pass's peak (the whole run's peak when the
  // kernel cannot reset the mark).
  run.out.Set("peak_rss_mb", Median(pass_rss_mb), "MiB");
  run.out.Set("query_p50_ms", Median(query_ms), "ms");
}

void RunServe(Run& run, double seconds) {
  std::unique_ptr<ServerProcess> server;
  for (int i = 0; i < kSetups; ++i) {
    if (server) {
      const int code = server->Stop();
      run.out.Count(code == 0);
    }
    server = std::make_unique<ServerProcess>();
    const auto t0 = Clock::now();
    if (!StartServer(run, server.get())) return;
    // Setup ends with the first answered query.
    wavemr::ServeClient client;
    bool answered = false;
    if (client.Connect(kHost, server->port()).ok()) {
      for (int tries = 0; tries < 100 && !answered; ++tries) {
        answered = client.Point(0).ok();
      }
    }
    run.out.Count(answered);
    if (!answered) {
      run.out.Note("FAIL serve: no answer to the first query");
      return;
    }
    run.setup_s.push_back(MsSince(t0) / 1e3);
  }
  run.session = RunServeSession(run, server.get(), seconds);
  const int code = server->Stop();
  run.out.Count(code == 0);
  if (code != 0) run.out.Note("FAIL serve: exit status " + std::to_string(code));

  const ServeSession& s = *run.session;
  run.out.Note(Sprintf("publish_ms %.3f ms  (median of %zu rebuilds; q1-q3 %.3f-%.3f)",
                       Median(s.load.publish_ms), s.load.publish_ms.size(),
                       Quantile(s.load.publish_ms, 0.25), Quantile(s.load.publish_ms, 0.75)));
  if (run.cfg.trace) return;
  run.out.Set("setup_s", Median(run.setup_s), "s");
  run.out.Set("build_ms", Median(s.load.publish_ms), "ms");
  run.out.Set("comm_bytes", static_cast<double>(s.before.build_comm_bytes), "bytes");
  run.out.Set("sse_ratio", s.served_sse_ratio, "ratio");
  run.out.Set("peak_rss_mb", server->peak_rss_mb(), "MiB");
  run.out.Set("query_p50_ms", Median(s.load.latency_ms), "ms");
}

}  // namespace

void RunWorkload(Run& run) {
  // A traced run splits its time between the workload and the layer sweep.
  const double seconds = run.cfg.trace ? run.cfg.seconds / 2 : run.cfg.seconds;
  if (run.w.serve) {
    RunServe(run, seconds);
  } else {
    RunBuilds(run, seconds);
  }
  if (run.cfg.trace && run.out.failed == 0) MeasureLayers(run);
}

}  // namespace perfbench
