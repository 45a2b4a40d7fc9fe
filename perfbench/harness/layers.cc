// The traced run's per-layer numbers. Each layer is measured from outside:
// by timing calls to its public functions on the workload's own inputs, or,
// for the mapreduce/exact/approx layers, by reading the RoundStats and
// Counters the workload's builds returned.
#include <atomic>
#include <thread>

#include "core/flat_hash.h"
#include "core/rng.h"
#include "data/frequency.h"
#include "serve/estimator.h"
#include "serve/registry.h"
#include "sketch/wavelet_gcs.h"
#include "wavelet/sparse.h"
#include "wavelet/topk.h"
#include "workloads.h"

namespace perfbench {

using wavemr::AlgorithmKind;
using wavemr::HistogramSnapshot;
using wavemr::RoundStats;

namespace {

template <typename F>
double TimeMs(F&& f) {
  const auto t0 = Clock::now();
  f();
  return MsSince(t0);
}

template <typename F>
double MedianMs(int reps, F&& f) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) ms.push_back(TimeMs(f));
  return Median(ms);
}

void MeasureData(Run& run) {
  const wavemr::Dataset& d = *run.dataset;
  const uint64_t m = d.info().num_splits;
  run.out.Set("data.materialize_s", Median(run.materialize_s), "s");
  run.out.Set("data.scan_ms", MedianMs(3, [&] {
                ScopedSpan span(run.spans, "data.scan");
                uint64_t s = 0;
                for (uint64_t j = 0; j < m; ++j) {
                  wavemr::ForEachKeyBatch(d, j, [&s](const uint64_t* k, uint64_t n) {
                    for (uint64_t i = 0; i < n; ++i) s += k[i];
                  });
                }
                Consume(static_cast<double>(s));
              }),
              "ms");
  constexpr int kProbes = 1 << 20;
  wavemr::Rng rng(run.cfg.seed);
  std::vector<std::pair<uint64_t, uint64_t>> at(kProbes);
  for (auto& [split, index] : at) {
    split = rng.NextBounded(m);
    index = rng.NextBounded(d.SplitRecords(split));
  }
  const double ms = TimeMs([&] {
    ScopedSpan span(run.spans, "data.keyat");
    uint64_t s = 0;
    for (const auto& [split, index] : at) s += d.KeyAt(split, index);
    Consume(static_cast<double>(s));
  });
  run.out.Set("data.keyat_ns", ms * 1e6 / kProbes, "ns");
}

void MeasureWavelet(Run& run) {
  const wavemr::Dataset& d = *run.dataset;
  const uint64_t u = d.info().domain_size;
  wavemr::SparseVector full;
  std::vector<wavemr::SparseVector> splits;
  {
    ScopedSpan span(run.spans, "data.frequency");
    full = wavemr::ToSparseVector(wavemr::BuildFrequencyMap(d));
    for (uint64_t j = 0; j < d.info().num_splits; ++j) {
      splits.push_back(wavemr::ToSparseVector(wavemr::BuildSplitFrequencyMap(d, j)));
    }
  }
  std::vector<wavemr::WCoeff> coeffs;
  run.out.Set("wavelet.haar_full_ms", MedianMs(3, [&] {
                ScopedSpan span(run.spans, "wavelet.sparse_haar");
                coeffs = wavemr::SparseHaar(full, u);
              }),
              "ms");
  std::vector<std::vector<wavemr::WCoeff>> split_coeffs(splits.size());
  run.out.Set("wavelet.haar_split_ms", MedianMs(3, [&] {
                for (size_t j = 0; j < splits.size(); ++j) {
                  ScopedSpan span(run.spans, "wavelet.sparse_haar", j + 1);
                  split_coeffs[j] = wavemr::SparseHaar(splits[j], u);
                }
              }),
              "ms");
  // The reducer's final selection plus every mapper's round-1 selection.
  run.out.Set("wavelet.topk_ms", MedianMs(3, [&] {
                ScopedSpan span(run.spans, "wavelet.topk");
                Consume(wavemr::TopKByMagnitude(coeffs, kTerms).front().value);
                for (const auto& c : split_coeffs) {
                  Consume(static_cast<double>(wavemr::SelectTopBottomK(c, kTerms).top.size()));
                }
              }),
              "ms");
}

// Send-Sketch's two sketch phases, as its mapper and reducer run them: a
// mapper counts its split and calls UpdateData once per distinct key with
// that key's count, then ships its non-zero counters; the reducer folds the
// m shipped lists in with AddToFlatCounter and searches the top k. A few
// mappers are replayed and their lists reused to make up the reducer's m.
void MeasureSketch(Run& run) {
  constexpr uint64_t kMappers = 4;
  const wavemr::Dataset& d = *run.dataset;
  const uint64_t u = d.info().domain_size;
  const uint64_t m = d.info().num_splits;
  const wavemr::WaveletGcsOptions& opts = run.w.build.gcs;
  std::vector<std::vector<std::pair<uint64_t, double>>> shipped;
  uint64_t distinct = 0;
  double update_ms = 0.0;
  for (uint64_t j = 0; j < std::min(kMappers, m); ++j) {
    wavemr::FlatHashCounter<uint64_t, uint64_t> freq;
    wavemr::ForEachKeyBatch(d, j, [&freq](const uint64_t* k, uint64_t n) {
      for (uint64_t i = 0; i < n; ++i) ++freq[k[i]];
    });
    wavemr::WaveletGcs sketch(u, opts);
    update_ms += TimeMs([&] {
      ScopedSpan span(run.spans, "sketch.update", j + 1);
      for (const auto& [key, count] : freq) sketch.UpdateData(key, static_cast<double>(count));
    });
    distinct += freq.size();
    auto& list = shipped.emplace_back();
    sketch.ForEachNonzeroCounter(
        [&list](uint64_t flat, double value) { list.emplace_back(flat, value); });
  }
  run.out.Set("sketch.update_mitems_s", static_cast<double>(distinct) / update_ms / 1e3,
              "Mitems/s");
  run.out.Set("sketch.nonzero_counters", static_cast<double>(shipped.front().size()),
              "count");
  wavemr::WaveletGcs reduced(u, opts);
  run.out.Set("sketch.merge_ms", TimeMs([&] {
                ScopedSpan span(run.spans, "sketch.merge");
                for (uint64_t j = 0; j < m; ++j) {
                  for (const auto& [flat, value] : shipped[j % shipped.size()]) {
                    reduced.AddToFlatCounter(flat, value);
                  }
                }
              }),
              "ms");
  run.out.Note(Sprintf("sketch.update_mitems_s over %llu distinct keys of %zu splits; "
                       "sketch.merge_ms adds %llu shipped lists",
                       static_cast<unsigned long long>(distinct), shipped.size(),
                       static_cast<unsigned long long>(m)));
  run.out.Set("sketch.find_topk_ms", MedianMs(3, [&] {
                ScopedSpan span(run.spans, "sketch.find_topk");
                Consume(static_cast<double>(reduced.FindTopK(kTerms).size()));
              }),
              "ms");
}

bool HaveBuild(const Run& run, AlgorithmKind kind, int threads) {
  for (const BuildRecord& b : run.builds) {
    if (b.kind == kind && b.threads == threads) return true;
  }
  return false;
}

std::vector<const BuildRecord*> BuildsOf(const Run& run, AlgorithmKind kind) {
  std::vector<const BuildRecord*> out;
  for (const BuildRecord& b : run.builds) {
    if (b.kind == kind && b.threads == run.cfg.threads) out.push_back(&b);
  }
  return out;
}

// The builds the per-layer numbers read that the workload itself may not
// run: one of each layer's algorithm and the primary build at threads=1
// (map speedup).
bool SweepBuilds(Run& run) {
  const int n = run.cfg.threads;
  for (AlgorithmKind kind : {run.w.primary, AlgorithmKind::kHWTopk,
                             AlgorithmKind::kTwoLevelS, AlgorithmKind::kSendSketch}) {
    if (!HaveBuild(run, kind, n) && !BuildAndCheck(run, kind, run.w.build, -1)) {
      return false;
    }
  }
  wavemr::BuildOptions serial = run.w.build;
  serial.threads = 1;
  return BuildAndCheck(run, run.w.primary, serial, -1);
}

void MeasureMapReduce(Run& run) {
  struct Agg {
    double wall = 0, map = 0, reduce = 0, spread = 0;
    uint64_t pairs = 0, files = 0, spill = 0, read = 0, steals = 0;
    uint64_t retries = 0, fallbacks = 0;
  };
  // One sample per measuring pass (all of its builds); without passes, one
  // per primary build.
  std::map<int, Agg> samples;
  int solo = -1;
  for (const BuildRecord& b : run.builds) {
    if (b.threads != run.cfg.threads) continue;
    int key = b.pass;
    if (key < 0) {
      if (!run.w.algos.empty() || b.kind != run.w.primary) continue;
      key = solo--;
    }
    Agg& a = samples[key];
    a.wall += b.wall_ms;
    a.read += b.read_bytes;
    for (const RoundStats& r : b.result.stats.rounds) {
      a.map += r.map_wall_ms;
      a.reduce += r.reduce_wall_ms;
      a.pairs += r.shuffle_pairs;
      a.files += r.spill_files;
      a.spill += r.spill_bytes;
      a.steals += r.reduce_steals;
      a.retries += r.spill_retries;
      a.fallbacks += r.spill_fallbacks;
      a.spread = std::max(a.spread, r.ReduceRangeSpread());
    }
  }
  auto median_of = [&samples](auto field) {
    std::vector<double> v;
    for (const auto& [key, a] : samples) v.push_back(static_cast<double>(field(a)));
    return Median(v);
  };
  const double wall = median_of([](const Agg& a) { return a.wall; });
  const double unattributed =
      median_of([](const Agg& a) { return a.wall - a.map - a.reduce; });
  const double spill = median_of([](const Agg& a) { return a.spill; });
  const double read = median_of([](const Agg& a) { return a.read; });
  RunResult& out = run.out;
  out.Set("mapreduce.build_wall_ms", wall, "ms");
  out.Set("mapreduce.map_wall_ms", median_of([](const Agg& a) { return a.map; }), "ms");
  out.Set("mapreduce.reduce_wall_ms", median_of([](const Agg& a) { return a.reduce; }), "ms");
  out.Set("mapreduce.unattributed_ms", unattributed, "ms");
  out.Set("mapreduce.unattributed_frac", wall > 0 ? unattributed / wall : 0.0, "ratio");
  out.Set("mapreduce.shuffle_pairs", median_of([](const Agg& a) { return a.pairs; }), "count");
  out.Set("mapreduce.spill_files", median_of([](const Agg& a) { return a.files; }), "count");
  out.Set("mapreduce.spill_bytes", spill, "bytes");
  out.Set("mapreduce.spill_read_amp", spill > 0 ? read / spill : 0.0, "ratio");
  out.Set("mapreduce.reduce_steals", median_of([](const Agg& a) { return a.steals; }), "count");
  out.Set("mapreduce.reduce_range_spread", median_of([](const Agg& a) { return a.spread; }),
          "ratio");
  out.Set("mapreduce.spill_retries", median_of([](const Agg& a) { return a.retries; }), "count");
  out.Set("mapreduce.spill_fallbacks", median_of([](const Agg& a) { return a.fallbacks; }),
          "count");
  out.Note(Sprintf("mapreduce.unattributed_ms %.3f ms = %.1f%% of build wall %.3f ms "
                   "(wall - map - reduce, summed over one pass)",
                   unattributed, wall > 0 ? 100.0 * unattributed / wall : 0.0, wall));
  out.Note(Sprintf("mapreduce.spill_read_amp %.3f bytes read per byte spilled "
                   "(%.0f read by the process during the builds, /proc/self/io rchar; "
                   "%.0f spill bytes written)",
                   spill > 0 ? read / spill : 0.0, read, spill));

  // Map speedup of the primary build: threads=1 over threads=nproc.
  std::vector<double> map_n;
  double map_1 = 0.0;
  for (const BuildRecord& b : run.builds) {
    if (b.kind != run.w.primary) continue;
    if (b.threads == 1) map_1 = b.result.stats.TotalMapWallMs();
    if (b.threads == run.cfg.threads) map_n.push_back(b.result.stats.TotalMapWallMs());
  }
  out.Set("mapreduce.map_speedup", Median(map_n) > 0 ? map_1 / Median(map_n) : 0.0, "x");
}

void MeasureExactApprox(Run& run) {
  RunResult& out = run.out;
  for (int round = 1; round <= 3; ++round) {
    const std::string name = "h-wtopk-round" + std::to_string(round);
    std::vector<double> ms;
    double pairs = 0;
    for (const BuildRecord* b : BuildsOf(run, AlgorithmKind::kHWTopk)) {
      for (const RoundStats& r : b->result.stats.rounds) {
        if (r.name != name) continue;
        ms.push_back(r.map_wall_ms + r.reduce_wall_ms);
        pairs = static_cast<double>(r.shuffle_pairs);
      }
    }
    const std::string prefix = "exact.hwtopk.round" + std::to_string(round);
    out.Set(prefix + "_ms", Median(ms), "ms");
    out.Set(prefix + "_pairs", pairs, "count");
  }
  const auto twolevel = BuildsOf(run, AlgorithmKind::kTwoLevelS);
  out.Set("approx.twolevel.sampled_records",
          static_cast<double>(twolevel.front()->result.stats.counters.Get("map_records_read")),
          "count");
  double pairs = 0;
  for (const RoundStats& r : twolevel.front()->result.stats.rounds) pairs += r.shuffle_pairs;
  out.Set("approx.twolevel.pairs", pairs, "count");
  std::vector<double> map_ms, rest_ms;
  for (const BuildRecord* b : BuildsOf(run, AlgorithmKind::kSendSketch)) {
    map_ms.push_back(b->result.stats.TotalMapWallMs());
    rest_ms.push_back(b->wall_ms - map_ms.back());
  }
  out.Set("approx.sketch.map_ms", Median(map_ms), "ms");
  out.Set("approx.sketch.sse_ratio", run.sse_ratio[AlgorithmKind::kSendSketch], "ratio");
  // Send-Sketch streams its shuffle, so everything after the map phase --
  // the merge of m sketches and the top-k search -- is its reduce.
  out.Set("approx.sketch.reduce_ms", Median(rest_ms), "ms");
}

void MeasureHistogram(Run& run) {
  constexpr int kReps = 200;
  std::vector<double> ms;
  for (const BuildRecord& b : run.builds) {
    ms.push_back(TimeMs([&] {
                   ScopedSpan span(run.spans, "histogram.to_snapshot");
                   for (int i = 0; i < kReps; ++i) {
                     Consume(static_cast<double>(b.result.ToSnapshot().num_terms()));
                   }
                 }) /
                 kReps);
  }
  run.out.Set("histogram.to_snapshot_ms", Median(ms), "ms");
}

void MeasureServe(Run& run) {
  RunResult& out = run.out;
  const HistogramSnapshot snap = BuildsOf(run, run.w.primary).front()->result.ToSnapshot();
  const uint64_t u = snap.domain_size();
  constexpr int kQueries = 1 << 16;
  wavemr::Rng rng(run.cfg.seed);
  std::vector<std::pair<uint64_t, uint64_t>> q(kQueries);
  for (auto& [lo, hi] : q) {
    lo = rng.NextBounded(u);
    hi = std::min(u, lo + 1 + rng.NextBounded(std::max<uint64_t>(1, u / 16)));
  }
  auto per_query_ns = [&](const char* span_name, auto&& one) {
    return MedianMs(3, [&] {
             ScopedSpan span(run.spans, span_name);
             double s = 0;
             for (const auto& [lo, hi] : q) s += one(lo, hi);
             Consume(s);
           }) *
           1e6 / kQueries;
  };
  out.Set("serve.point_ns", per_query_ns("serve.point", [&](uint64_t x, uint64_t) {
            return wavemr::PointEstimate(snap, x);
          }),
          "ns");
  out.Set("serve.range_ns", per_query_ns("serve.range", [&](uint64_t lo, uint64_t hi) {
            return wavemr::RangeSum(snap, lo, hi);
          }),
          "ns");
  out.Set("serve.topk_ns", per_query_ns("serve.topk", [&](uint64_t, uint64_t) {
            return static_cast<double>(snap.TopCoefficients(kTopKCount).size());
          }),
          "ns");

  constexpr int kReps = 1000;
  std::string bytes;
  out.Set("serve.serialize_ms", TimeMs([&] {
            ScopedSpan span(run.spans, "serve.serialize");
            for (int i = 0; i < kReps; ++i) bytes = snap.Serialize();
          }) / kReps,
          "ms");
  bool round_trip = true;
  out.Set("serve.deserialize_ms", TimeMs([&] {
            ScopedSpan span(run.spans, "serve.deserialize");
            for (int i = 0; i < kReps; ++i) {
              auto back = HistogramSnapshot::Deserialize(bytes);
              round_trip = round_trip && back.ok() &&
                           back->Coefficients() == snap.Coefficients();
            }
          }) / kReps,
          "ms");
  run.out.Count(round_trip);
  if (!round_trip) out.Note("FAIL serve: snapshot serialization does not round-trip");

  // Publish cost while two readers keep pinning versions.
  wavemr::SnapshotRegistry registry;
  auto shared = std::make_shared<const HistogramSnapshot>(snap);
  registry.Publish(shared);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      double s = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto guard = registry.Acquire();
        s += wavemr::PointEstimate(*guard, 0);
      }
      Consume(s);
    });
  }
  constexpr int kPublishes = 2000;
  const double publish_ms = TimeMs([&] {
    ScopedSpan span(run.spans, "serve.registry_publish");
    for (int i = 0; i < kPublishes; ++i) registry.Publish(shared);
  });
  stop = true;
  for (auto& t : readers) t.join();
  out.Set("serve.registry_publish_us", publish_ms * 1e3 / kPublishes, "us");

  // Over the wire: the serve workload's own session, or a short one.
  if (!run.session) {
    ServerProcess server;
    if (!StartServer(run, &server)) return;
    run.session = RunServeSession(run, &server, 2.0);
    const int code = server.Stop();
    run.out.Count(code == 0);
  }
  const LoadResult& load = run.session->load;
  const double interval_ms = 1e3 / LoadOptions().qps;
  out.Set("serve.query_p99_ms", Quantile(load.latency_ms, 0.99), "ms");
  out.Set("serve.publish_ms", Median(load.publish_ms), "ms");
  out.Set("serve.gen_late_ms", Quantile(load.late_ms, 0.99), "ms");
  out.Set("serve.queries_sent", static_cast<double>(load.queries_sent), "count");
  out.Set("serve.server_queries",
          static_cast<double>(run.session->after.queries_served -
                              run.session->before.queries_served),
          "count");
  out.Note(Sprintf("serve.gen_late_ms p99 %.4f ms, median %.4f ms, against a %.3f ms "
                   "schedule interval",
                   Quantile(load.late_ms, 0.99), Median(load.late_ms), interval_ms));
}

// Spans wrap whole build calls, so the recorder's cost per build is a few
// span records: priced directly, as one Begin/End pair (timed over many on a
// recorder of its own) times the spans each traced build kept. The
// traced-minus-untraced build time is printed beside it against the
// untraced builds' spread, which usually swamps it.
void MeasureTraceOverhead(Run& run) {
  constexpr int kPairs = 1 << 16;
  SpanRecorder probe(true);
  const double pair_ns = TimeMs([&] {
                           for (int i = 0; i < kPairs; ++i) ScopedSpan s(probe, "trace.probe");
                         }) *
                         1e6 / kPairs;
  std::vector<double> spans_per_build;
  for (const BuildRecord& b : run.builds) {
    if (b.traced) spans_per_build.push_back(static_cast<double>(b.spans));
  }
  const double overhead_ms = pair_ns * Median(spans_per_build) / 1e6;
  run.out.Set("trace.overhead_ms", overhead_ms, "ms");
  run.out.Note(Sprintf("trace.overhead_ms %.6f ms per build = %.1f ns per span x %.0f spans",
                       overhead_ms, pair_ns, Median(spans_per_build)));
  for (AlgorithmKind kind : run.w.algos) {
    std::vector<double> traced, untraced;
    for (const BuildRecord* b : BuildsOf(run, kind)) {
      (b->traced ? traced : untraced).push_back(b->wall_ms);
    }
    if (traced.empty() || untraced.empty()) continue;
    const double diff = Median(traced) - Median(untraced);
    const double iqr = Quantile(untraced, 0.75) - Quantile(untraced, 0.25);
    const char* verdict = untraced.size() < 4      ? "too few builds: unresolved"
                          : std::fabs(diff) <= iqr ? "inside it: unresolved"
                                                   : "outside it";
    run.out.Note(Sprintf("trace build_ms.%s: traced - untraced = %.3f ms (%zu vs %zu builds); "
                         "untraced q1-q3 width %.3f ms (%s)",
                         Slug(kind).c_str(), diff, traced.size(), untraced.size(), iqr,
                         verdict));
  }
}

}  // namespace

void MeasureLayers(Run& run) {
  if (!run.dataset && !MakeRunDataset(run, 1)) return;
  if (run.ref.terms == 0) run.ref = ComputeReference(*run.dataset, kTerms);
  {
    ScopedSpan sweep(run.spans, "bench.layer_sweep");
    MeasureData(run);
    MeasureWavelet(run);
    MeasureSketch(run);
    if (!SweepBuilds(run)) return;
    MeasureMapReduce(run);
    MeasureExactApprox(run);
    MeasureHistogram(run);
    MeasureServe(run);
  }
  MeasureTraceOverhead(run);

  const std::map<std::string, double> self_ms = run.spans.SelfMsByLayer();
  for (const auto& [layer, ms] : self_ms) {
    run.out.Note(Sprintf("self time %-10s %12.3f ms", layer.c_str(), ms));
  }
  std::string missing;
  for (const char* layer : {"data", "wavelet", "sketch", "mapreduce", "exact", "approx",
                            "histogram", "serve"}) {
    if (!self_ms.count(layer)) missing += std::string(" ") + layer;
  }
  run.out.Count(missing.empty());
  if (!missing.empty()) run.out.Note("FAIL trace: no spans for layer(s)" + missing);
  if (!run.cfg.trace_out.empty()) {
    const bool written = run.spans.WriteChromeTrace(run.cfg.trace_out);
    run.out.Count(written);
    run.out.Note(Sprintf("trace: %zu spans -> %s%s", run.spans.spans().size(),
                         run.cfg.trace_out.c_str(), written ? "" : " (write FAILED)"));
  }
}

}  // namespace perfbench
