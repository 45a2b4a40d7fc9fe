#include "approx/send_sketch.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/flat_hash.h"
#include "core/rng.h"
#include "mapreduce/job.h"
#include "sketch/wavelet_gcs.h"

namespace wavemr {

namespace {

// Wire: 4-byte counter id + 8-byte double (the paper represents sketch
// entries as 8-byte doubles).
constexpr uint64_t kPairBytes = 12;

class SketchMapper : public MapperBase<SketchMapper, uint64_t, double> {
 public:
  SketchMapper(uint64_t u, const WaveletGcsOptions& gcs_options)
      : u_(u), gcs_options_(gcs_options) {}

  template <typename Ctx>
  void RunImpl(Ctx& ctx) {
    FlatHashCounter<uint64_t, uint64_t> freq;
    freq.reserve(std::min(ctx.input().num_records(), u_));
    ctx.input().ScanBatches([&freq](const uint64_t* keys, uint64_t n) {
      for (uint64_t i = 0; i < n; ++i) ++freq[keys[i]];
    });

    WaveletGcs sketch(u_, gcs_options_);
    // The simulated cost is the paper's mapper: one sketch update per
    // distinct key, weighted by its count.
    ctx.ChargeCpuNs(static_cast<double>(freq.size()) *
                    static_cast<double>(sketch.CounterUpdatesPerDataPoint()) *
                    kSketchCounterNs);
    // The real work sketches the split's nonzero Haar coefficients once each,
    // which needs the distinct keys in ascending order.
    std::vector<std::pair<uint64_t, uint64_t>> counts(freq.begin(), freq.end());
    std::sort(counts.begin(), counts.end());
    std::vector<uint64_t> keys(counts.size());
    std::vector<double> weights(counts.size());
    for (size_t i = 0; i < counts.size(); ++i) {
      keys[i] = counts[i].first;
      weights[i] = static_cast<double>(counts[i].second);
    }
    sketch.UpdateSortedData(keys.data(), weights.data(), keys.size());
    sketch.ForEachNonzeroCounter(
        [&ctx](uint64_t flat_index, double value) { ctx.Emit(flat_index, value); });
  }

 private:
  uint64_t u_;
  WaveletGcsOptions gcs_options_;
};

class SketchReducer : public Reducer<uint64_t, double> {
 public:
  SketchReducer(uint64_t u, size_t k, const WaveletGcsOptions& gcs_options)
      : k_(k), sketch_(u, gcs_options) {}

  void Absorb(const uint64_t& flat_index, const double& value,
              ReduceContext<uint64_t, double>& ctx) override {
    (void)ctx;
    sketch_.AddToFlatCounter(flat_index, value);
  }

  void Finish(ReduceContext<uint64_t, double>& ctx) override {
    // Hierarchical search: a few group-energy queries per expanded node.
    result_ = sketch_.FindTopK(k_);
    ctx.ChargeCpuNs(static_cast<double>(k_) * 64.0 * kSketchCounterNs);
  }

  std::vector<WCoeff> TakeResult() { return std::move(result_); }

 private:
  size_t k_;
  WaveletGcs sketch_;
  std::vector<WCoeff> result_;
};

}  // namespace

WaveletGcsOptions SendSketchGcsOptions(const BuildOptions& options) {
  WaveletGcsOptions gcs = options.gcs;
  gcs.seed = Mix64(options.seed ^ 0x9c75e5eed123ULL);
  return gcs;
}

StatusOr<BuildResult> SendSketch::Build(const Dataset& dataset,
                                        const BuildOptions& options) {
  MrEnv env;
  env.cluster = options.cluster;
  env.cost_model = options.cost_model;
  env.io = options.io;
  env.threads = options.threads;
  env.reduce_tasks = options.reduce_tasks;

  const uint64_t u = dataset.info().domain_size;
  const WaveletGcsOptions gcs = SendSketchGcsOptions(options);

  SketchReducer reducer(u, options.k, gcs);
  JobPlan<uint64_t, double> plan;
  plan.name = "send-sketch";
  plan.mapper_factory = [u, gcs](uint64_t) {
    return std::make_unique<SketchMapper>(u, gcs);
  };
  plan.reducer = &reducer;
  plan.wire_bytes = [](const uint64_t*, const double*, size_t n) {
    return n * kPairBytes;
  };
  plan.sorted_shuffle = options.force_sorted_shuffle;
  RunRound(plan, dataset, &env);

  BuildResult result;
  result.histogram = WaveletHistogram(u, reducer.TakeResult());
  result.stats = std::move(env.stats);
  return result;
}

}  // namespace wavemr
