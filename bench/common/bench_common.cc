#include "common/bench_common.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/flat_hash.h"
#include "core/hash.h"
#include "core/rng.h"
#include "core/simd.h"
#include "mapreduce/shuffle.h"
#include "serve/estimator.h"
#include "serve/snapshot.h"
#include "sketch/group_count_sketch.h"
#include "wavelet/sparse.h"

namespace wavemr {
namespace bench {

BenchDefaults BenchDefaults::FromEnv() {
  BenchDefaults d;
  const char* scale = std::getenv("WAVEMR_SCALE");
  if (scale != nullptr && std::strcmp(scale, "large") == 0) {
    d.n <<= 2;
    d.u <<= 2;
    d.m <<= 2;
    d.epsilon /= 2.0;  // keep sample fraction 1/(eps^2 n) constant
  }
  const char* threads = std::getenv("WAVEMR_THREADS");
  if (threads != nullptr && *threads != '\0') {
    int t = std::atoi(threads);
    if (t >= 0) d.threads = t;
  }
  return d;
}

ZipfDatasetOptions BenchDefaults::ZipfOptions() const {
  ZipfDatasetOptions opt;
  opt.num_records = n;
  opt.domain_size = u;
  opt.alpha = alpha;
  opt.num_splits = m;
  opt.record_bytes = record_bytes;
  opt.seed = seed;
  return opt;
}

BuildOptions BenchDefaults::Build() const {
  BuildOptions opt;
  opt.k = k;
  opt.epsilon = epsilon;
  opt.seed = seed;
  opt.cost_model.bandwidth_fraction = bandwidth;
  opt.cost_model.time_scale = paper_n / static_cast<double>(n);
  opt.gcs.total_bytes = gcs_bytes_per_log_u * Log2Floor(u);
  opt.threads = threads;
  return opt;
}

Measurement Run(const Dataset& ds, AlgorithmKind kind, const BuildOptions& opt,
                const std::vector<WCoeff>* truth) {
  const auto start = std::chrono::steady_clock::now();
  auto result = BuildWaveletHistogram(ds, kind, opt);
  const auto end = std::chrono::steady_clock::now();
  WAVEMR_CHECK(result.ok()) << AlgorithmName(kind) << ": "
                            << result.status().ToString();
  Measurement m;
  m.comm_bytes = result->stats.TotalCommBytes();
  m.seconds = result->stats.TotalSeconds();
  m.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
  m.map_wall_ms = result->stats.TotalMapWallMs();
  uint64_t shuffle = 0;
  for (const RoundStats& r : result->stats.rounds) {
    shuffle += r.shuffle_bytes;
    m.reduce_wall_ms += r.reduce_wall_ms;
    m.reduce_range_spread = std::max(m.reduce_range_spread, r.ReduceRangeSpread());
    m.spill_files += r.spill_files;
    m.spill_fallbacks += r.spill_fallbacks;
  }
  m.shuffle_bytes = shuffle;
  m.map_records = result->stats.counters.Get("map_records_read");
  if (truth != nullptr) {
    m.sse = SseAgainstTrueCoefficients(result->ToSnapshot(), *truth);
  }
  return m;
}

// ----------------------------------------------------- shuffle-merge kernel

namespace {

uint64_t FoldPair(uint64_t checksum, uint64_t key, uint64_t value) {
  return checksum * 1315423911ull + key * 31 + value;
}

}  // namespace

ShuffleKernelResult RunShuffleMergeKernel(const ShuffleKernelOptions& opt) {
  using Clock = std::chrono::steady_clock;
  using Run = ShuffleRun<uint64_t, uint64_t>;

  // Pristine per-task runs: uniform keys over the domain, globally unique
  // sequence values so any ordering deviation between the two paths flips
  // the checksum.
  Rng rng(opt.seed);
  std::vector<Run> pristine(std::max<size_t>(opt.num_runs, 1));
  const uint64_t per_run = opt.total_pairs / pristine.size();
  const uint64_t slice = opt.key_domain / pristine.size();
  uint64_t sequence = 0;
  for (size_t r = 0; r < pristine.size(); ++r) {
    Run& run = pristine[r];
    run.Reserve(per_run);
    const uint64_t base = opt.disjoint_runs ? r * slice : 0;
    const uint64_t width = opt.disjoint_runs ? std::max<uint64_t>(slice, 1)
                                             : opt.key_domain;
    for (uint64_t i = 0; i < per_run; ++i) {
      run.Append(base + rng.NextBounded(width), sequence++);
    }
  }
  const uint64_t total = sequence;

  ShuffleKernelResult result;

  {
    // Reference: the pre-columnar driver path. Concatenate every run into
    // one pair vector (the old engine materialized exactly this way) and
    // stable_sort it on the driver.
    const auto t0 = Clock::now();
    std::vector<std::pair<uint64_t, uint64_t>> all;
    all.reserve(total);
    for (const Run& run : pristine) {
      for (size_t i = 0; i < run.size(); ++i) {
        all.emplace_back(run.keys[i], run.values[i]);
      }
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    uint64_t checksum = 0;
    for (const auto& [k, v] : all) checksum = FoldPair(checksum, k, v);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    result.pair_vector_pairs_per_sec = static_cast<double>(total) / s;
    result.pair_vector_checksum = checksum;
  }

  {
    // Columnar path: radix-sort each packed run, drain the loser tree. The
    // run sort is timed (it is real work, even though the engine runs it on
    // parallel map workers) but the pristine->working copy is not -- the
    // engine sorts task-owned runs in place, whereas the reference's
    // concatenation is exactly the old driver's materialization step.
    std::vector<Run> runs = pristine;
    const auto t0 = Clock::now();
    for (Run& run : runs) run.SortByKey();
    RunMerger<uint64_t, uint64_t> merger(runs);
    uint64_t checksum = 0;
    merger.Drain([&checksum](const uint64_t& k, const uint64_t& v) {
      checksum = FoldPair(checksum, k, v);
    });
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    result.columnar_pairs_per_sec = static_cast<double>(total) / s;
    result.columnar_checksum = checksum;
  }

  {
    // Merge-only comparison of the two delivery modes over identical
    // pre-sorted runs (the sort is hoisted out of both timed regions so the
    // ratio isolates the replay strategy).
    std::vector<Run> runs = pristine;
    for (Run& run : runs) run.SortByKey();
    {
      const auto t0 = Clock::now();
      RunMerger<uint64_t, uint64_t> merger(runs);
      uint64_t checksum = 0;
      merger.DrainPerPair([&checksum](const uint64_t& k, const uint64_t& v) {
        checksum = FoldPair(checksum, k, v);
      });
      const double s = std::chrono::duration<double>(Clock::now() - t0).count();
      result.merge_per_pair_pairs_per_sec = static_cast<double>(total) / s;
      result.merge_per_pair_checksum = checksum;
    }
    {
      const auto t0 = Clock::now();
      RunMerger<uint64_t, uint64_t> merger(runs);
      uint64_t checksum = 0;
      merger.Drain([&checksum](const uint64_t& k, const uint64_t& v) {
        checksum = FoldPair(checksum, k, v);
      });
      const double s = std::chrono::duration<double>(Clock::now() - t0).count();
      result.merge_blockwise_pairs_per_sec = static_cast<double>(total) / s;
      result.merge_blockwise_checksum = checksum;
    }
  }

  return result;
}

ExternalMergeKernelResult RunExternalMergeKernel(
    const ExternalMergeKernelOptions& opt) {
  using Clock = std::chrono::steady_clock;
  using Run = ShuffleRun<uint64_t, uint64_t>;

  Rng rng(opt.seed);
  std::vector<Run> runs(std::max<size_t>(opt.num_runs, 1));
  const uint64_t per_run = opt.total_pairs / runs.size();
  uint64_t sequence = 0;
  for (Run& run : runs) {
    run.Reserve(per_run);
    for (uint64_t i = 0; i < per_run; ++i) {
      run.Append(rng.NextBounded(opt.key_domain), sequence++);
    }
    run.SortByKey();
  }
  const uint64_t total = sequence;

  ExternalMergeKernelResult result;

  {
    // Resident reference: the all-in-memory loser-tree merge.
    const auto t0 = Clock::now();
    RunMerger<uint64_t, uint64_t> merger(runs);
    uint64_t checksum = 0;
    merger.Drain([&checksum](const uint64_t& k, const uint64_t& v) {
      checksum = FoldPair(checksum, k, v);
    });
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    result.resident_pairs_per_sec = static_cast<double>(total) / s;
    result.resident_checksum = checksum;
  }

  {
    // External path: every run spilled to a temp file (writes untimed --
    // the engine pays them on the map-absorb side), then merged through
    // file-backed cursors. The timed region is the reduce-side work: open,
    // block-read, k-way merge.
    SpillDir dir;
    std::vector<SpillFileInfo> infos(runs.size());
    for (size_t r = 0; r < runs.size(); ++r) {
      SpillFileInfo& info = infos[r];
      info.path = dir.NextFilePath("bench-run");
      info.num_pairs = runs[r].size();
      if (!runs[r].empty()) {
        info.min_key = runs[r].keys.front();
        info.max_key = runs[r].keys.back();
      }
      const SpillWriteResult w = WriteSpillFile<uint64_t, uint64_t>(
          info.path, runs[r].keys.data(), runs[r].values.data(), runs[r].size());
      WAVEMR_CHECK(w.io.ok()) << w.io.ToString();
      info.file_bytes = w.file_bytes;
    }
    const auto t0 = Clock::now();
    std::vector<std::unique_ptr<FileRunCursor<uint64_t, uint64_t>>> cursors;
    std::vector<MergeInput<uint64_t, uint64_t>> inputs;
    cursors.reserve(infos.size());
    inputs.reserve(infos.size());
    for (size_t r = 0; r < infos.size(); ++r) {
      cursors.push_back(std::make_unique<FileRunCursor<uint64_t, uint64_t>>(
          infos[r], 0, infos[r].num_pairs));
      inputs.push_back(MergeInput<uint64_t, uint64_t>{
          nullptr, nullptr, 0, cursors.back().get(), static_cast<uint32_t>(r)});
    }
    RunMerger<uint64_t, uint64_t> merger(inputs);
    uint64_t checksum = 0;
    merger.Drain([&checksum](const uint64_t& k, const uint64_t& v) {
      checksum = FoldPair(checksum, k, v);
    });
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    result.external_pairs_per_sec = static_cast<double>(total) / s;
    result.external_checksum = checksum;
  }

  return result;
}

// -------------------------------------------------------- GCS update kernel

GcsUpdateKernelResult RunGcsUpdateKernel(const GcsUpdateKernelOptions& opt) {
  using Clock = std::chrono::steady_clock;
  GcsUpdateKernelResult result;
  const SimdKernels& scalar_k = SimdKernelsFor(SimdTier::kScalar);
  const SimdKernels& best_k = SimdKernelsFor(BestSimdTier());
  result.tier = best_k.tier;

  // One repetition's hash coefficients, drawn the way the sketch draws them.
  Rng coeff_rng(Mix64(opt.seed ^ 0x9e3779b97f4a7c15ull));
  uint64_t ci[2], cs[4];
  for (uint64_t& c : ci) c = coeff_rng.NextBounded(PolyHash::kPrime);
  for (uint64_t& c : cs) c = coeff_rng.NextBounded(PolyHash::kPrime);

  std::vector<uint64_t> items(opt.total_items);
  Rng rng(opt.seed);
  for (uint64_t& x : items) x = rng.NextBounded(opt.domain);

  const bool pow2 = (opt.subbuckets & (opt.subbuckets - 1)) == 0;
  const uint64_t sub_mask = pow2 ? opt.subbuckets - 1 : 0;

  // Hash kernel: packed (sign, sub-bucket) resolution through the
  // block-granularity kernel -- the form the update loop actually calls --
  // in chunks large enough that dispatch overhead vanishes and the ratio
  // isolates the vector hash math.
  auto run_hash = [&](const SimdKernels& k, double* rate, uint64_t* sum) {
    // Cache-resident working set, repeated until total_items hashes have
    // run: the gate ratio should compare the hash kernels, not the host's
    // memory bandwidth -- streaming a multi-MB item array caps both tiers
    // at the same number on bandwidth-starved machines. The block call is
    // the form the update loop uses, so dispatch cost is amortized the same
    // way. The checksum folds the (deterministic) final pass's slots.
    const size_t ws = std::min(items.size(), size_t{1} << 14);  // 128 KiB
    const size_t passes = std::max<size_t>(1, items.size() / ws);
    std::vector<uint32_t> slots(ws);
    const auto t0 = Clock::now();
    for (size_t p = 0; p < passes; ++p) {
      k.gcs_sub_sign_block(ci, cs, items.data(), ws, opt.subbuckets, sub_mask,
                           slots.data());
    }
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    *rate = static_cast<double>(ws * passes) / s;
    uint64_t checksum = 0;
    for (size_t i = 0; i < ws; ++i) {
      checksum = FoldPair(checksum, i, slots[i]);
    }
    *sum = checksum;
  };
  run_hash(scalar_k, &result.scalar_hash_items_per_sec,
           &result.scalar_hash_checksum);
  run_hash(best_k, &result.simd_hash_items_per_sec,
           &result.simd_hash_checksum);

  // Full UpdateBatch over sorted items (Send-Sketch feeds wavelet order, so
  // consecutive items share groups): group caching and counter writes
  // included. The checksum folds every counter's bit pattern.
  std::vector<uint64_t> sorted = items;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> values(sorted.size());
  for (double& v : values) v = rng.NextDouble() - 0.5;
  auto run_update = [&](SimdTier tier, double* rate, uint64_t* sum) {
    OverrideSimdTierForTest(tier);
    GroupCountSketch sketch(opt.seed, opt.reps, opt.buckets, opt.subbuckets);
    const auto t0 = Clock::now();
    sketch.UpdateBatch(sorted.data(), values.data(), sorted.size(),
                       opt.group_shift);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    OverrideSimdTierForTest(ActiveSimdTier());
    uint64_t checksum = 0;
    for (size_t i = 0; i < sketch.NumCounters(); ++i) {
      checksum = FoldPair(checksum, i,
                          std::bit_cast<uint64_t>(sketch.CounterAt(i)));
    }
    *rate = static_cast<double>(sorted.size()) / s;
    *sum = checksum;
  };
  run_update(SimdTier::kScalar, &result.scalar_update_items_per_sec,
             &result.scalar_update_checksum);
  run_update(best_k.tier, &result.simd_update_items_per_sec,
             &result.simd_update_checksum);

  return result;
}

// ------------------------------------------------------ sparse Haar kernel

std::vector<WCoeff> SparseHaarHashSort(const SparseVector& v, uint64_t u) {
  const uint32_t levels = Log2Floor(u);
  FlatHashCounter<uint64_t, double> coeffs;
  coeffs.reserve(v.size() * 2);

  const double sqrt_u = std::sqrt(static_cast<double>(u));
  std::vector<uint64_t> keys(v.size());
  std::vector<double> weights(v.size());
  size_t n = 0;
  for (const auto& [key, weight] : v) {
    coeffs[0] += weight / sqrt_u;
    keys[n] = key;
    weights[n] = weight;
    ++n;
  }
  const SimdKernels& simd = SimdK();
  std::vector<uint64_t> idx(n);
  std::vector<double> val(n);
  for (uint32_t j = 0; j < levels; ++j) {
    const uint64_t block = u >> j;
    simd.sparse_level(keys.data(), weights.data(), n, levels - j, block - 1,
                      block / 2, uint64_t{1} << j,
                      std::sqrt(static_cast<double>(block)), idx.data(),
                      val.data());
    for (size_t i = 0; i < n; ++i) coeffs[idx[i]] += val[i];
  }

  std::vector<WCoeff> out;
  out.reserve(coeffs.size());
  for (const auto& [index, value] : coeffs) {
    if (value != 0.0) out.push_back({index, value});
  }
  std::sort(out.begin(), out.end(),
            [](const WCoeff& a, const WCoeff& b) { return a.index < b.index; });
  return out;
}

SparseHaarKernelResult RunSparseHaarKernel(const SparseHaarKernelOptions& opt) {
  using Clock = std::chrono::steady_clock;
  ZipfDatasetOptions zipf;
  zipf.num_records = opt.num_records;
  zipf.domain_size = opt.domain;
  zipf.alpha = opt.alpha;
  zipf.num_splits = opt.num_splits;
  zipf.seed = opt.seed;
  zipf.cache_keys = false;
  ZipfDataset ds(zipf);
  std::vector<SparseVector> splits;
  SparseHaarKernelResult result;
  for (uint64_t j = 0; j < opt.num_splits; ++j) {
    splits.push_back(ToSparseVector(BuildSplitFrequencyMap(ds, j)));
    result.entries += splits.back().size();
  }

  auto run = [&](auto transform, double* rate, uint64_t* sum) {
    for (size_t shot = 0; shot < opt.shots; ++shot) {
      uint64_t checksum = 0;
      const auto t0 = Clock::now();
      for (const SparseVector& v : splits) {
        for (const WCoeff& c : transform(v, opt.domain)) {
          checksum = FoldPair(checksum, c.index, std::bit_cast<uint64_t>(c.value));
        }
      }
      const double s = std::chrono::duration<double>(Clock::now() - t0).count();
      *rate = std::max(*rate, static_cast<double>(result.entries) / s);
      *sum = checksum;
    }
  };
  run(SparseHaar, &result.flat_entries_per_sec, &result.flat_checksum);
  run(SparseHaarHashSort, &result.hash_sort_entries_per_sec,
      &result.hash_sort_checksum);
  return result;
}

// ------------------------------------------------------------ JSON reporting

BenchJsonReporter::BenchJsonReporter(std::string name) : name_(std::move(name)) {}

void BenchJsonReporter::Add(BenchRecord record) {
  records_.push_back(std::move(record));
}

void BenchJsonReporter::Add(const std::string& algorithm, const BenchDefaults& d,
                            int threads, const Measurement& m) {
  BenchRecord r;
  r.algorithm = algorithm;
  r.n = d.n;
  r.u = d.u;
  r.m = d.m;
  r.k = d.k;
  r.threads = threads;
  r.wall_ms = m.wall_ms;
  r.map_wall_ms = m.map_wall_ms;
  r.map_records_per_sec = m.MapRecordsPerSec();
  r.simulated_s = m.seconds;
  r.shuffle_bytes = m.shuffle_bytes;
  records_.push_back(std::move(r));
}

bool BenchJsonReporter::WriteFile() const {
  return WriteFileTo("BENCH_" + name_ + ".json");
}

bool BenchJsonReporter::WriteFileTo(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << "[\n";
  for (size_t i = 0; i < records_.size(); ++i) {
    const BenchRecord& r = records_[i];
    out << "  {\"algorithm\": \"" << r.algorithm << "\""
        << ", \"n\": " << r.n << ", \"u\": " << r.u << ", \"m\": " << r.m
        << ", \"k\": " << r.k << ", \"threads\": " << r.threads
        << ", \"wall_ms\": " << r.wall_ms
        << ", \"map_wall_ms\": " << r.map_wall_ms
        << ", \"map_records_per_sec\": " << r.map_records_per_sec
        << ", \"simulated_s\": " << r.simulated_s
        << ", \"shuffle_bytes\": " << r.shuffle_bytes;
    // Kernel-only fields stay out of algorithm records so the schema of
    // existing baselines and artifacts is unchanged.
    if (r.reduce_tasks > 0) out << ", \"reduce_tasks\": " << r.reduce_tasks;
    if (r.reduce_wall_ms > 0.0)
      out << ", \"reduce_wall_ms\": " << r.reduce_wall_ms;
    if (r.reduce_range_spread > 0.0)
      out << ", \"reduce_range_spread\": " << r.reduce_range_spread;
    if (r.max_spread > 0.0) out << ", \"max_spread\": " << r.max_spread;
    if (r.pairs_per_sec > 0.0) out << ", \"pairs_per_sec\": " << r.pairs_per_sec;
    if (r.min_speedup > 0.0) out << ", \"min_speedup\": " << r.min_speedup;
    if (r.items_per_sec > 0.0) out << ", \"items_per_sec\": " << r.items_per_sec;
    if (r.queries_per_sec > 0.0)
      out << ", \"queries_per_sec\": " << r.queries_per_sec;
    if (r.p50_ms > 0.0) out << ", \"p50_ms\": " << r.p50_ms;
    if (r.p99_ms > 0.0) out << ", \"p99_ms\": " << r.p99_ms;
    if (r.spill_fallbacks > 0)
      out << ", \"spill_fallbacks\": " << r.spill_fallbacks;
    out << "}" << (i + 1 < records_.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return static_cast<bool>(out);
}

namespace {

// Minimal parser for the flat records BenchJsonReporter writes: an array of
// one-level objects with string or numeric values. Good enough for reading
// back our own files and hand-maintained baselines; not a general JSON
// parser.
void ApplyField(BenchRecord* r, const std::string& key, const std::string& value,
                bool is_string) {
  if (is_string) {
    if (key == "algorithm") r->algorithm = value;
    return;
  }
  char* end = nullptr;
  double num = std::strtod(value.c_str(), &end);
  if (end == value.c_str()) return;
  if (key == "n") r->n = static_cast<uint64_t>(num);
  else if (key == "u") r->u = static_cast<uint64_t>(num);
  else if (key == "m") r->m = static_cast<uint64_t>(num);
  else if (key == "k") r->k = static_cast<size_t>(num);
  else if (key == "threads") r->threads = static_cast<int>(num);
  else if (key == "reduce_tasks") r->reduce_tasks = static_cast<int>(num);
  else if (key == "wall_ms") r->wall_ms = num;
  else if (key == "map_wall_ms") r->map_wall_ms = num;
  else if (key == "reduce_wall_ms") r->reduce_wall_ms = num;
  else if (key == "reduce_range_spread") r->reduce_range_spread = num;
  else if (key == "max_spread") r->max_spread = num;
  else if (key == "map_records_per_sec") r->map_records_per_sec = num;
  else if (key == "simulated_s") r->simulated_s = num;
  else if (key == "shuffle_bytes") r->shuffle_bytes = static_cast<uint64_t>(num);
  else if (key == "pairs_per_sec") r->pairs_per_sec = num;
  else if (key == "min_speedup") r->min_speedup = num;
  else if (key == "items_per_sec") r->items_per_sec = num;
  else if (key == "queries_per_sec") r->queries_per_sec = num;
  else if (key == "p50_ms") r->p50_ms = num;
  else if (key == "p99_ms") r->p99_ms = num;
  else if (key == "spill_fallbacks") r->spill_fallbacks = static_cast<uint64_t>(num);
}

}  // namespace

bool ReadBenchJson(const std::string& path, std::vector<BenchRecord>* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  out->clear();
  size_t pos = 0;
  while ((pos = text.find('{', pos)) != std::string::npos) {
    size_t close = text.find('}', pos);
    if (close == std::string::npos) break;
    std::string object = text.substr(pos + 1, close - pos - 1);
    BenchRecord record;
    size_t field = 0;
    while ((field = object.find('"', field)) != std::string::npos) {
      size_t key_end = object.find('"', field + 1);
      if (key_end == std::string::npos) break;
      std::string key = object.substr(field + 1, key_end - field - 1);
      size_t colon = object.find(':', key_end);
      if (colon == std::string::npos) break;
      size_t value_start = object.find_first_not_of(" \t\n", colon + 1);
      if (value_start == std::string::npos) break;
      if (object[value_start] == '"') {
        size_t value_end = object.find('"', value_start + 1);
        if (value_end == std::string::npos) break;
        ApplyField(&record, key,
                   object.substr(value_start + 1, value_end - value_start - 1),
                   /*is_string=*/true);
        field = value_end + 1;
      } else {
        size_t value_end = object.find_first_of(",}", value_start);
        if (value_end == std::string::npos) value_end = object.size();
        ApplyField(&record, key, object.substr(value_start, value_end - value_start),
                   /*is_string=*/false);
        field = value_end;
      }
    }
    out->push_back(std::move(record));
    pos = close + 1;
  }
  return true;
}

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void Table::AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

void Table::Print() const {
  std::printf("\n%s\n", title_.c_str());
  std::vector<size_t> width(columns_.size(), 0);
  for (size_t c = 0; c < columns_.size(); ++c) width[c] = columns_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : "";
      std::printf("%s%-*s", c == 0 ? "  " : "  | ", static_cast<int>(width[c]),
                  cell.c_str());
    }
    std::printf("\n");
  };
  print_row(columns_);
  size_t total = 2;
  for (size_t c = 0; c < columns_.size(); ++c) total += width[c] + 4;
  std::printf("  %s\n", std::string(total, '-').c_str());
  for (const auto& row : rows_) print_row(row);
}

std::string FmtBytes(uint64_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3e", static_cast<double>(bytes));
  return buf;
}

std::string FmtSeconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3e", s);
  return buf;
}

std::string FmtSci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3e", v);
  return buf;
}

void PrintFigureHeader(const std::string& figure, const std::string& paper_setup,
                       const BenchDefaults& d) {
  std::printf("==============================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("Paper setup : %s\n", paper_setup.c_str());
  std::printf(
      "Scaled setup: n=%llu  u=2^%u  m=%llu  alpha=%.2f  k=%zu  eps=%.4g  B=%.0f%%\n",
      static_cast<unsigned long long>(d.n), Log2Floor(d.u),
      static_cast<unsigned long long>(d.m), d.alpha, d.k, d.epsilon,
      d.bandwidth * 100.0);
  std::printf(
      "Ratios preserved from the paper: sample fraction 1/(eps^2 n), data\n"
      "density n/u, split count m; absolute sizes are scaled down so the\n"
      "whole suite runs on one core (see DESIGN.md / EXPERIMENTS.md).\n"
      "Communication is measured in real bytes at the scaled size; running\n"
      "time is simulated at PAPER scale (work time x n_paper/n), so seconds\n"
      "are directly comparable to the paper's time figures.\n");
  std::printf("==============================================================\n");
}

}  // namespace bench
}  // namespace wavemr
