#ifndef WAVEMR_BENCH_COMMON_BENCH_COMMON_H_
#define WAVEMR_BENCH_COMMON_BENCH_COMMON_H_

#include <optional>
#include <string>
#include <vector>

#include "core/cpu_features.h"
#include "data/dataset.h"
#include "data/frequency.h"
#include "histogram/builder.h"

namespace wavemr {
namespace bench {

/// Scaled-down defaults preserving the paper's ratios (DESIGN.md section 1).
/// Paper defaults: n = 13.4e9 (50 GB), u = 2^29, m = 200 (256 MB splits),
/// k = 30, eps = 1e-4 (sample = 0.75% of n), B = 50%, alpha = 1.1.
/// Scaled:         n = 2^20,            u = 2^16, m = 64,
///                 k = 30, eps = 1e-2 (sample = 1% of n),   B = 50%.
/// WAVEMR_SCALE=large multiplies n, u, m by 4 for a closer look.
struct BenchDefaults {
  uint64_t n = uint64_t{1} << 22;
  uint64_t u = uint64_t{1} << 17;
  uint64_t m = 64;
  double alpha = 1.1;
  size_t k = 30;
  /// Paper: eps = 1e-4 puts the sample at 0.75% of n; 0.0056 reproduces that
  /// fraction at the scaled n (1/eps^2 = 31.9k of 4.2M records).
  double epsilon = 0.0056;
  double bandwidth = 0.5;
  uint64_t seed = 42;
  uint32_t record_bytes = 4;
  /// Map-task worker threads (BuildOptions::threads): 1 = serial, 0 = all
  /// hardware threads. Overridden by WAVEMR_THREADS; results are identical
  /// for any value, only wall-clock moves.
  int threads = 1;
  /// Scaled analogue of the paper's 20KB*log2(u) GCS budget (the constant
  /// shrinks with the dataset so the sketch remains smaller than the data;
  /// see EXPERIMENTS.md on what does and does not scale).
  uint64_t gcs_bytes_per_log_u = 2048;

  /// The paper's default record count; cost-model time is scaled by
  /// paper_n / n so simulated seconds are paper-scale (CostModel::time_scale).
  double paper_n = 13.4e9;

  static BenchDefaults FromEnv();

  ZipfDatasetOptions ZipfOptions() const;
  BuildOptions Build() const;
};

/// One algorithm execution, reduced to the three quantities the paper plots
/// plus the real wall-clock the perf CI tracks.
struct Measurement {
  uint64_t comm_bytes = 0;
  double seconds = 0.0;      // simulated, paper-scale
  double sse = 0.0;
  double wall_ms = 0.0;      // real wall-clock of the whole build
  double map_wall_ms = 0.0;  // real wall-clock of the map phases only
  /// Real wall-clock of the sorted-merge reduce deliveries (all rounds).
  double reduce_wall_ms = 0.0;
  /// Worst per-round max/min planned pairs across the equi-depth reduce
  /// ranges (0 when no partitioned sorted round ran); the load-balance
  /// figure the skew-reduce CI record gates.
  double reduce_range_spread = 0.0;
  uint64_t shuffle_bytes = 0;
  uint64_t spill_files = 0;  // external shuffle spill files written
  /// Spill writes that exhausted retries and kept their run resident
  /// (recovery telemetry; 0 on a healthy disk, results unaffected).
  uint64_t spill_fallbacks = 0;
  uint64_t map_records = 0;  // records read by all map phases

  /// Map-side throughput in records/sec (0 when nothing was timed).
  double MapRecordsPerSec() const {
    return map_wall_ms > 0.0
               ? static_cast<double>(map_records) / (map_wall_ms * 1e-3)
               : 0.0;
  }
};

/// Runs `kind` over `ds`; computes SSE against `truth` when provided.
Measurement Run(const Dataset& ds, AlgorithmKind kind, const BuildOptions& opt,
                const std::vector<WCoeff>* truth);

/// One row of a BENCH_<name>.json perf report.
struct BenchRecord {
  std::string algorithm;
  uint64_t n = 0;
  uint64_t u = 0;
  uint64_t m = 0;
  size_t k = 0;
  int threads = 1;
  /// Equi-depth reduce partitions the row ran with (skew-reduce rows).
  int reduce_tasks = 0;
  double wall_ms = 0.0;
  double map_wall_ms = 0.0;
  double map_records_per_sec = 0.0;  // map-side throughput at `threads`
  /// Skew rows: reduce delivery wall-clock and worst per-round max/min
  /// planned pairs per range. In the checked-in baseline, max_spread is the
  /// ceiling the spread is gated against.
  double reduce_wall_ms = 0.0;
  double reduce_range_spread = 0.0;
  double max_spread = 0.0;
  double simulated_s = 0.0;
  uint64_t shuffle_bytes = 0;
  /// Kernel rows only (algorithm == "shuffle-merge-kernel"): measured
  /// merged pairs/sec, and -- in the checked-in baseline -- the required
  /// speedup of the columnar path over the pair-vector reference.
  double pairs_per_sec = 0.0;
  double min_speedup = 0.0;
  /// GCS update kernel rows only (algorithm == "gcs-update-kernel"):
  /// hashed items/sec through the best SIMD tier (scalar when the host has
  /// no vector tier). In the checked-in baseline, items_per_sec is the CI
  /// floor and min_speedup the required SIMD-vs-scalar ratio (not gated on
  /// scalar-only hosts). Sparse Haar kernel rows ("sparse-haar-kernel")
  /// reuse both: input entries/sec through SparseHaar, and its required
  /// ratio over the hash-and-sort reference.
  double items_per_sec = 0.0;
  /// Serve rows only (algorithm == "serve-load"): closed-loop query
  /// throughput against a running wavemr_serve, and its latency tail. In
  /// the checked-in baseline, queries_per_sec is the CI floor.
  double queries_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// Recovery telemetry: spill writes that fell back to resident runs
  /// during the row (omitted from the JSON when 0, the healthy case).
  uint64_t spill_fallbacks = 0;
};

/// Collects BenchRecords and writes them as a JSON array to
/// BENCH_<name>.json (or an explicit path), the schema CI artifacts and the
/// perf-smoke baseline use. Records carry real wall-clock, so files are
/// machine-specific; they are build outputs, not checked-in data.
class BenchJsonReporter {
 public:
  /// Report written to "BENCH_<name>.json" in the working directory.
  explicit BenchJsonReporter(std::string name);

  void Add(BenchRecord record);

  /// Convenience: fold a Measurement + its setup into a record.
  void Add(const std::string& algorithm, const BenchDefaults& d, int threads,
           const Measurement& m);

  const std::vector<BenchRecord>& records() const { return records_; }

  /// Writes the JSON file; returns false (and prints to stderr) on IO error.
  bool WriteFile() const;
  /// As WriteFile, but to an explicit path instead of BENCH_<name>.json.
  bool WriteFileTo(const std::string& path) const;

 private:
  std::string name_;
  std::vector<BenchRecord> records_;
};

/// Parses a BENCH_*.json file written by BenchJsonReporter (or hand-written
/// as a baseline). Unknown fields are ignored; missing numbers default to 0.
bool ReadBenchJson(const std::string& path, std::vector<BenchRecord>* out);

/// The shuffle-merge kernel: the driver-side work of a sorted shuffle over
/// R per-task runs, in both engine generations. The pair-vector reference
/// concatenates the runs into one std::vector<std::pair> and stable_sorts
/// it (the pre-columnar engine's global driver sort); the columnar path
/// sorts each packed run (the work the engine now does on map worker
/// threads) and drains a loser-tree merge. Checksums fold (key, value) in
/// delivery order, so equal checksums prove the two paths produce the same
/// stream.
struct ShuffleKernelOptions {
  uint64_t total_pairs = uint64_t{1} << 22;
  size_t num_runs = 64;
  uint64_t key_domain = uint64_t{1} << 17;
  uint64_t seed = 42;
  /// Give each run its own contiguous slice of the key domain instead of
  /// uniform keys over all of it -- the workload where one run keeps winning
  /// the merge and block-wise delivery collapses the tree walks.
  bool disjoint_runs = false;
};

struct ShuffleKernelResult {
  double pair_vector_pairs_per_sec = 0.0;
  double columnar_pairs_per_sec = 0.0;
  uint64_t pair_vector_checksum = 0;
  uint64_t columnar_checksum = 0;
  /// Merge-only (pre-sorted runs, no run sort in the timed region) rates of
  /// the two RunMerger delivery modes: the default adaptive block-wise drain
  /// (galloped to the runner-up bound after a winner streak) vs the per-pair
  /// replay reference. Their checksums must match; blockwise/per_pair is the
  /// "blockwise-merge" CI floor -- parity by design on the uniform-key
  /// kernel (the adaptive path degrades to the per-pair loop there), gated
  /// at 0.95 in ci_baseline.json to absorb timer noise.
  double merge_blockwise_pairs_per_sec = 0.0;
  double merge_per_pair_pairs_per_sec = 0.0;
  uint64_t merge_blockwise_checksum = 0;
  uint64_t merge_per_pair_checksum = 0;

  double Speedup() const {
    return pair_vector_pairs_per_sec > 0.0
               ? columnar_pairs_per_sec / pair_vector_pairs_per_sec
               : 0.0;
  }
  double BlockwiseSpeedup() const {
    return merge_per_pair_pairs_per_sec > 0.0
               ? merge_blockwise_pairs_per_sec / merge_per_pair_pairs_per_sec
               : 0.0;
  }
};

ShuffleKernelResult RunShuffleMergeKernel(const ShuffleKernelOptions& opt);

/// The external-merge kernel: the same k-way sorted merge once over fully
/// resident runs and once over fully file-backed runs (every run spilled to
/// a temp file in the columnar framing, streamed back through
/// FileRunCursor). Checksums fold (key, value) in delivery order -- equal
/// checksums prove the external path reproduces the resident stream bit for
/// bit; the rate ratio is what a spill actually costs.
struct ExternalMergeKernelOptions {
  uint64_t total_pairs = uint64_t{1} << 22;
  size_t num_runs = 64;
  uint64_t key_domain = uint64_t{1} << 17;
  uint64_t seed = 42;
};

struct ExternalMergeKernelResult {
  double resident_pairs_per_sec = 0.0;
  double external_pairs_per_sec = 0.0;  // includes spill-file read-back
  uint64_t resident_checksum = 0;
  uint64_t external_checksum = 0;
};

ExternalMergeKernelResult RunExternalMergeKernel(
    const ExternalMergeKernelOptions& opt);

/// The GCS update kernel: Send-Sketch's map-side unit of cost, isolated.
/// Two timed comparisons with checksummed outputs:
///  - hash kernel: per-item packed (sign, sub-bucket) resolution for one
///    repetition (Hash2 + Hash4 over GF(2^61-1) plus the sub-bucket
///    reduction), scalar table vs the best runtime tier (core/simd.h),
///    through the block kernel in both so the ratio isolates the vector math;
///  - full UpdateBatch over sorted items under a forced scalar tier vs the
///    best tier (group caching and counter writes included -- the
///    end-to-end map effect).
/// Equal checksums prove the tiers computed identical hashes / tables.
struct GcsUpdateKernelOptions {
  uint64_t total_items = uint64_t{1} << 21;
  uint64_t domain = uint64_t{1} << 17;
  size_t reps = 5;
  size_t buckets = 64;
  size_t subbuckets = 8;
  uint32_t group_shift = 3;
  uint64_t seed = 42;
};

struct GcsUpdateKernelResult {
  SimdTier tier = SimdTier::kScalar;  ///< best tier actually measured
  double scalar_hash_items_per_sec = 0.0;
  double simd_hash_items_per_sec = 0.0;
  uint64_t scalar_hash_checksum = 0;
  uint64_t simd_hash_checksum = 0;
  double scalar_update_items_per_sec = 0.0;
  double simd_update_items_per_sec = 0.0;
  uint64_t scalar_update_checksum = 0;
  uint64_t simd_update_checksum = 0;

  double HashSpeedup() const {
    return scalar_hash_items_per_sec > 0.0
               ? simd_hash_items_per_sec / scalar_hash_items_per_sec
               : 0.0;
  }
  double UpdateSpeedup() const {
    return scalar_update_items_per_sec > 0.0
               ? simd_update_items_per_sec / scalar_update_items_per_sec
               : 0.0;
  }
};

GcsUpdateKernelResult RunGcsUpdateKernel(const GcsUpdateKernelOptions& opt);

/// The sparse Haar kernel: the exact methods' per-split transform (Send-Coef
/// and H-WTopk round-1 mappers), isolated. Every split's frequency vector of
/// a Zipf dataset goes through SparseHaar (index-addressed level
/// accumulators) and through SparseHaarHashSort, the hash-and-sort path it
/// replaced. Checksums fold every output coefficient's index and value bits
/// in output order, so equal checksums prove the two paths emit the same
/// coefficients in the same order. Rates are the best of `shots` timed
/// passes over all splits.
struct SparseHaarKernelOptions {
  uint64_t num_records = uint64_t{1} << 22;
  uint64_t domain = uint64_t{1} << 17;
  uint64_t num_splits = 64;
  double alpha = 1.1;
  uint64_t seed = 42;
  size_t shots = 3;
};

struct SparseHaarKernelResult {
  uint64_t entries = 0;  ///< input (key, weight) entries over all splits
  double flat_entries_per_sec = 0.0;
  double hash_sort_entries_per_sec = 0.0;
  uint64_t flat_checksum = 0;
  uint64_t hash_sort_checksum = 0;

  double Speedup() const {
    return hash_sort_entries_per_sec > 0.0
               ? flat_entries_per_sec / hash_sort_entries_per_sec
               : 0.0;
  }
};

SparseHaarKernelResult RunSparseHaarKernel(const SparseHaarKernelOptions& opt);

/// Reference for the sparse-haar-kernel record: the sparse Haar transform as
/// it ran before its level accumulators became index-addressed. Every
/// coefficient goes through one FlatHashCounter, then the whole output is
/// sorted by index. Same output bits as SparseHaar.
std::vector<WCoeff> SparseHaarHashSort(const SparseVector& v, uint64_t u);

/// Aligned fixed-width table printer (one per sub-figure).
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formatting helpers: scientific for the paper's log-scale axes.
std::string FmtBytes(uint64_t bytes);
std::string FmtSeconds(double s);
std::string FmtSci(double v);

/// Prints the figure banner: what the paper plots, and the scaled-vs-paper
/// parameter mapping.
void PrintFigureHeader(const std::string& figure, const std::string& paper_setup,
                       const BenchDefaults& d);

}  // namespace bench
}  // namespace wavemr

#endif  // WAVEMR_BENCH_COMMON_BENCH_COMMON_H_
