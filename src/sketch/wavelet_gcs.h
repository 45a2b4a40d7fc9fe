#ifndef WAVEMR_SKETCH_WAVELET_GCS_H_
#define WAVEMR_SKETCH_WAVELET_GCS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sketch/group_count_sketch.h"
#include "wavelet/coefficient.h"

namespace wavemr {

/// Configuration of the hierarchical GCS wavelet tracker.
struct WaveletGcsOptions {
  uint64_t seed = 1;
  /// Median repetitions per level (t in the EDBT'06 paper).
  size_t reps = 3;
  /// Sub-buckets per bucket (c).
  size_t subbuckets = 8;
  /// Search degree bits: groups shrink by 2^degree_bits per level. 3 gives
  /// the paper's GCS-8 ("overall best per-item update cost").
  uint32_t degree_bits = 3;
  /// Total space across all levels; 0 applies the paper's recommended
  /// 20 KB * log2(u).
  uint64_t total_bytes = 0;
};

/// Wavelet-domain synopsis built from Group-Count Sketches over a dyadic
/// hierarchy of coefficient groups (Cormode et al. [13]): level 0 sketches
/// singleton coefficients, level l sketches groups of 2^(l*degree_bits)
/// consecutive coefficient indices. Every coefficient update touches every
/// level in every repetition. The paper's Send-Sketch mapper pays that cost
/// for each of the log2(u)+1 coefficients on each key's error-tree path --
/// the multiplicative per-item cost behind its loss of the running-time race
/// in Figure 5(b). Because the sketch is linear, UpdateSortedData instead
/// sketches a whole split's nonzero Haar coefficients, each entered once.
///
/// Heavy coefficients are recovered by descending the hierarchy from the
/// root, expanding only groups whose estimated energy clears a threshold.
class WaveletGcs {
 public:
  /// Deepest supported error tree (u <= 2^60); bounds the stack buffers the
  /// bulk update path uses.
  static constexpr uint32_t kMaxTreeDepth = 60;

  WaveletGcs(uint64_t u, const WaveletGcsOptions& options);

  uint64_t domain_size() const { return u_; }
  size_t num_levels() const { return levels_.size(); }

  /// v(x) += count in the *data* domain (translates to log2(u)+1 coefficient
  /// updates).
  void UpdateData(uint64_t x, double count);

  /// v(keys[i]) += weights[i] for all i, with keys strictly ascending. The
  /// sparse Haar transform of the points is computed level by level and each
  /// nonzero coefficient is sketched once, so the counters equal, bit for
  /// bit, UpdateCoeff(c.index, c.value) over SparseHaar(v, u) in index order.
  /// That differs from n UpdateData calls only in floating-point summation
  /// order.
  void UpdateSortedData(const uint64_t* keys, const double* weights, size_t n);

  /// w(index) += delta in the coefficient domain.
  void UpdateCoeff(uint64_t index, double delta);

  /// Point estimate of coefficient `index` from the singleton level.
  double EstimateCoeff(uint64_t index) const;

  /// Estimated total coefficient energy (from the root level's groups).
  double EstimateEnergy() const;

  /// Hierarchical search for the k coefficients of largest |estimate|. The
  /// threshold starts at energy/(2k) and halves until enough candidates
  /// emerge (bounded by max_candidates to keep the search near O(k)). A
  /// sketch with zero energy (no data) yields no terms.
  std::vector<WCoeff> FindTopK(size_t k, size_t max_candidates = 8192) const;

  void Merge(const WaveletGcs& other);

  /// Counter updates performed per data-domain point update; used by the
  /// MapReduce layer to charge CPU faithfully.
  uint64_t CounterUpdatesPerDataPoint() const;

  /// Total and non-zero counters (a mapper ships only the non-zero ones).
  size_t NumCounters() const;
  uint64_t NonzeroCounters() const;

  /// Iterates non-zero counters as (flat_index, value) across all levels --
  /// the wire format of Send-Sketch.
  void ForEachNonzeroCounter(const std::function<void(uint64_t, double)>& fn) const;

  /// Adds `delta` into the counter with the given flat index (reducer-side
  /// merge from shuffled pairs).
  void AddToFlatCounter(uint64_t flat_index, double delta);

 private:
  uint64_t GroupAtLevel(uint64_t index, size_t level) const {
    return index >> (degree_bits_ * level);
  }
  uint64_t NumGroupsAtLevel(size_t level) const;
  /// Applies coefficient deltas (ascending indices) to every sketch level.
  void ApplyCoeffBatch(const uint64_t* indices, const double* deltas, size_t n);

  uint64_t u_;
  uint32_t degree_bits_;
  std::vector<GroupCountSketch> levels_;
  std::vector<uint64_t> level_offsets_;  // flat counter index base per level
};

}  // namespace wavemr

#endif  // WAVEMR_SKETCH_WAVELET_GCS_H_
