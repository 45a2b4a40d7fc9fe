// Correctness gate of the benchmark. Exact builds are compared with a
// reference computed at setup by the *dense* Haar transform of the exact
// frequency counts (independent of the SparseHaar path the algorithms use);
// every build's coefficient bits are digested so a repeated build that
// drifts is caught; SSE ratios are taken against the best k-term synopsis.
#ifndef PERFBENCH_HARNESS_CHECK_H_
#define PERFBENCH_HARNESS_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "serve/snapshot.h"
#include "wavelet/coefficient.h"
#include "wavelet/histogram.h"

namespace perfbench {

struct Reference {
  uint64_t u = 1;
  size_t k = 0;
  std::vector<double> dense;             // all u coefficients
  std::vector<wavemr::WCoeff> nonzero;   // the true coefficients
  size_t terms = 0;                      // min(k, #nonzero)
  double kth_magnitude = 0.0;            // smallest magnitude a top-k term has
  double tolerance = 0.0;                // dense vs sparse rounding allowance
  double ideal_sse = 0.0;                // SSE of the best k-term synopsis
};

Reference ComputeReference(const wavemr::Dataset& dataset, size_t k);

/// FNV-1a over the synopsis' (index, value bits) and the domain size.
uint64_t Digest(const wavemr::WaveletHistogram& histogram);

struct CheckOutcome {
  bool ok = true;
  std::string why;          // first failure, empty when ok
  double sse_ratio = 0.0;   // SSE(synopsis) / SSE(best k-term)
};

/// Exact methods: a top-k of the reference, values equal within rounding.
CheckOutcome CheckExact(const wavemr::WaveletHistogram& histogram,
                        const Reference& ref);
/// Approximate methods: a well-formed k-term synopsis that does not beat
/// the best k-term synopsis.
CheckOutcome CheckApprox(const wavemr::WaveletHistogram& histogram,
                         const Reference& ref);

double SseRatio(const wavemr::HistogramSnapshot& snapshot, const Reference& ref);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_CHECK_H_
