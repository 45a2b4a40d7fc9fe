#ifndef WAVEMR_APPROX_SEND_SKETCH_H_
#define WAVEMR_APPROX_SEND_SKETCH_H_

#include "histogram/algorithm.h"

namespace wavemr {

/// Send-Sketch (Section 4, "system issues"): each mapper scans its split,
/// builds the local frequency vector, feeds it into a local GCS wavelet
/// sketch, and ships only the non-zero sketch counters (the paper's second
/// optimization). The reducer merges the m linear sketches and extracts the
/// top-k coefficients by hierarchical search. One round, but the per-item
/// sketch update cost makes it the slowest method in the paper's Figure 5(b).
///
/// The paper's mapper updates the sketch once per *distinct* key (its first
/// optimization), i.e. on each of the key's log2(u)+1 error-tree
/// coefficients; the simulated cost charges exactly that. The real mapper
/// sketches the split's nonzero Haar coefficients instead, each once
/// (WaveletGcs::UpdateSortedData): the same linear map of the same data,
/// summed in a different floating-point order.
class SendSketch : public HistogramAlgorithm {
 public:
  std::string name() const override { return "Send-Sketch"; }
  StatusOr<BuildResult> Build(const Dataset& dataset,
                              const BuildOptions& options) override;
};

/// The sketch configuration every Send-Sketch mapper and the reducer share:
/// options.gcs with its seed derived from the run seed, so all of them draw
/// identical hash functions.
WaveletGcsOptions SendSketchGcsOptions(const BuildOptions& options);

}  // namespace wavemr

#endif  // WAVEMR_APPROX_SEND_SKETCH_H_
