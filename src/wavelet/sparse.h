#ifndef WAVEMR_WAVELET_SPARSE_H_
#define WAVEMR_WAVELET_SPARSE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "wavelet/coefficient.h"

namespace wavemr {

/// A sparse frequency vector: (key, weight) pairs with distinct keys over
/// domain [0, u). Weights are doubles so the same code paths serve exact
/// counts and sampled estimates.
using SparseVector = std::vector<std::pair<uint64_t, double>>;

/// Sparse forward Haar transform in O(|v| log u) time and
/// O(min(u, 8·|v|) + output) space: each nonzero entry contributes to
/// exactly log2(u)+1 coefficients (its error-tree path). This is the
/// algorithm of Gilbert et al. [20] that the paper uses inside mappers
/// instead of the O(u) dense transform. The coarse levels accumulate in one
/// index-addressed array; only levels wider than that array hash.
/// Returns the nonzero coefficients, sorted by index.
/// u must be a power of two; all keys must be < u.
std::vector<WCoeff> SparseHaar(const SparseVector& v, uint64_t u);

/// Number of coefficient updates a point update performs (log2(u) + 1);
/// exposed so cost accounting in the MapReduce layer matches the algorithm.
uint32_t PointUpdateFanout(uint64_t u);

}  // namespace wavemr

#endif  // WAVEMR_WAVELET_SPARSE_H_
