// Key-major reference for the sparse Haar transform: each point update walks
// its error-tree path and adds into a coefficient map. It is the textbook
// form of Gilbert et al.'s algorithm and the oracle SparseHaar's level-major,
// index-addressed accumulation is compared against bit for bit: both add
// every coefficient's contributions in v's order with the same IEEE ops.
#ifndef WAVEMR_TESTS_WAVELET_SPARSE_REFERENCE_H_
#define WAVEMR_TESTS_WAVELET_SPARSE_REFERENCE_H_

#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "core/bitops.h"
#include "wavelet/sparse.h"

namespace wavemr {
namespace reference {

/// Adds the contribution of a single point update v(x) += weight into an
/// accumulator map of coefficients. O(log u).
inline void AccumulatePointUpdate(uint64_t x, double weight, uint64_t u,
                                  std::unordered_map<uint64_t, double>* coeffs) {
  const uint32_t levels = Log2Floor(u);
  (*coeffs)[0] += weight / std::sqrt(static_cast<double>(u));
  for (uint32_t j = 0; j < levels; ++j) {
    uint64_t block = u >> j;
    uint64_t k = x / block;
    uint64_t offset = x - k * block;
    double mag = weight / std::sqrt(static_cast<double>(block));
    uint64_t index = (uint64_t{1} << j) + k;
    (*coeffs)[index] += (offset < block / 2) ? -mag : mag;
  }
}

/// The full transform as a coefficient map; entries that cancelled to zero
/// are kept (SparseHaar drops them).
inline std::unordered_map<uint64_t, double> SparseHaarMap(const SparseVector& v,
                                                         uint64_t u) {
  std::unordered_map<uint64_t, double> coeffs;
  coeffs.reserve(v.size() * 2);
  for (const auto& [key, weight] : v) {
    AccumulatePointUpdate(key, weight, u, &coeffs);
  }
  return coeffs;
}

}  // namespace reference
}  // namespace wavemr

#endif  // WAVEMR_TESTS_WAVELET_SPARSE_REFERENCE_H_
