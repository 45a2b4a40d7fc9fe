#include "wavelet/sparse.h"

#include <algorithm>
#include <cmath>

#include "core/bitops.h"
#include "core/flat_hash.h"
#include "core/logging.h"
#include "core/simd.h"

namespace wavemr {

namespace {

// Coefficient level j owns exactly the index block [2^j, 2^(j+1)), so every
// level with 2^j <= max(kMinDenseSlots, kDenseSlotsPerEntry * |v|) shares one
// flat accumulator indexed by coefficient index. Wider levels (huge sparse
// domains) hash, which keeps the space bound at O(|v|) per level.
constexpr uint64_t kMinDenseSlots = 64;
constexpr uint64_t kDenseSlotsPerEntry = 8;

}  // namespace

uint32_t PointUpdateFanout(uint64_t u) { return Log2Floor(u) + 1; }

std::vector<WCoeff> SparseHaar(const SparseVector& v, uint64_t u) {
  WAVEMR_DCHECK(IsPowerOfTwo(u));
  const uint32_t levels = Log2Floor(u);
  const size_t n = v.size();
  const uint64_t cap = std::max<uint64_t>(kMinDenseSlots, kDenseSlotsPerEntry * n);
  const uint32_t dense_levels = std::min(levels, Log2Floor(cap) + 1);

  // Level-major restructuring of the per-key error-tree walk: one pass over
  // the keys per coefficient level, with that level's sqrt hoisted out of
  // the loop and the per-key block arithmetic reduced to shift/mask. The
  // per-key index and signed magnitude of each level run through the
  // dispatched SIMD kernel (core/simd.h) into flat scratch arrays -- the
  // divide is the hot op and vectorizes 4-wide -- and the accumulation then
  // applies them in v's order. Per coefficient the contributions therefore
  // arrive in v's order, exactly as in the key-major walk (a level touches
  // disjoint indices), and the kernel's divide/sign-flip are IEEE-exact, so
  // the result is bit-identical to the key-major reference in every tier
  // (sparse_test and the golden digests prove it). Slot 0 holds the average.
  std::vector<double> dense(uint64_t{1} << dense_levels, 0.0);
  const double sqrt_u = std::sqrt(static_cast<double>(u));
  std::vector<uint64_t> keys(n);
  std::vector<double> weights(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& [key, weight] = v[i];
    WAVEMR_DCHECK(key < u);
    dense[0] += weight / sqrt_u;
    keys[i] = key;
    weights[i] = weight;
  }
  const SimdKernels& simd = SimdK();
  std::vector<uint64_t> idx(n);
  std::vector<double> val(n);
  // Nonzero coefficients of the hashed levels, each level sorted on its own;
  // levels ascend, so the concatenation is sorted.
  std::vector<WCoeff> hashed;
  for (uint32_t j = 0; j < levels; ++j) {
    const uint64_t block = u >> j;
    const uint64_t half = block / 2;
    const uint64_t base = uint64_t{1} << j;
    const uint32_t shift = levels - j;  // log2(block)
    const double sqrt_block = std::sqrt(static_cast<double>(block));
    simd.sparse_level(keys.data(), weights.data(), n, shift, block - 1, half,
                      base, sqrt_block, idx.data(), val.data());
    if (j < dense_levels) {
      for (size_t i = 0; i < n; ++i) dense[idx[i]] += val[i];
      continue;
    }
    FlatHashCounter<uint64_t, double> level;
    level.reserve(n);
    for (size_t i = 0; i < n; ++i) level[idx[i]] += val[i];
    const size_t first = hashed.size();
    for (const auto& [index, value] : level) {
      if (value != 0.0) hashed.push_back({index, value});
    }
    std::sort(hashed.begin() + first, hashed.end(),
              [](const WCoeff& a, const WCoeff& b) { return a.index < b.index; });
  }

  // Contributions can cancel exactly (balanced blocks); drop the zeros so
  // downstream code really sees only nonzero coefficients.
  const size_t dense_nonzeros =
      dense.size() - static_cast<size_t>(std::count(dense.begin(), dense.end(), 0.0));
  std::vector<WCoeff> out;
  out.reserve(dense_nonzeros + hashed.size());
  for (uint64_t index = 0; index < dense.size(); ++index) {
    if (dense[index] != 0.0) out.push_back({index, dense[index]});
  }
  out.insert(out.end(), hashed.begin(), hashed.end());
  return out;
}

}  // namespace wavemr
