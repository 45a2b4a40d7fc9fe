#include "sketch/group_count_sketch.h"

#include <algorithm>

#include "core/logging.h"
#include "core/simd.h"

namespace wavemr {

namespace {

constexpr uint64_t kPrime = PolyHash::kPrime;

// Degree-2/4 polynomials over GF(2^61 - 1) in the exact Horner order of
// PolyHash::Hash (shared with the SIMD scalar reference via core/hash.h),
// so values are bit-identical however they are computed.
inline uint64_t Hash2(const uint64_t c[2], uint64_t xr) {
  return PolyHash2(c, xr);
}

inline uint64_t Hash4(const uint64_t c[4], uint64_t xr) {
  return PolyHash4(c, xr);
}

void CopyCoeffs(const PolyHash& hash, uint64_t* out, size_t degree) {
  const std::vector<uint64_t>& coeffs = hash.coeffs();
  WAVEMR_CHECK_EQ(coeffs.size(), degree);
  std::copy(coeffs.begin(), coeffs.end(), out);
}

}  // namespace

GroupCountSketch::GroupCountSketch(uint64_t seed, size_t reps, size_t buckets,
                                   size_t subbuckets)
    : reps_(reps),
      buckets_(buckets),
      subbuckets_(subbuckets),
      seed_(seed) {
  WAVEMR_CHECK_GE(reps, 1u);
  WAVEMR_CHECK_LE(reps, kMaxReps);
  WAVEMR_CHECK_GE(buckets, 1u);
  WAVEMR_CHECK_GE(subbuckets, 1u);
  // UpdateBatch packs each item's sub-bucket and sign into one 32-bit slot.
  WAVEMR_CHECK_LE(subbuckets, size_t{1} << 30)
      << "sub-bucket index must fit the 31-bit packed slot";
  table_.assign(reps * buckets * subbuckets, 0.0);
  rep_hash_.resize(reps);
  for (size_t r = 0; r < reps; ++r) {
    CopyCoeffs(PolyHash(Mix64(seed ^ (3 * r + 1)), 2), rep_hash_[r].g, 2);
    CopyCoeffs(PolyHash(Mix64(seed ^ (3 * r + 2)), 2), rep_hash_[r].i, 2);
    CopyCoeffs(PolyHash(Mix64(seed ^ (3 * r + 3)), 4), rep_hash_[r].s, 4);
  }
  // Lane-major coefficient copy for the 4-wide query kernels, padded with
  // the last rep so a partial final chunk still reads valid coefficients.
  const size_t padded = (reps + 3) & ~size_t{3};
  lanes_.g0.resize(padded);
  lanes_.g1.resize(padded);
  lanes_.i0.resize(padded);
  lanes_.i1.resize(padded);
  lanes_.s0.resize(padded);
  lanes_.s1.resize(padded);
  lanes_.s2.resize(padded);
  lanes_.s3.resize(padded);
  for (size_t r = 0; r < padded; ++r) {
    const RepHash& h = rep_hash_[std::min(r, reps - 1)];
    lanes_.g0[r] = h.g[0];
    lanes_.g1[r] = h.g[1];
    lanes_.i0[r] = h.i[0];
    lanes_.i1[r] = h.i[1];
    lanes_.s0[r] = h.s[0];
    lanes_.s1[r] = h.s[1];
    lanes_.s2[r] = h.s[2];
    lanes_.s3[r] = h.s[3];
  }
}

void GroupCountSketch::Update(uint64_t group, uint64_t item, double value) {
  const uint64_t gr = group % kPrime;
  const uint64_t ir = item % kPrime;
  const size_t row_stride = buckets_ * subbuckets_;
  double* rep_row = table_.data();
  for (size_t r = 0; r < reps_; ++r, rep_row += row_stride) {
    const RepHash& h = rep_hash_[r];
    double* cell = rep_row + (Hash2(h.g, gr) % buckets_) * subbuckets_ +
                   Hash2(h.i, ir) % subbuckets_;
    *cell += (Hash4(h.s, ir) & 1) ? value : -value;
  }
}

void GroupCountSketch::UpdateBatch(const uint64_t* items, const double* values,
                                   size_t n, uint32_t group_shift) {
  // Blocked rep-outer loop, two passes per (block, rep). Pass 1 hashes the
  // block's items into packed (sign, sub-bucket) slots with one
  // gcs_sub_sign_block call on the active SIMD tier: one indirect call per
  // (block, rep) is what lets the vector tier pay off, where a per-item call
  // would cost more than the vector hash saves. Pass 2 applies the adds in
  // input order, reusing the group row across runs of items sharing a
  // dyadic group. The block bound keeps the item/value stream L1-resident
  // across the `reps` passes. Hash values are exact integers in every tier,
  // so each cell receives the same values in the same order as n calls to
  // Update: the table is bit-identical.
  constexpr size_t kBlock = 256;
  const SimdKernels& k = SimdK();
  const bool pow2 = (subbuckets_ & (subbuckets_ - 1)) == 0;
  const uint64_t sub_mask = pow2 ? subbuckets_ - 1 : 0;
  const size_t row_stride = buckets_ * subbuckets_;
  uint32_t packed[kBlock];
  for (size_t base = 0; base < n; base += kBlock) {
    const size_t len = std::min(n - base, kBlock);
    const uint64_t* block_items = items + base;
    const double* block_values = values + base;
    double* rep_row = table_.data();
    for (size_t r = 0; r < reps_; ++r, rep_row += row_stride) {
      const RepHash& h = rep_hash_[r];
      k.gcs_sub_sign_block(h.i, h.s, block_items, len, subbuckets_, sub_mask,
                           packed);
      uint64_t cached_group = ~uint64_t{0};
      double* row = nullptr;
      for (size_t i = 0; i < len; ++i) {
        const uint64_t group =
            group_shift >= 64 ? 0 : block_items[i] >> group_shift;
        if (group != cached_group || row == nullptr) {
          cached_group = group;
          row = rep_row + (Hash2(h.g, group % kPrime) % buckets_) * subbuckets_;
        }
        const uint32_t slot = packed[i];
        const double value = block_values[i];
        row[slot & 0x7FFFFFFFu] += (slot >> 31) != 0 ? value : -value;
      }
    }
  }
}

double GroupCountSketch::GroupEnergy(uint64_t group) const {
  // Group hashes run 4 repetitions per vector lane-group; the per-bucket
  // sum of squares goes through the dispatch kernel, whose fixed
  // accumulation order is identical in every tier (core/simd.h), so the
  // estimate is the same bit pattern whatever tier is active.
  const SimdKernels& k = SimdK();
  double est[kMaxReps];
  uint64_t hg[kMaxReps];
  const uint64_t gr = group % kPrime;
  const uint64_t xg[4] = {gr, gr, gr, gr};
  for (size_t r0 = 0; r0 < reps_; r0 += 4) {
    k.hash2_x4(&lanes_.g0[r0], &lanes_.g1[r0], xg, &hg[r0]);
  }
  for (size_t r = 0; r < reps_; ++r) {
    const size_t bucket = hg[r] % buckets_;
    const double* cell = &table_[(r * buckets_ + bucket) * subbuckets_];
    est[r] = k.sum_squares(cell, subbuckets_);
  }
  std::nth_element(est, est + reps_ / 2, est + reps_);
  return est[reps_ / 2];
}

double GroupCountSketch::EstimateItem(uint64_t group, uint64_t item) const {
  // All three hash families run 4 repetitions per vector lane-group (the
  // coefficient lanes were transposed at construction); the gathers and the
  // median stay scalar. Hash values are exact, so estimates are bit-equal
  // to the per-rep scalar loop in every tier.
  const SimdKernels& k = SimdK();
  double est[kMaxReps];
  uint64_t hg[kMaxReps], hi[kMaxReps], hs[kMaxReps];
  const uint64_t gr = group % kPrime;
  const uint64_t ir = item % kPrime;
  const uint64_t xg[4] = {gr, gr, gr, gr};
  const uint64_t xi[4] = {ir, ir, ir, ir};
  for (size_t r0 = 0; r0 < reps_; r0 += 4) {
    k.hash2_x4(&lanes_.g0[r0], &lanes_.g1[r0], xg, &hg[r0]);
    k.hash2_x4(&lanes_.i0[r0], &lanes_.i1[r0], xi, &hi[r0]);
    k.hash4_x4(&lanes_.s0[r0], &lanes_.s1[r0], &lanes_.s2[r0], &lanes_.s3[r0],
               xi, &hs[r0]);
  }
  for (size_t r = 0; r < reps_; ++r) {
    const double cell = table_[(r * buckets_ + hg[r] % buckets_) * subbuckets_ +
                               hi[r] % subbuckets_];
    est[r] = (hs[r] & 1) ? cell : -cell;
  }
  std::nth_element(est, est + reps_ / 2, est + reps_);
  return est[reps_ / 2];
}

void GroupCountSketch::Merge(const GroupCountSketch& other) {
  // Structural assertions up front (equal table sizes do NOT imply equal
  // geometry -- 2x8x4 and 4x4x4 tables are both 64 cells), then one tight
  // pointer loop over the counters.
  WAVEMR_CHECK_EQ(seed_, other.seed_);
  WAVEMR_CHECK_EQ(reps_, other.reps_);
  WAVEMR_CHECK_EQ(buckets_, other.buckets_);
  WAVEMR_CHECK_EQ(subbuckets_, other.subbuckets_);
  const double* src = other.table_.data();
  double* dst = table_.data();
  const size_t n = table_.size();
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
}

uint64_t GroupCountSketch::NonzeroCounters() const {
  uint64_t n = 0;
  for (double v : table_) n += (v != 0.0) ? 1 : 0;
  return n;
}

}  // namespace wavemr
