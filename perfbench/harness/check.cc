#include "check.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "data/frequency.h"
#include "serve/estimator.h"
#include "wavelet/haar.h"
#include "wavelet/topk.h"

namespace perfbench {

using wavemr::WCoeff;

Reference ComputeReference(const wavemr::Dataset& dataset, size_t k) {
  Reference ref;
  ref.u = dataset.info().domain_size;
  ref.k = k;
  std::vector<double> counts(ref.u, 0.0);
  for (const auto& [key, count] : wavemr::BuildFrequencyMap(dataset)) {
    counts[key] = static_cast<double>(count);
  }
  ref.dense = wavemr::ForwardHaar(counts);
  double max_abs = 0.0;
  for (uint64_t i = 0; i < ref.u; ++i) {
    if (ref.dense[i] != 0.0) ref.nonzero.push_back(WCoeff{i, ref.dense[i]});
    max_abs = std::max(max_abs, std::fabs(ref.dense[i]));
  }
  ref.tolerance = 1e-9 * std::max(1.0, max_abs);
  const std::vector<WCoeff> top = wavemr::TopKByMagnitude(ref.nonzero, k);
  ref.terms = top.size();
  ref.kth_magnitude = top.empty() ? 0.0 : std::fabs(top.back().value);
  ref.ideal_sse = wavemr::IdealSse(ref.nonzero, k);
  return ref;
}

uint64_t Digest(const wavemr::WaveletHistogram& histogram) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(histogram.domain_size());
  for (const WCoeff& c : histogram.coefficients()) {
    mix(c.index);
    mix(std::bit_cast<uint64_t>(c.value));
  }
  return h;
}

double SseRatio(const wavemr::HistogramSnapshot& snapshot, const Reference& ref) {
  const double sse = wavemr::SseAgainstTrueCoefficients(snapshot, ref.nonzero);
  if (ref.ideal_sse <= 0.0) return sse <= ref.tolerance ? 1.0 : HUGE_VAL;
  return sse / ref.ideal_sse;
}

namespace {

CheckOutcome Fail(std::string why) {
  CheckOutcome out;
  out.ok = false;
  out.why = std::move(why);
  return out;
}

// Shape checks shared by both kinds: domain, term budget, index range.
bool WellFormed(const wavemr::WaveletHistogram& h, const Reference& ref,
                std::string* why) {
  if (h.domain_size() != ref.u) {
    *why = "domain " + std::to_string(h.domain_size()) + " != " +
           std::to_string(ref.u);
    return false;
  }
  if (h.num_terms() > ref.k) {
    *why = std::to_string(h.num_terms()) + " terms > k";
    return false;
  }
  for (const WCoeff& c : h.coefficients()) {
    if (c.index >= ref.u || !std::isfinite(c.value)) {
      *why = "bad coefficient at index " + std::to_string(c.index);
      return false;
    }
  }
  return true;
}

}  // namespace

CheckOutcome CheckExact(const wavemr::WaveletHistogram& h, const Reference& ref) {
  std::string why;
  if (!WellFormed(h, ref, &why)) return Fail(why);
  if (h.num_terms() != ref.terms) {
    return Fail(std::to_string(h.num_terms()) + " terms, reference has " +
                std::to_string(ref.terms));
  }
  for (const WCoeff& c : h.coefficients()) {
    const double want = ref.dense[c.index];
    if (std::fabs(c.value - want) > ref.tolerance) {
      return Fail("coefficient " + std::to_string(c.index) + " = " +
                  std::to_string(c.value) + ", reference " + std::to_string(want));
    }
    // Any index whose true magnitude reaches the k-th largest is a valid
    // top-k member (ties at the boundary may resolve either way).
    if (std::fabs(want) < ref.kth_magnitude - ref.tolerance) {
      return Fail("coefficient " + std::to_string(c.index) + " is not in the top k");
    }
  }
  CheckOutcome out;
  out.sse_ratio = SseRatio(wavemr::HistogramSnapshot::FromHistogram(h), ref);
  return out;
}

CheckOutcome CheckApprox(const wavemr::WaveletHistogram& h, const Reference& ref) {
  std::string why;
  if (!WellFormed(h, ref, &why)) return Fail(why);
  CheckOutcome out;
  out.sse_ratio = SseRatio(wavemr::HistogramSnapshot::FromHistogram(h), ref);
  if (!(out.sse_ratio >= 1.0 - 1e-9)) {
    return Fail("SSE ratio " + std::to_string(out.sse_ratio) +
                " beats the best k-term synopsis");
  }
  return out;
}

}  // namespace perfbench
