// Golden digests: the absolute anchor of the determinism contract. The other
// determinism suites compare configurations against each other (threads,
// reduce tasks, spill, SIMD tier), so a change that shifts every
// configuration the same way would pass them all. This suite pins fixed-seed
// outputs to the digests checked in next to it (digests.txt):
//
//   * SparseHaar's coefficient bits on the dense-array and hashed-level
//     regimes and the edge cases (empty, u=2, repeated keys, domain
//     endpoints, exact cancellation);
//   * every algorithm on a small Zipf dataset and on the edge datasets
//     (n=0, all-equal keys, u=2, a sparse Zipf over u=2^20): synopsis
//     coefficient bits, total communication bytes and simulated seconds (as
//     IEEE bits).
//
// digests.txt changes only together with a change that explains why the
// output bits moved. To regenerate it, run this binary with
// --gtest_also_run_disabled_tests --gtest_filter='*PrintDigests' and copy
// the lines between the markers.
#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/rng.h"
#include "data/dataset.h"
#include "data/frequency.h"
#include "histogram/builder.h"
#include "wavelet/sparse.h"

namespace wavemr {
namespace {

using Digests = std::map<std::string, std::string>;

std::string Hex(uint64_t x) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, x);
  return buf;
}

/// "<count>:<fold>" over (index, value bits) in output order, so both the
/// order and every bit of every coefficient are covered.
std::string CoeffDigest(const std::vector<WCoeff>& coeffs) {
  uint64_t h = Mix64(coeffs.size() + 0x9e3779b97f4a7c15ULL);
  for (const WCoeff& c : coeffs) {
    h = Mix64(h ^ c.index);
    h = Mix64(h ^ std::bit_cast<uint64_t>(c.value));
  }
  return std::to_string(coeffs.size()) + ":" + Hex(h);
}

SparseVector RandomVector(uint64_t seed, uint64_t u, int n) {
  Rng rng(seed);
  SparseVector v;
  for (int i = 0; i < n; ++i) {
    v.emplace_back(rng.NextBounded(u), (rng.NextDouble() - 0.5) * 100.0);
  }
  return v;
}

void AddSparseHaarDigests(Digests* out) {
  struct Case {
    const char* name;
    SparseVector v;
    uint64_t u;
  };
  SparseVector cancel_pairs;
  for (uint64_t i = 0; i < 32; ++i) {
    const double w = 1.0 + static_cast<double>(i % 5);
    cancel_pairs.emplace_back(4 * i, w);
    cancel_pairs.emplace_back(4 * i + 1, w);
  }
  const std::vector<Case> cases = {
      {"dense_u4096_n500", RandomVector(11, 4096, 500), 4096},
      {"dense_u8192_n700", RandomVector(77, 8192, 700), 8192},
      {"hybrid_u1048576_n100", RandomVector(21, uint64_t{1} << 20, 100),
       uint64_t{1} << 20},
      {"hybrid_u1048576_n2000", RandomVector(22, uint64_t{1} << 20, 2000),
       uint64_t{1} << 20},
      {"empty_u64", {}, 64},
      {"u2", {{0, 3.0}, {1, -1.25}}, 2},
      {"repeated_key", {{777, 1.5}, {777, -0.25}, {777, 3.0}, {777, 0.125}}, 1024},
      {"endpoints_u1048576", {{0, 2.5}, {(uint64_t{1} << 20) - 1, -7.0}},
       uint64_t{1} << 20},
      {"cancel_pairs_u256", cancel_pairs, 256},
      {"cancel_average_u256", {{3, 1.5}, {200, -1.5}}, 256},
  };
  for (const Case& c : cases) {
    (*out)[std::string("sparse_haar.") + c.name] = CoeffDigest(SparseHaar(c.v, c.u));
  }
}

ZipfDataset GoldenDataset() {
  ZipfDatasetOptions opt;
  opt.num_records = 1 << 15;
  opt.domain_size = 1 << 16;
  opt.alpha = 1.1;
  opt.num_splits = 16;
  opt.seed = 2011;
  return ZipfDataset(opt);
}

/// A few thousand distinct keys scattered over a 2^20 domain: the regime
/// where SparseHaar hashes its widest levels and the sketch is mostly empty.
ZipfDataset SparseZipfDataset() {
  ZipfDatasetOptions opt;
  opt.num_records = 1 << 14;
  opt.domain_size = uint64_t{1} << 20;
  opt.alpha = 1.1;
  opt.num_splits = 8;
  opt.seed = 2012;
  return ZipfDataset(opt);
}

InMemoryDataset EmptyDataset() {
  return InMemoryDataset(std::vector<std::vector<uint64_t>>(4), 1 << 8);
}

InMemoryDataset AllEqualKeysDataset() {
  std::vector<std::vector<uint64_t>> splits(4);
  for (auto& split : splits) split.assign(700, 37);
  return InMemoryDataset(std::move(splits), 1 << 10);
}

InMemoryDataset U2Dataset() {
  return InMemoryDataset({{0, 1, 1, 0, 1}, {1, 1, 1}, {0}, {}}, 2);
}

/// Digests of `ds` itself and of every algorithm's synopsis on it, keyed
/// "<prefix>.<algorithm>.<field>".
void AddAlgorithmDigests(const std::string& prefix, const Dataset& ds,
                         Digests* out) {
  (*out)[prefix + ".true_coefficients"] = CoeffDigest(TrueCoefficients(ds));
  for (AlgorithmKind kind : AllAlgorithms()) {
    BuildOptions opt;
    opt.k = 20;
    opt.epsilon = 0.05;
    opt.seed = 1234;
    auto result = BuildWaveletHistogram(ds, kind, opt);
    ASSERT_TRUE(result.ok()) << prefix << " " << AlgorithmName(kind) << ": "
                             << result.status().ToString();
    const std::string key = prefix + "." + AlgorithmName(kind) + ".";
    (*out)[key + "coefficients"] = CoeffDigest(result->histogram.coefficients());
    (*out)[key + "comm_bytes"] = std::to_string(result->stats.TotalCommBytes());
    (*out)[key + "simulated_seconds"] =
        Hex(std::bit_cast<uint64_t>(result->stats.TotalSeconds()));
  }
}

void AddAllAlgorithmDigests(Digests* out) {
  AddAlgorithmDigests("zipf", GoldenDataset(), out);
  AddAlgorithmDigests("empty", EmptyDataset(), out);
  AddAlgorithmDigests("all_equal", AllEqualKeysDataset(), out);
  AddAlgorithmDigests("u2", U2Dataset(), out);
  AddAlgorithmDigests("sparse_zipf_u1048576", SparseZipfDataset(), out);
}

Digests ReadGoldenFile() {
  Digests golden;
  std::ifstream in(WAVEMR_GOLDEN_FILE);
  EXPECT_TRUE(in.good()) << "cannot open " << WAVEMR_GOLDEN_FILE;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, value;
    fields >> key >> value;
    golden[key] = value;
  }
  return golden;
}

/// Every computed key under `prefix` must be in the file with the same value,
/// and the file must hold no key under `prefix` that is no longer computed.
void ExpectMatchesGolden(const Digests& got, const std::string& prefix) {
  const Digests golden = ReadGoldenFile();
  size_t checked = 0;
  for (const auto& [key, value] : got) {
    auto it = golden.find(key);
    ASSERT_NE(it, golden.end()) << "no golden digest for " << key;
    EXPECT_EQ(it->second, value) << key;
    ++checked;
  }
  for (const auto& [key, value] : golden) {
    if (key.rfind(prefix, 0) == 0) {
      EXPECT_EQ(got.count(key), 1u) << "stale golden digest " << key;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(GoldenDigestsTest, SparseHaarMatchesGolden) {
  Digests got;
  AddSparseHaarDigests(&got);
  ExpectMatchesGolden(got, "sparse_haar.");
}

TEST(GoldenDigestsTest, AlgorithmsMatchGolden) {
  Digests got;
  AddAlgorithmDigests("zipf", GoldenDataset(), &got);
  ExpectMatchesGolden(got, "zipf.");
}

TEST(GoldenDigestsTest, AlgorithmsOnEmptyDatasetMatchGolden) {
  Digests got;
  AddAlgorithmDigests("empty", EmptyDataset(), &got);
  ExpectMatchesGolden(got, "empty.");
}

TEST(GoldenDigestsTest, AlgorithmsOnAllEqualKeysMatchGolden) {
  Digests got;
  AddAlgorithmDigests("all_equal", AllEqualKeysDataset(), &got);
  ExpectMatchesGolden(got, "all_equal.");
}

TEST(GoldenDigestsTest, AlgorithmsOnTwoKeyDomainMatchGolden) {
  Digests got;
  AddAlgorithmDigests("u2", U2Dataset(), &got);
  ExpectMatchesGolden(got, "u2.");
}

TEST(GoldenDigestsTest, AlgorithmsOnSparseWideDomainMatchGolden) {
  Digests got;
  AddAlgorithmDigests("sparse_zipf_u1048576", SparseZipfDataset(), &got);
  ExpectMatchesGolden(got, "sparse_zipf_u1048576.");
}

TEST(GoldenDigestsTest, DISABLED_PrintDigests) {
  Digests got;
  AddSparseHaarDigests(&got);
  AddAllAlgorithmDigests(&got);
  std::printf("---- digests.txt ----\n");
  for (const auto& [key, value] : got) {
    std::printf("%s %s\n", key.c_str(), value.c_str());
  }
  std::printf("---- end ----\n");
}

}  // namespace
}  // namespace wavemr
