// Randomized robustness tests: encode/decode round trips under random
// inputs, byte-level corruption, and long random maintenance sequences.
// These are deterministic "fuzz-style" sweeps (seeded), not coverage-guided
// fuzzing — but they exercise the same invariants.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_map>

#include "histogram/builders.h"
#include "histogram/maintenance.h"
#include "histogram/serialization.h"
#include "histogram/tuning.h"
#include "util/random.h"

namespace hops {
namespace {

CatalogHistogram RandomCatalogHistogram(Rng* rng) {
  size_t num_explicit = rng->NextBounded(20);
  std::vector<std::pair<int64_t, double>> entries;
  std::unordered_map<int64_t, bool> used;
  for (size_t i = 0; i < num_explicit; ++i) {
    int64_t value = rng->NextInt(-1000, 1000);
    if (used.count(value)) continue;
    used[value] = true;
    entries.emplace_back(value,
                         static_cast<double>(rng->NextBounded(10000)) / 4);
  }
  double default_freq = static_cast<double>(rng->NextBounded(400)) / 8;
  uint64_t num_default = rng->NextBounded(100000);
  auto hist = CatalogHistogram::Make(std::move(entries), default_freq,
                                     num_default);
  EXPECT_TRUE(hist.ok());
  return *std::move(hist);
}

TEST(FuzzTest, CatalogHistogramEncodeDecodeRoundTrips) {
  Rng rng(0xF022);
  for (int trial = 0; trial < 200; ++trial) {
    CatalogHistogram hist = RandomCatalogHistogram(&rng);
    auto decoded = CatalogHistogram::Decode(hist.Encode());
    ASSERT_TRUE(decoded.ok()) << "trial " << trial;
    EXPECT_EQ(*decoded, hist) << "trial " << trial;
  }
}

TEST(FuzzTest, CorruptedBytesNeverCrashDecoder) {
  Rng rng(0xF023);
  for (int trial = 0; trial < 300; ++trial) {
    CatalogHistogram hist = RandomCatalogHistogram(&rng);
    std::string bytes = hist.Encode();
    // Random single-byte flip, truncation, or extension.
    switch (rng.NextBounded(3)) {
      case 0: {
        size_t pos = static_cast<size_t>(rng.NextBounded(bytes.size()));
        bytes[pos] = static_cast<char>(bytes[pos] ^
                                       static_cast<char>(rng.NextInt(1, 255)));
        break;
      }
      case 1:
        bytes.resize(static_cast<size_t>(rng.NextBounded(bytes.size())));
        break;
      default:
        bytes += static_cast<char>(rng.NextInt(0, 255));
        break;
    }
    // Must either fail cleanly or produce a structurally valid histogram;
    // it must never crash or loop.
    auto decoded = CatalogHistogram::Decode(bytes);
    if (decoded.ok()) {
      EXPECT_GE(decoded->default_frequency(), 0.0);
    }
  }
}

// Random histograms, about half of them carrying a tuned refinement tree
// (the version-2 record), decode to an equal histogram that re-encodes to
// the same bytes.
TEST(FuzzTest, CatalogSerializeRoundTripsUnderRandomContents) {
  Rng rng(0xF024);
  for (int trial = 0; trial < 200; ++trial) {
    CatalogHistogram hist = RandomCatalogHistogram(&rng);
    if (rng.NextBounded(2) == 0) {
      const int64_t lo = rng.NextInt(-1000, 1000);
      auto tree = BucketRefinementTree::MakeUniform(
          lo, lo + rng.NextInt(0, 5000), 1 + rng.NextBounded(64));
      ASSERT_TRUE(tree.ok());
      for (int scale = 0; scale < 3; ++scale) {
        const int64_t from = rng.NextInt(lo, lo + 5000);
        tree->ScaleRange(from, from + rng.NextInt(0, 500),
                         rng.NextDouble(0.25, 4.0));
      }
      hist.SetRefinement(
          std::make_shared<const BucketRefinementTree>(*std::move(tree)));
    }
    const std::string bytes = hist.Encode();
    auto decoded = CatalogHistogram::Decode(bytes);
    ASSERT_TRUE(decoded.ok()) << "trial " << trial << ": " << decoded.status();
    EXPECT_EQ(*decoded, hist) << "trial " << trial;
    EXPECT_EQ(decoded->Encode(), bytes) << "trial " << trial;
  }
}

TEST(FuzzTest, MaintenanceInvariantsUnderRandomOpSequences) {
  Rng rng(0xF025);
  for (int trial = 0; trial < 20; ++trial) {
    CatalogHistogram hist =
        *CatalogHistogram::Make({{1, 50.0}, {2, 25.0}, {3, 10.0}}, 4.0, 20);
    HistogramMaintainer m(hist, 165.0);
    double tracked = 165.0;
    for (int op = 0; op < 500; ++op) {
      int64_t value = rng.NextInt(0, 30);
      if (rng.NextBounded(2) == 0) {
        ASSERT_TRUE(m.ApplyInsert(value).ok());
        tracked += 1;
      } else {
        ASSERT_TRUE(m.ApplyDelete(value).ok());
        tracked = std::max(0.0, tracked - 1);
      }
      // Invariants after every op: non-negative frequencies, tuple count
      // tracked exactly, estimated total within the clamping slack.
      EXPECT_GE(m.current().default_frequency(), 0.0);
      for (const auto& [v, f] : m.current().explicit_entries()) {
        EXPECT_GE(f, 0.0);
      }
      EXPECT_DOUBLE_EQ(m.num_tuples(), tracked);
    }
    EXPECT_EQ(m.updates_applied(), 500u);
    EXPECT_NEAR(m.current().EstimatedTotal(), tracked,
                0.35 * (tracked + 100));
  }
}

TEST(FuzzTest, BuildersNeverProduceInvalidHistogramsOnRandomSets) {
  Rng rng(0xF026);
  for (int trial = 0; trial < 60; ++trial) {
    size_t m = 1 + rng.NextBounded(40);
    std::vector<Frequency> freqs(m);
    for (auto& f : freqs) {
      f = static_cast<double>(rng.NextBounded(1000)) / 7;
    }
    auto set = FrequencySet::Make(freqs);
    ASSERT_TRUE(set.ok());
    size_t beta = 1 + rng.NextBounded(m);
    for (auto builder :
         {+[](const FrequencySet& s, size_t b) {
            return BuildEquiWidthHistogram(s, b);
          },
          +[](const FrequencySet& s, size_t b) {
            return BuildEquiDepthHistogram(s, b);
          },
          +[](const FrequencySet& s, size_t b) {
            return BuildVOptEndBiased(s, b, nullptr);
          },
          +[](const FrequencySet& s, size_t b) {
            return BuildVOptSerialDPFast(s, b, nullptr);
          }}) {
      auto h = builder(*set, beta);
      ASSERT_TRUE(h.ok()) << "trial " << trial;
      // Structural invariants.
      EXPECT_LE(h->num_buckets(), beta);
      size_t covered = 0;
      double mass = 0;
      for (const auto& b : h->bucket_stats()) {
        EXPECT_GT(b.count, 0u);
        EXPECT_GE(b.variance, 0.0);
        EXPECT_LE(b.min, b.max);
        covered += b.count;
        mass += b.sum;
      }
      EXPECT_EQ(covered, m);
      EXPECT_NEAR(mass, set->Total(), 1e-6 * (1 + set->Total()));
    }
  }
}

}  // namespace
}  // namespace hops
