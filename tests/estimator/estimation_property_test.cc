// Property tests for the estimation fast paths: over randomized Zipf-ish
// catalogs, the O(log n) range path (binary-searched Catalog form and
// compiled prefix-sum serving form alike) must reproduce the frozen
// linear-scan reference bit for bit, and the sort-unique disjunctive
// deduplication must reproduce the historical hash-set implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_set>
#include <vector>

#include "engine/catalog.h"
#include "engine/catalog_snapshot.h"
#include "estimator/selectivity.h"
#include "estimator/serving.h"
#include "util/math.h"
#include "util/random.h"

namespace hops {
namespace {

// Frozen reference for the disjunctive path: the historical unordered_set
// dedupe (first-occurrence order falls out of insertion order). Kept local
// so the library implementation can never drift along with it.
double DisjunctiveReference(const ColumnStatistics& stats,
                            std::span<const Value> values) {
  std::unordered_set<int64_t> seen;
  KahanSum total;
  for (const Value& value : values) {
    int64_t key = CatalogKeyFor(value);
    if (seen.insert(key).second) {
      total.Add(stats.histogram.LookupFrequency(key));
    }
  }
  return total.Value();
}

// Random Zipf-flavored statistics: n explicit entries with skewed
// frequencies (integer-valued with probability 1/2, exercising both the
// exact-prefix and the Kahan-fallback compiled regimes), random default
// bucket, random domain bounds.
ColumnStatistics RandomStats(Rng* rng) {
  const size_t n = static_cast<size_t>(rng->NextBounded(60));
  std::vector<int64_t> keys;
  keys.reserve(n);
  std::unordered_set<int64_t> used;
  while (keys.size() < n) {
    int64_t k = rng->NextInt(-100, 100);
    if (used.insert(k).second) keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  const bool integer_valued = rng->NextBounded(2) == 0;
  const double skew = rng->NextDouble(0.2, 1.5);
  std::vector<std::pair<int64_t, double>> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    double f = 1000.0 / std::pow(static_cast<double>(i + 1), skew);
    if (integer_valued) f = std::floor(f) + 1.0;
    entries.emplace_back(keys[i], f);
  }
  // Frequencies were assigned in rank order to sorted keys; shuffle the
  // association so value order and frequency order are uncorrelated.
  for (size_t i = n; i > 1; --i) {
    std::swap(entries[i - 1].second,
              entries[rng->NextBounded(i)].second);
  }
  ColumnStatistics stats;
  const uint64_t num_default = rng->NextBounded(50);
  const double default_frequency =
      integer_valued ? static_cast<double>(rng->NextBounded(5))
                     : rng->NextDouble(0.0, 4.0);
  stats.histogram =
      *CatalogHistogram::Make(std::move(entries), default_frequency,
                              num_default);
  stats.num_distinct = n + num_default;
  stats.min_value = rng->NextInt(-150, 0);
  stats.max_value = rng->NextInt(stats.min_value, 150);
  double total = stats.histogram.EstimatedTotal();
  // Sometimes clamp: num_tuples below the histogram mass exercises the
  // relation-size clamp in FinishRangeEstimate.
  stats.num_tuples =
      rng->NextBounded(4) == 0 ? total * rng->NextDouble(0.3, 0.9) : total;
  return stats;
}

// The serving view of \p histogram, compiled as CatalogSnapshot::Compile
// compiles it.
std::shared_ptr<const CompiledHistogram> Compile(
    const CatalogHistogram& histogram) {
  return std::make_shared<const CompiledHistogram>(
      CompiledHistogram::Compile(histogram));
}

RangeBounds RandomBounds(Rng* rng) {
  RangeBounds bounds;
  switch (rng->NextBounded(8)) {
    case 0:  // extreme low edge; keep include_low to avoid lo+1 overflow
      bounds.low = std::numeric_limits<int64_t>::min();
      bounds.high = rng->NextInt(-150, 150);
      bounds.include_low = true;
      bounds.include_high = rng->NextBounded(2) == 0;
      return bounds;
    case 1:  // extreme high edge; keep include_high to avoid hi-1 overflow
      bounds.low = rng->NextInt(-150, 150);
      bounds.high = std::numeric_limits<int64_t>::max();
      bounds.include_low = rng->NextBounded(2) == 0;
      bounds.include_high = true;
      return bounds;
    case 2: {  // degenerate single-point / inverted
      int64_t v = rng->NextInt(-150, 150);
      bounds.low = v;
      bounds.high = v + static_cast<int64_t>(rng->NextBounded(3)) - 1;
      break;
    }
    default:
      bounds.low = rng->NextInt(-200, 200);
      bounds.high = rng->NextInt(-200, 200);
      if (bounds.low > bounds.high) std::swap(bounds.low, bounds.high);
      break;
  }
  bounds.include_low = rng->NextBounded(2) == 0;
  bounds.include_high = rng->NextBounded(2) == 0;
  return bounds;
}

TEST(EstimationPropertyTest, RangePathsMatchLinearReferenceBitForBit) {
  Rng rng(0xbeef01);
  for (int trial = 0; trial < 300; ++trial) {
    ColumnStatistics stats = RandomStats(&rng);
    CompiledColumnStats compiled;
    compiled.num_tuples = stats.num_tuples;
    compiled.num_distinct = stats.num_distinct;
    compiled.min_value = stats.min_value;
    compiled.max_value = stats.max_value;
    compiled.histogram = Compile(stats.histogram);
    for (int q = 0; q < 40; ++q) {
      RangeBounds bounds = RandomBounds(&rng);
      auto reference = EstimateRangeSelectionLinear(stats, bounds);
      auto binary = EstimateRangeSelection(stats, bounds);
      auto serving = EstimateRangeSelection(compiled, bounds);
      ASSERT_TRUE(reference.ok());
      ASSERT_TRUE(binary.ok());
      ASSERT_TRUE(serving.ok());
      // Bitwise equality, not approximate: the serving layer's contract.
      EXPECT_EQ(*reference, *binary)
          << "trial " << trial << " [" << bounds.low << "," << bounds.high
          << "] " << bounds.include_low << bounds.include_high;
      EXPECT_EQ(*reference, *serving)
          << "trial " << trial << " [" << bounds.low << "," << bounds.high
          << "] " << bounds.include_low << bounds.include_high;
    }
  }
}

TEST(EstimationPropertyTest, DisjunctiveMatchesHashSetReferenceBitForBit) {
  Rng rng(0xbeef02);
  for (int trial = 0; trial < 200; ++trial) {
    ColumnStatistics stats = RandomStats(&rng);
    CompiledColumnStats compiled;
    compiled.num_tuples = stats.num_tuples;
    compiled.histogram = Compile(stats.histogram);
    // Spans above and below the 64-entry inline buffer.
    const size_t len = 1 + rng.NextBounded(trial % 5 == 0 ? 200 : 40);
    std::vector<Value> values;
    values.reserve(len);
    for (size_t i = 0; i < len; ++i) {
      values.emplace_back(rng.NextInt(-110, 110));  // duplicates likely
    }
    const double reference = DisjunctiveReference(stats, values);
    EXPECT_EQ(reference, EstimateDisjunctiveSelection(stats, values))
        << "trial " << trial;
    EXPECT_EQ(reference, EstimateDisjunctiveSelection(compiled, values))
        << "trial " << trial;
  }
}

TEST(EstimationPropertyTest, PointAndJoinServingMatchLegacyBitForBit) {
  Rng rng(0xbeef03);
  for (int trial = 0; trial < 200; ++trial) {
    ColumnStatistics left = RandomStats(&rng);
    ColumnStatistics right = RandomStats(&rng);
    CompiledColumnStats cl, cr;
    cl.num_tuples = left.num_tuples;
    cl.histogram = Compile(left.histogram);
    cr.num_tuples = right.num_tuples;
    cr.histogram = Compile(right.histogram);
    for (int q = 0; q < 20; ++q) {
      const Value probe(rng.NextInt(-120, 120));
      EXPECT_EQ(EstimateEqualitySelection(left, probe),
                EstimateEqualitySelection(cl, probe));
      EXPECT_EQ(EstimateNotEqualsSelection(left, probe),
                EstimateNotEqualsSelection(cl, probe));
    }
    EXPECT_EQ(EstimateEquiJoinSize(left, right), EstimateEquiJoinSize(cl, cr))
        << "trial " << trial;
  }
}

TEST(EstimationPropertyTest, UniqueKeysKeepFirstOccurrenceOrder) {
  Rng rng(0xbeef04);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t len = 1 + rng.NextBounded(120);
    std::vector<Value> values;
    for (size_t i = 0; i < len; ++i) {
      values.emplace_back(rng.NextInt(-20, 20));
    }
    std::vector<int64_t> got(len);
    const size_t unique = UniqueCatalogKeysFirstOccurrence(values, got.data());
    got.resize(unique);
    // Reference: insertion-ordered dedupe.
    std::vector<int64_t> want;
    std::unordered_set<int64_t> seen;
    for (const Value& v : values) {
      int64_t k = CatalogKeyFor(v);
      if (seen.insert(k).second) want.push_back(k);
    }
    EXPECT_EQ(got, want) << "trial " << trial;
  }
}

}  // namespace
}  // namespace hops
