// CompiledHistogram: the read-optimized serving view must agree with its
// CatalogHistogram source bit for bit, stay coherent under maintenance, and
// classify the prefix-sum fast path correctly.

#include "histogram/compiled.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "histogram/maintenance.h"
#include "histogram/serialization.h"
#include "util/math.h"

namespace hops {
namespace {

CatalogHistogram IntegerHistogram() {
  // Integer frequencies -> the exact prefix regime.
  return *CatalogHistogram::Make(
      {{-5, 7.0}, {0, 30.0}, {2, 20.0}, {9, 1.0}, {40, 12.0}}, 3.0, 10);
}

CatalogHistogram FractionalHistogram() {
  // A non-integer frequency disables the prefix fast path.
  return *CatalogHistogram::Make({{1, 30.5}, {2, 20.25}, {7, 6.125}}, 1.5, 4);
}

TEST(CompiledHistogramTest, LookupMatchesCatalogHistogram) {
  CatalogHistogram h = IntegerHistogram();
  CompiledHistogram c = CompiledHistogram::Compile(h);
  ASSERT_EQ(c.num_explicit(), 5u);
  EXPECT_EQ(c.default_frequency(), h.default_frequency());
  EXPECT_EQ(c.num_default_values(), h.num_default_values());
  EXPECT_EQ(c.num_values(), h.num_values());
  for (int64_t v = -10; v <= 50; ++v) {
    bool catalog_explicit = false;
    bool compiled_explicit = false;
    const double want = h.LookupFrequency(v, &catalog_explicit);
    const double got = c.LookupFrequency(v, &compiled_explicit);
    EXPECT_EQ(want, got) << "value " << v;
    EXPECT_EQ(catalog_explicit, compiled_explicit) << "value " << v;
  }
}

TEST(CompiledHistogramTest, BoundsMatchStdAlgorithms) {
  CompiledHistogram c = CompiledHistogram::Compile(IntegerHistogram());
  const std::vector<int64_t> keys(c.keys().begin(), c.keys().end());
  for (int64_t v = -10; v <= 50; ++v) {
    const auto lb = std::lower_bound(keys.begin(), keys.end(), v);
    const auto ub = std::upper_bound(keys.begin(), keys.end(), v);
    EXPECT_EQ(c.LowerBound(v), static_cast<size_t>(lb - keys.begin()));
    EXPECT_EQ(c.UpperBound(v), static_cast<size_t>(ub - keys.begin()));
  }
}

TEST(CompiledHistogramTest, ExplicitRangeSelectsClosedInterval) {
  CompiledHistogram c = CompiledHistogram::Compile(IntegerHistogram());
  auto [b1, e1] = c.ExplicitRange(-5, 2);  // {-5, 0, 2}
  EXPECT_EQ(b1, 0u);
  EXPECT_EQ(e1, 3u);
  auto [b2, e2] = c.ExplicitRange(3, 8);  // none
  EXPECT_EQ(b2, e2);
  auto [b3, e3] = c.ExplicitRange(10, 5);  // inverted -> empty
  EXPECT_EQ(b3, e3);
}

TEST(CompiledHistogramTest, IntegerFrequenciesUseExactPrefix) {
  CompiledHistogram c = CompiledHistogram::Compile(IntegerHistogram());
  EXPECT_TRUE(c.prefix_exact());
  ASSERT_EQ(c.prefix_sums().size(), c.num_explicit() + 1);
  EXPECT_EQ(c.prefix_sums().front(), 0.0);
  EXPECT_EQ(c.explicit_mass_total(), 70.0);
  // Every subrange must match a fresh Kahan accumulation bit for bit.
  for (size_t b = 0; b <= c.num_explicit(); ++b) {
    for (size_t e = b; e <= c.num_explicit(); ++e) {
      KahanSum fresh;
      for (size_t i = b; i < e; ++i) fresh.Add(c.frequencies()[i]);
      EXPECT_EQ(c.ExplicitMass(b, e), fresh.Value()) << b << ".." << e;
    }
  }
}

TEST(CompiledHistogramTest, FractionalFrequenciesFallBackToKahanScan) {
  CompiledHistogram c = CompiledHistogram::Compile(FractionalHistogram());
  EXPECT_FALSE(c.prefix_exact());
  for (size_t b = 0; b <= c.num_explicit(); ++b) {
    for (size_t e = b; e <= c.num_explicit(); ++e) {
      KahanSum fresh;
      for (size_t i = b; i < e; ++i) fresh.Add(c.frequencies()[i]);
      EXPECT_EQ(c.ExplicitMass(b, e), fresh.Value()) << b << ".." << e;
    }
  }
}

TEST(CompiledHistogramTest, EstimatedTotalMatchesCatalogForm) {
  for (const CatalogHistogram& h :
       {IntegerHistogram(), FractionalHistogram()}) {
    CompiledHistogram c = CompiledHistogram::Compile(h);
    EXPECT_EQ(c.EstimatedTotal(), h.EstimatedTotal());
  }
}

TEST(CompiledHistogramTest, EmptyHistogramCompiles) {
  CatalogHistogram h = *CatalogHistogram::Make({}, 0.0, 0);
  CompiledHistogram c = CompiledHistogram::Compile(h);
  EXPECT_EQ(c.num_explicit(), 0u);
  EXPECT_EQ(c.ExplicitMass(0, 0), 0.0);
  EXPECT_EQ(c.LookupFrequency(42), 0.0);
  // Default-constructed (never compiled) is also safe to query.
  CompiledHistogram def;
  EXPECT_EQ(def.explicit_mass_total(), 0.0);
  EXPECT_EQ(def.EstimatedTotal(), 0.0);
}

// ---------------------------------------------------------------------------
// Serving coherence: compiling a mutated histogram serves the mutation.

TEST(CompiledHistogramTest, CompileAfterAdjustSeesTheNewFrequency) {
  CatalogHistogram h = IntegerHistogram();
  EXPECT_EQ(CompiledHistogram::Compile(h).LookupFrequency(0), 30.0);
  EXPECT_FALSE(h.AdjustExplicitFrequency(12345, +1.0));  // not explicit
  EXPECT_TRUE(h == IntegerHistogram());
  ASSERT_TRUE(h.AdjustExplicitFrequency(0, +5.0));
  EXPECT_FALSE(h == IntegerHistogram());
  const CompiledHistogram after = CompiledHistogram::Compile(h);
  EXPECT_EQ(after.LookupFrequency(0), 35.0);
  EXPECT_EQ(after.explicit_mass_total(), 7.0 + 35.0 + 20.0 + 1.0 + 12.0);
}

TEST(CompiledHistogramTest, CompileAfterSetDefaultSeesTheNewDefault) {
  CatalogHistogram h = IntegerHistogram();
  EXPECT_EQ(CompiledHistogram::Compile(h).LookupFrequency(100), 3.0);
  EXPECT_FALSE(h.SetDefaultFrequency(-1.0).ok());  // invalid, no change
  EXPECT_EQ(CompiledHistogram::Compile(h).LookupFrequency(100), 3.0);
  ASSERT_TRUE(h.SetDefaultFrequency(4.5).ok());
  EXPECT_EQ(CompiledHistogram::Compile(h).LookupFrequency(100), 4.5);
}

TEST(CompiledHistogramTest, MaintainerCompiledStaysCoherent) {
  HistogramMaintainer maintainer(IntegerHistogram(), 100.0);
  ASSERT_TRUE(maintainer.ApplyInsert(2).ok());
  ASSERT_TRUE(maintainer.ApplyInsert(2).ok());
  ASSERT_TRUE(maintainer.ApplyDelete(0).ok());
  // Compiling the maintained histogram gives the maintained frequencies.
  const CompiledHistogram compiled =
      CompiledHistogram::Compile(maintainer.current());
  EXPECT_EQ(compiled.LookupFrequency(2), 22.0);
  EXPECT_EQ(compiled.LookupFrequency(0), 29.0);
  for (int64_t v = -10; v <= 50; ++v) {
    EXPECT_EQ(compiled.LookupFrequency(v),
              maintainer.current().LookupFrequency(v))
        << "value " << v;
  }
}

TEST(CompiledHistogramTest, EncodeDecodeRoundTripKeepsCompiledCoherent) {
  CatalogHistogram h = IntegerHistogram();
  auto decoded = CatalogHistogram::Decode(h.Encode());
  ASSERT_TRUE(decoded.ok());
  CompiledHistogram c = CompiledHistogram::Compile(*decoded);
  for (int64_t v = -10; v <= 50; ++v) {
    EXPECT_EQ(c.LookupFrequency(v), h.LookupFrequency(v));
  }
}

}  // namespace
}  // namespace hops
