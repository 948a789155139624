#include "histogram/serialization.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>

#include "histogram/builders.h"
#include "histogram/tuning.h"

namespace hops {
namespace {

FrequencySet MustSet(std::vector<Frequency> f) {
  auto r = FrequencySet::Make(std::move(f));
  EXPECT_TRUE(r.ok());
  return *std::move(r);
}

TEST(CatalogHistogramTest, MakeSortsAndValidates) {
  auto h = CatalogHistogram::Make({{5, 2.0}, {1, 7.0}}, 1.5, 10);
  ASSERT_TRUE(h.ok());
  ASSERT_EQ(h->explicit_entries().size(), 2u);
  EXPECT_EQ(h->explicit_entries()[0].first, 1);
  EXPECT_EQ(h->explicit_entries()[1].first, 5);
  EXPECT_EQ(h->num_values(), 12u);
}

TEST(CatalogHistogramTest, MakeRejectsDuplicatesAndNegatives) {
  EXPECT_FALSE(CatalogHistogram::Make({{1, 2.0}, {1, 3.0}}, 0, 0).ok());
  EXPECT_FALSE(CatalogHistogram::Make({{1, -2.0}}, 0, 0).ok());
  EXPECT_FALSE(CatalogHistogram::Make({}, -1.0, 0).ok());
}

TEST(CatalogHistogramTest, LookupExplicitVsDefault) {
  auto h = CatalogHistogram::Make({{10, 100.0}, {20, 50.0}}, 2.5, 8);
  ASSERT_TRUE(h.ok());
  bool is_explicit = false;
  EXPECT_DOUBLE_EQ(h->LookupFrequency(10, &is_explicit), 100.0);
  EXPECT_TRUE(is_explicit);
  EXPECT_DOUBLE_EQ(h->LookupFrequency(15, &is_explicit), 2.5);
  EXPECT_FALSE(is_explicit);
  EXPECT_DOUBLE_EQ(h->LookupFrequency(20), 50.0);
}

TEST(CatalogHistogramTest, EstimatedTotal) {
  auto h = CatalogHistogram::Make({{1, 100.0}}, 2.0, 10);
  ASSERT_TRUE(h.ok());
  EXPECT_DOUBLE_EQ(h->EstimatedTotal(), 120.0);
}

TEST(CatalogHistogramTest, EncodeDecodeRoundTrip) {
  auto h = CatalogHistogram::Make({{-3, 9.5}, {42, 1.0}}, 0.25, 97);
  ASSERT_TRUE(h.ok());
  std::string bytes = h->Encode();
  EXPECT_EQ(bytes.size(), h->EncodedSize());
  auto decoded = CatalogHistogram::Decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, *h);
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xf];
  }
  return out;
}

// The catalog form is stored and shipped as bytes, so its layout is pinned
// field by field (all little-endian), not just round-tripped.
TEST(CatalogHistogramTest, EncodingIsPinnedForUntunedHistogram) {
  auto h = CatalogHistogram::Make({{42, 1.0}, {-3, 9.5}}, 0.25, 97);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(Hex(h->Encode()),
            "53504f48"          // magic "HOPS"
            "01000000"          // version 1: no refinement tree
            "0200000000000000"  // explicit entry count
            "fdffffffffffffff"  // value -3
            "0000000000002340"  // frequency 9.5
            "2a00000000000000"  // value 42
            "000000000000f03f"  // frequency 1.0
            "000000000000d03f"  // default frequency 0.25
            "6100000000000000"  // default value count 97
  );
}

TEST(CatalogHistogramTest, EncodingIsPinnedForRefinedHistogram) {
  auto h = CatalogHistogram::Make({{42, 1.0}, {-3, 9.5}}, 0.25, 97);
  ASSERT_TRUE(h.ok());
  auto tree = BucketRefinementTree::FromWeights(-8, 23, {1.0, 3.0});
  ASSERT_TRUE(tree.ok());
  h->SetRefinement(
      std::make_shared<const BucketRefinementTree>(*std::move(tree)));
  EXPECT_EQ(Hex(h->Encode()),
            "53504f48"          // magic "HOPS"
            "02000000"          // version 2: refinement tree appended
            "0200000000000000"  // explicit entry count
            "fdffffffffffffff"  // value -3
            "0000000000002340"  // frequency 9.5
            "2a00000000000000"  // value 42
            "000000000000f03f"  // frequency 1.0
            "000000000000d03f"  // default frequency 0.25
            "6100000000000000"  // default value count 97
            "0200000000000000"  // leaf count
            "f8ffffffffffffff"  // domain_lo -8
            "1700000000000000"  // domain_hi 23
            "000000000000d03f"  // leaf weight 0.25
            "000000000000e83f"  // leaf weight 0.75
  );
}

TEST(CatalogHistogramTest, DecodeRejectsCorruptInput) {
  auto h = CatalogHistogram::Make({{1, 1.0}}, 0.5, 3);
  ASSERT_TRUE(h.ok());
  std::string bytes = h->Encode();
  // Truncated.
  EXPECT_FALSE(
      CatalogHistogram::Decode(bytes.substr(0, bytes.size() - 1)).ok());
  // Bad magic.
  std::string bad = bytes;
  bad[0] = 'X';
  EXPECT_FALSE(CatalogHistogram::Decode(bad).ok());
  // Trailing garbage.
  EXPECT_FALSE(CatalogHistogram::Decode(bytes + "z").ok());
  // Empty.
  EXPECT_FALSE(CatalogHistogram::Decode("").ok());
}

TEST(CatalogHistogramTest, FromEndBiasedHistogramStoresSingletons) {
  // Values 100..104 with frequencies; the v-opt end-biased histogram with
  // beta = 3 stores two extremes explicitly.
  FrequencySet set = MustSet({90, 40, 10, 11, 12});
  std::vector<int64_t> ids = {100, 101, 102, 103, 104};
  auto hist = BuildVOptEndBiased(set, 3);
  ASSERT_TRUE(hist.ok());
  auto compact = CatalogHistogram::FromHistogram(*hist, ids);
  ASSERT_TRUE(compact.ok());
  // The multivalued bucket (3 members) is the default.
  EXPECT_EQ(compact->num_default_values(), 3u);
  EXPECT_EQ(compact->explicit_entries().size(), 2u);
  bool is_explicit = false;
  EXPECT_DOUBLE_EQ(compact->LookupFrequency(100, &is_explicit), 90.0);
  EXPECT_TRUE(is_explicit);
  EXPECT_DOUBLE_EQ(compact->LookupFrequency(101, &is_explicit), 40.0);
  EXPECT_TRUE(is_explicit);
  // Middle values fall through to the default average (10+11+12)/3 = 11.
  EXPECT_DOUBLE_EQ(compact->LookupFrequency(102, &is_explicit), 11.0);
  EXPECT_FALSE(is_explicit);
}

TEST(CatalogHistogramTest, FromHistogramPicksLargestBucketAsDefault) {
  // Serial histogram with buckets of sizes 2 and 4: the 4-bucket becomes
  // implicit.
  FrequencySet set = MustSet({100, 90, 1, 2, 3, 4});
  auto b = Bucketization::FromAssignments({0, 0, 1, 1, 1, 1}, 2);
  ASSERT_TRUE(b.ok());
  auto hist = Histogram::Make(set, *b);
  ASSERT_TRUE(hist.ok());
  std::vector<int64_t> ids = {1, 2, 3, 4, 5, 6};
  auto compact = CatalogHistogram::FromHistogram(*hist, ids);
  ASSERT_TRUE(compact.ok());
  EXPECT_EQ(compact->num_default_values(), 4u);
  EXPECT_EQ(compact->explicit_entries().size(), 2u);
  EXPECT_DOUBLE_EQ(compact->default_frequency(), 2.5);
}

TEST(CatalogHistogramTest, FromHistogramRoundedMode) {
  FrequencySet set = MustSet({1, 2, 10});
  auto b = Bucketization::FromAssignments({0, 0, 1}, 2);
  ASSERT_TRUE(b.ok());
  auto hist = Histogram::Make(set, *b);
  ASSERT_TRUE(hist.ok());
  std::vector<int64_t> ids = {7, 8, 9};
  auto compact = CatalogHistogram::FromHistogram(
      *hist, ids, BucketAverageMode::kRoundToInteger);
  ASSERT_TRUE(compact.ok());
  // Bucket {1,2} avg 1.5 -> 2 after rounding; it is the default (2 members).
  EXPECT_DOUBLE_EQ(compact->default_frequency(), 2.0);
}

TEST(CatalogHistogramTest, FromHistogramRejectsIdMismatch) {
  FrequencySet set = MustSet({1, 2});
  auto hist = BuildTrivialHistogram(set);
  ASSERT_TRUE(hist.ok());
  std::vector<int64_t> ids = {1};
  EXPECT_FALSE(CatalogHistogram::FromHistogram(*hist, ids).ok());
}

TEST(CatalogHistogramTest, CompactFormIsSmallForEndBiased) {
  // The whole point of end-biased histograms: encoded size grows with beta,
  // not with M.
  std::vector<Frequency> freqs(1000);
  std::vector<int64_t> ids(1000);
  for (size_t i = 0; i < 1000; ++i) {
    freqs[i] = static_cast<double>(i % 13 + 1);
    ids[i] = static_cast<int64_t>(i);
  }
  auto hist = BuildVOptEndBiased(MustSet(freqs), 10);
  ASSERT_TRUE(hist.ok());
  auto compact = CatalogHistogram::FromHistogram(*hist, ids);
  ASSERT_TRUE(compact.ok());
  EXPECT_LE(compact->EncodedSize(), 200u);  // 9 entries + header + trailer
}

}  // namespace
}  // namespace hops
