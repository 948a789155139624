#include "engine/catalog.h"

#include <gtest/gtest.h>

namespace hops {
namespace {

ColumnStatistics SampleStats() {
  ColumnStatistics stats;
  stats.num_tuples = 100.0;
  stats.num_distinct = 10;
  stats.min_value = 1;
  stats.max_value = 10;
  stats.histogram =
      *CatalogHistogram::Make({{1, 30.0}, {2, 20.0}}, 6.25, 8);
  return stats;
}

TEST(CatalogTest, PutGetRoundTrip) {
  Catalog catalog;
  ASSERT_TRUE(catalog.PutColumnStatistics("R", "a", SampleStats()).ok());
  auto got = catalog.GetColumnStatistics("R", "a");
  ASSERT_TRUE(got.ok());
  EXPECT_DOUBLE_EQ(got->num_tuples, 100.0);
  EXPECT_EQ(got->num_distinct, 10u);
  EXPECT_EQ(got->min_value, 1);
  EXPECT_EQ(got->max_value, 10);
  EXPECT_DOUBLE_EQ(got->histogram.LookupFrequency(1), 30.0);
  EXPECT_DOUBLE_EQ(got->histogram.LookupFrequency(5), 6.25);
}

TEST(CatalogTest, MissingEntryIsNotFound) {
  Catalog catalog;
  EXPECT_TRUE(
      catalog.GetColumnStatistics("R", "a").status().IsNotFound());
  EXPECT_FALSE(catalog.HasColumnStatistics("R", "a"));
}

TEST(CatalogTest, PutReplacesExisting) {
  Catalog catalog;
  ASSERT_TRUE(catalog.PutColumnStatistics("R", "a", SampleStats()).ok());
  ColumnStatistics updated = SampleStats();
  updated.num_tuples = 500.0;
  ASSERT_TRUE(catalog.PutColumnStatistics("R", "a", updated).ok());
  auto got = catalog.GetColumnStatistics("R", "a");
  ASSERT_TRUE(got.ok());
  EXPECT_DOUBLE_EQ(got->num_tuples, 500.0);
  EXPECT_EQ(catalog.ListEntries().size(), 1u);
}

TEST(CatalogTest, DropRemovesEntry) {
  Catalog catalog;
  ASSERT_TRUE(catalog.PutColumnStatistics("R", "a", SampleStats()).ok());
  ASSERT_TRUE(catalog.DropColumnStatistics("R", "a").ok());
  EXPECT_FALSE(catalog.HasColumnStatistics("R", "a"));
  EXPECT_TRUE(catalog.DropColumnStatistics("R", "a").IsNotFound());
}

TEST(CatalogTest, RejectsEmptyNames) {
  Catalog catalog;
  EXPECT_TRUE(catalog.PutColumnStatistics("", "a", SampleStats())
                  .IsInvalidArgument());
  EXPECT_TRUE(catalog.PutColumnStatistics("R", "", SampleStats())
                  .IsInvalidArgument());
}

TEST(CatalogTest, ListEntriesSorted) {
  Catalog catalog;
  ASSERT_TRUE(catalog.PutColumnStatistics("S", "b", SampleStats()).ok());
  ASSERT_TRUE(catalog.PutColumnStatistics("R", "a", SampleStats()).ok());
  ASSERT_TRUE(catalog.PutColumnStatistics("R", "c", SampleStats()).ok());
  auto entries = catalog.ListEntries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0], (std::pair<std::string, std::string>{"R", "a"}));
  EXPECT_EQ(entries[1], (std::pair<std::string, std::string>{"R", "c"}));
  EXPECT_EQ(entries[2], (std::pair<std::string, std::string>{"S", "b"}));
}

TEST(CatalogTest, TotalEncodedBytesTracksStorage) {
  Catalog catalog;
  EXPECT_EQ(catalog.TotalEncodedBytes(), 0u);
  ASSERT_TRUE(catalog.PutColumnStatistics("R", "a", SampleStats()).ok());
  size_t one = catalog.TotalEncodedBytes();
  EXPECT_GT(one, 0u);
  ASSERT_TRUE(catalog.PutColumnStatistics("R", "b", SampleStats()).ok());
  EXPECT_EQ(catalog.TotalEncodedBytes(), 2 * one);
}

TEST(CatalogKeyTest, IntsMapToThemselvesStringsToHashes) {
  EXPECT_EQ(CatalogKeyFor(Value(int64_t{-42})), -42);
  EXPECT_EQ(CatalogKeyFor(Value("toy")), CatalogKeyFor(Value("toy")));
  EXPECT_NE(CatalogKeyFor(Value("toy")), CatalogKeyFor(Value("shoe")));
}

}  // namespace
}  // namespace hops
