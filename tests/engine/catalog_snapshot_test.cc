// CatalogSnapshot / SnapshotStore: compilation, name interning, versioning,
// and RCU-style publication.

#include "engine/catalog_snapshot.h"

#include <gtest/gtest.h>

#include "engine/statistics.h"
#include "histogram/maintenance.h"

namespace hops {
namespace {

ColumnStatistics MakeStats(double num_tuples,
                           std::vector<std::pair<int64_t, double>> entries,
                           double default_frequency, uint64_t num_default) {
  ColumnStatistics stats;
  stats.num_tuples = num_tuples;
  stats.num_distinct = entries.size() + num_default;
  stats.min_value = entries.empty() ? 0 : entries.front().first;
  stats.max_value = entries.empty() ? 0 : entries.back().first;
  stats.histogram = *CatalogHistogram::Make(std::move(entries),
                                            default_frequency, num_default);
  return stats;
}

Catalog SmallCatalog() {
  Catalog catalog;
  catalog
      .PutColumnStatistics("orders", "customer_id",
                           MakeStats(100.0, {{1, 30.0}, {2, 20.0}}, 6.25, 8))
      .Check();
  catalog
      .PutColumnStatistics("orders", "status",
                           MakeStats(100.0, {{0, 90.0}}, 10.0, 1))
      .Check();
  catalog
      .PutColumnStatistics("customers", "id",
                           MakeStats(50.0, {{1, 1.0}, {2, 1.0}}, 1.0, 48))
      .Check();
  return catalog;
}

TEST(CatalogSnapshotTest, CompileCapturesEveryEntry) {
  Catalog catalog = SmallCatalog();
  auto snapshot = CatalogSnapshot::Compile(catalog);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ((*snapshot)->num_columns(), 3u);
  EXPECT_EQ((*snapshot)->source_version(), catalog.version());
}

TEST(CatalogSnapshotTest, ResolveInternsNames) {
  Catalog catalog = SmallCatalog();
  auto snapshot = *CatalogSnapshot::Compile(catalog);
  auto id = snapshot->Resolve("orders", "customer_id");
  ASSERT_TRUE(id.ok());
  const CompiledColumnStats& stats = snapshot->stats(*id);
  EXPECT_EQ(stats.table, "orders");
  EXPECT_EQ(stats.column, "customer_id");
  EXPECT_DOUBLE_EQ(stats.num_tuples, 100.0);
  ASSERT_NE(stats.histogram, nullptr);
  EXPECT_EQ(stats.histogram->LookupFrequency(1), 30.0);

  EXPECT_TRUE(snapshot->Contains("customers", "id"));
  EXPECT_FALSE(snapshot->Contains("orders", "nope"));
  EXPECT_FALSE(snapshot->Resolve("nope", "customer_id").ok());
}

TEST(CatalogSnapshotTest, SnapshotIsImmutableUnderCatalogMutation) {
  Catalog catalog = SmallCatalog();
  auto snapshot = *CatalogSnapshot::Compile(catalog);
  const uint64_t version_at_compile = catalog.version();

  catalog
      .PutColumnStatistics("orders", "customer_id",
                           MakeStats(200.0, {{1, 60.0}}, 10.0, 14))
      .Check();
  catalog.DropColumnStatistics("customers", "id").Check();

  // The snapshot still serves the old statistics...
  auto id = snapshot->Resolve("orders", "customer_id");
  ASSERT_TRUE(id.ok());
  EXPECT_DOUBLE_EQ(snapshot->stats(*id).num_tuples, 100.0);
  EXPECT_EQ(snapshot->stats(*id).histogram->LookupFrequency(1), 30.0);
  EXPECT_TRUE(snapshot->Contains("customers", "id"));
  // ...and staleness is detectable through the version counter.
  EXPECT_EQ(snapshot->source_version(), version_at_compile);
  EXPECT_GT(catalog.version(), version_at_compile);
}

TEST(CatalogSnapshotTest, VersionBumpsOnPutAndDrop) {
  Catalog catalog;
  const uint64_t v0 = catalog.version();
  catalog
      .PutColumnStatistics("t", "c", MakeStats(1.0, {{1, 1.0}}, 0.0, 0))
      .Check();
  EXPECT_GT(catalog.version(), v0);
  const uint64_t v1 = catalog.version();
  catalog.DropColumnStatistics("t", "c").Check();
  EXPECT_GT(catalog.version(), v1);
  // Failed mutations do not bump.
  const uint64_t v2 = catalog.version();
  EXPECT_FALSE(catalog.DropColumnStatistics("t", "c").ok());
  EXPECT_EQ(catalog.version(), v2);
}

TEST(SnapshotStoreTest, StartsWithEmptySnapshot) {
  SnapshotStore store;
  auto current = store.Current();
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->num_columns(), 0u);
}

TEST(SnapshotStoreTest, PublishSwapsAtomically) {
  SnapshotStore store;
  Catalog catalog = SmallCatalog();
  auto snapshot = *CatalogSnapshot::Compile(catalog);
  store.Publish(snapshot);
  EXPECT_EQ(store.Current(), snapshot);
  // Readers holding the old snapshot keep it alive (RCU).
  auto held = store.Current();
  store.Publish(nullptr);  // null -> replaced by an empty snapshot
  ASSERT_NE(store.Current(), nullptr);
  EXPECT_EQ(store.Current()->num_columns(), 0u);
  EXPECT_EQ(held->num_columns(), 3u);
}

TEST(SnapshotStoreTest, RepublishFromCompilesAndPublishes) {
  SnapshotStore store;
  Catalog catalog = SmallCatalog();
  auto published = store.RepublishFrom(catalog);
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(store.Current(), *published);
  EXPECT_EQ((*published)->source_version(), catalog.version());
}

TEST(SnapshotStoreTest, AnalyzeAndRepublishEndToEnd) {
  auto schema = Schema::Make({{"a", ValueType::kInt64}});
  auto rel = Relation::Make("R", *std::move(schema));
  ASSERT_TRUE(rel.ok());
  for (int64_t v = 0; v < 10; ++v) {
    for (int64_t i = 0; i <= v; ++i) {
      rel->AppendUnchecked({Value(v)});
    }
  }
  Catalog catalog;
  SnapshotStore store;
  ASSERT_TRUE(AnalyzeAndStore(*rel, "a", &catalog).ok());
  ASSERT_TRUE(store.RepublishFrom(catalog).ok());
  auto snapshot = store.Current();
  auto id = snapshot->Resolve("R", "a");
  ASSERT_TRUE(id.ok());
  EXPECT_DOUBLE_EQ(snapshot->stats(*id).num_tuples, 55.0);
  EXPECT_EQ(snapshot->source_version(), catalog.version());

  EXPECT_FALSE(AnalyzeAndStore(*rel, "a", nullptr).ok());
}

// --- Staleness coverage: maintenance write-backs and publication races ----

TEST(SnapshotStoreTest, MaintenanceWriteBackMakesSnapshotStale) {
  Catalog catalog = SmallCatalog();
  SnapshotStore store;
  auto published = store.RepublishFrom(catalog);
  ASSERT_TRUE(published.ok());
  auto before = store.Current();
  EXPECT_EQ(before->source_version(), catalog.version());

  // Incremental maintenance mutates statistics off to the side and writes
  // them back through the catalog (the refresh subsystem's write path).
  auto stats = catalog.GetColumnStatistics("orders", "customer_id");
  ASSERT_TRUE(stats.ok());
  HistogramMaintainer maintainer(stats->histogram, stats->num_tuples);
  ASSERT_TRUE(maintainer.ApplyInsert(1).ok());
  ASSERT_TRUE(maintainer.ApplyInsert(1).ok());
  ColumnStatistics updated = *stats;
  updated.num_tuples = maintainer.num_tuples();
  updated.histogram = maintainer.current();
  ASSERT_TRUE(
      catalog.PutColumnStatistics("orders", "customer_id", updated).ok());

  // The published snapshot is now detectably stale...
  EXPECT_LT(store.Current()->source_version(), catalog.version());
  // ...and still serves the pre-maintenance statistics (immutability).
  auto id = before->Resolve("orders", "customer_id");
  ASSERT_TRUE(id.ok());
  EXPECT_DOUBLE_EQ(before->stats(*id).histogram->LookupFrequency(1), 30.0);

  // Republication clears the staleness and serves the maintained counts.
  ASSERT_TRUE(store.RepublishFrom(catalog).ok());
  auto after = store.Current();
  EXPECT_EQ(after->source_version(), catalog.version());
  auto after_id = after->Resolve("orders", "customer_id");
  ASSERT_TRUE(after_id.ok());
  EXPECT_DOUBLE_EQ(after->stats(*after_id).histogram->LookupFrequency(1),
                   32.0);
  EXPECT_DOUBLE_EQ(after->stats(*after_id).num_tuples, 102.0);
}

TEST(SnapshotStoreTest, PublishWhileRebuildInterleavingIsLastWriteWins) {
  Catalog catalog = SmallCatalog();
  SnapshotStore store;

  // A rebuild compiles from the catalog as of version v1...
  auto stale_compile = *CatalogSnapshot::Compile(catalog);
  const uint64_t v1 = catalog.version();

  // ...while a concurrent writer mutates and republishes (version v2).
  catalog
      .PutColumnStatistics("orders", "customer_id",
                           MakeStats(500.0, {{1, 300.0}}, 12.5, 16))
      .Check();
  ASSERT_TRUE(store.RepublishFrom(catalog).ok());
  const uint64_t v2 = catalog.version();
  ASSERT_GT(v2, v1);
  EXPECT_EQ(store.Current()->source_version(), v2);

  // The slow rebuild finishing late wins the swap (the store is a plain
  // last-write-wins RCU cell)...
  store.Publish(stale_compile);
  EXPECT_EQ(store.Current()->source_version(), v1);
  // ...which is exactly why the RefreshManager serializes every republish
  // under its mutex, and why readers can always detect the regression by
  // comparing source_version against the live catalog.
  EXPECT_LT(store.Current()->source_version(), catalog.version());

  // Re-running the republish converges back to the newest statistics.
  ASSERT_TRUE(store.RepublishFrom(catalog).ok());
  EXPECT_EQ(store.Current()->source_version(), v2);
  auto id = store.Current()->Resolve("orders", "customer_id");
  ASSERT_TRUE(id.ok());
  EXPECT_DOUBLE_EQ(store.Current()->stats(*id).num_tuples, 500.0);
}

TEST(SnapshotStoreTest, RepublishVersionsAreMonotoneUnderMutation) {
  Catalog catalog = SmallCatalog();
  SnapshotStore store;
  uint64_t last = 0;
  for (int round = 0; round < 5; ++round) {
    catalog
        .PutColumnStatistics(
            "orders", "customer_id",
            MakeStats(100.0 + round, {{1, 30.0 + round}}, 6.25, 8))
        .Check();
    ASSERT_TRUE(store.RepublishFrom(catalog).ok());
    const uint64_t version = store.Current()->source_version();
    EXPECT_GT(version, last);
    last = version;
  }
}

}  // namespace
}  // namespace hops

