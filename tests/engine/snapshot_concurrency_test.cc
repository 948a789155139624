// Concurrency contract of the snapshot serving layer, exercised under
// ThreadSanitizer by scripts/run_benchmarks.sh (-DHOPS_SANITIZE=thread):
// readers acquire snapshots and estimate while a writer keeps re-analyzing
// and republishing — readers never block, never see a torn snapshot, and
// always observe internally consistent statistics.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "engine/catalog.h"
#include "engine/catalog_snapshot.h"
#include "estimator/serving.h"

namespace hops {
namespace {

// Statistics for generation g: every frequency is g+1, so any estimate
// derived from a single snapshot is internally consistent iff all values
// come from one generation.
ColumnStatistics GenerationStats(uint64_t generation) {
  const double f = static_cast<double>(generation + 1);
  ColumnStatistics stats;
  stats.num_distinct = 14;
  stats.min_value = 0;
  stats.max_value = 13;
  std::vector<std::pair<int64_t, double>> entries;
  for (int64_t v = 0; v < 4; ++v) entries.emplace_back(v, f);
  stats.histogram = *CatalogHistogram::Make(std::move(entries), f, 10);
  stats.num_tuples = stats.histogram.EstimatedTotal();
  return stats;
}

TEST(SnapshotConcurrencyTest, ReadersNeverSeeTornSnapshots) {
  constexpr int kReaders = 4;
  constexpr uint64_t kGenerations = 200;

  Catalog catalog;
  catalog.PutColumnStatistics("t", "a", GenerationStats(0)).Check();
  catalog.PutColumnStatistics("t", "b", GenerationStats(0)).Check();
  SnapshotStore store;
  ASSERT_TRUE(store.RepublishFrom(catalog).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  std::atomic<bool> failed{false};

  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t last_version = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const CatalogSnapshot> snap = store.Current();
        // Published versions are monotone per reader.
        if (snap->source_version() < last_version) failed = true;
        last_version = snap->source_version();
        auto a = snap->Resolve("t", "a");
        auto b = snap->Resolve("t", "b");
        if (!a.ok() || !b.ok()) {
          failed = true;
          continue;
        }
        // All statistics inside one snapshot come from one generation:
        // every lookup returns the same frequency.
        const double fa = snap->stats(*a).histogram->LookupFrequency(1);
        const double fb = snap->stats(*b).histogram->LookupFrequency(99);
        auto eq = EstimateOne(*snap,
                              EstimateSpec::Equality(*a, Value(int64_t{2})));
        if (!eq.ok() || fa != fb || *eq != fa) failed = true;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer: mutate the catalog (two puts = a torn state between them) and
  // republish. Readers must only ever observe the compiled, consistent
  // snapshots, never the in-between catalog state.
  for (uint64_t g = 1; g <= kGenerations; ++g) {
    catalog.PutColumnStatistics("t", "a", GenerationStats(g)).Check();
    catalog.PutColumnStatistics("t", "b", GenerationStats(g)).Check();
    ASSERT_TRUE(store.RepublishFrom(catalog).ok());
  }
  // On a single-CPU machine the writer can finish before any reader is
  // scheduled; keep serving until at least one full read has completed.
  while (reads.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  stop = true;
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(store.Current()->stats(*store.Current()->Resolve("t", "a"))
                .histogram->LookupFrequency(1),
            static_cast<double>(kGenerations + 1));
}

TEST(SnapshotConcurrencyTest, ConcurrentBatchesShareOneSnapshot) {
  Catalog catalog;
  catalog.PutColumnStatistics("t", "a", GenerationStats(7)).Check();
  SnapshotStore store;
  ASSERT_TRUE(store.RepublishFrom(catalog).ok());
  std::shared_ptr<const CatalogSnapshot> snap = store.Current();
  const ColumnId id = *snap->Resolve("t", "a");

  std::vector<EstimateSpec> specs;
  for (int64_t v = 0; v < 64; ++v) {
    specs.push_back(EstimateSpec::Equality(id, Value(v % 14)));
  }
  // Two concurrent batches over the same immutable snapshot while a writer
  // republishes: estimates stay consistent because the snapshot never
  // mutates underneath them.
  std::vector<Result<double>> batch1, batch2;
  std::thread writer([&] {
    for (uint64_t g = 0; g < 50; ++g) {
      catalog.PutColumnStatistics("t", "a", GenerationStats(g)).Check();
      store.RepublishFrom(catalog).status().Check();
    }
  });
  std::thread t1([&] { batch1 = EstimateBatch(*snap, specs); });
  std::thread t2([&] { batch2 = EstimateBatch(*snap, specs); });
  t1.join();
  t2.join();
  writer.join();

  ASSERT_EQ(batch1.size(), specs.size());
  ASSERT_EQ(batch2.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(batch1[i].ok());
    ASSERT_TRUE(batch2[i].ok());
    EXPECT_EQ(*batch1[i], *batch2[i]);
    EXPECT_EQ(*batch1[i], 8.0);  // generation 7 -> frequency 8 everywhere
  }
}

TEST(SnapshotConcurrencyTest, CacheHitsStayExactDuringRepublish) {
  // The §12 estimate cache under contention: several threads run the same
  // batch against one shared snapshot, so every slot sees racing CAS claims,
  // pending tags, and concurrent hits, while a writer keeps republishing
  // (retiring other snapshots — invalidation is RCU retirement, so this
  // must never touch the cache the readers hold). Every result from every
  // thread and round must carry the exact bits of the uncached EstimateOne
  // reference.
  constexpr int kThreads = 4;
  constexpr int kRounds = 25;

  Catalog catalog;
  catalog.PutColumnStatistics("t", "a", GenerationStats(3)).Check();
  catalog.PutColumnStatistics("t", "b", GenerationStats(3)).Check();
  SnapshotStore store;
  ASSERT_TRUE(store.RepublishFrom(catalog).ok());
  std::shared_ptr<const CatalogSnapshot> snap = store.Current();
  ASSERT_GT(snap->estimate_cache().capacity(), 0u);
  const ColumnId a = *snap->Resolve("t", "a");
  const ColumnId b = *snap->Resolve("t", "b");

  std::vector<EstimateSpec> specs;
  for (int64_t v = -4; v < 20; ++v) {
    specs.push_back(EstimateSpec::Equality(a, Value(v)));
    specs.push_back(EstimateSpec::NotEquals(b, Value(v)));
    specs.push_back(EstimateSpec::Range(b, RangeBounds{v, v + 5, true, false}));
  }
  specs.push_back(EstimateSpec::Join(a, b));

  std::vector<double> reference(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    reference[i] = *EstimateOne(*snap, specs[i]);
  }

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        const std::vector<Result<double>> got = EstimateBatch(*snap, specs);
        for (size_t i = 0; i < specs.size(); ++i) {
          if (!got[i].ok() || *got[i] != reference[i]) failed = true;
        }
      }
    });
  }
  std::thread writer([&] {
    for (uint64_t g = 0; g < 40; ++g) {
      catalog.PutColumnStatistics("t", "a", GenerationStats(g)).Check();
      store.RepublishFrom(catalog).status().Check();
    }
  });
  for (std::thread& t : threads) t.join();
  writer.join();

  EXPECT_FALSE(failed.load());
  // The shared snapshot (and its cache) survived the republishes untouched.
  const std::vector<Result<double>> after = EstimateBatch(*snap, specs);
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(*after[i], reference[i]) << i;
  }
}

}  // namespace
}  // namespace hops
