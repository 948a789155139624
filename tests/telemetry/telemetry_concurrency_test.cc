// Telemetry under concurrency: N writer threads against sharded counters /
// histograms with exact-sum reconciliation after join, collectors racing
// writers, and spans on many threads. Run under ThreadSanitizer by
// scripts/check.sh (the §9 "TSan-clean" acceptance gate, next to the
// snapshot and refresh-daemon suites).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/accuracy.h"
#include "telemetry/exporters.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace hops::telemetry {
namespace {

constexpr int kThreads = 8;

TEST(TelemetryConcurrencyTest, CounterReconcilesExactlyAfterJoin) {
  Counter counter;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& w : writers) w.join();
  // The contract: relaxed increments may be invisible to a concurrent
  // reader, but once writers quiesce the shard sum is exact.
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(TelemetryConcurrencyTest, CounterReadsAreMonotonicUnderWriters) {
  Counter counter;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) counter.Increment();
    });
  }
  uint64_t last = 0;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t now = counter.Value();
    EXPECT_GE(now, last);
    last = now;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : writers) w.join();
}

TEST(TelemetryConcurrencyTest, GaugeFoldsAreAtomic) {
  Gauge gauge;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) gauge.Add(1.0);
    });
  }
  for (std::thread& w : writers) w.join();
  // Every CAS-looped Add lands exactly once (integers up to 8e4 are exact
  // in double).
  EXPECT_DOUBLE_EQ(gauge.Value(), static_cast<double>(kThreads * kPerThread));
}

TEST(TelemetryConcurrencyTest, HistogramReconcilesExactlyAfterJoin) {
  LatencyHistogram hist(LogBucketSpec{1.0, 2.0, 8});
  constexpr int kPerThread = 10000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      // Thread t records the constant value 2^t: lands in bucket t
      // (boundary-inclusive), so per-bucket counts are checkable exactly.
      const double value = static_cast<double>(uint64_t{1} << t);
      for (int i = 0; i < kPerThread; ++i) hist.Record(value);
    });
  }
  for (std::thread& w : writers) w.join();
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.counts[static_cast<size_t>(t)],
              static_cast<uint64_t>(kPerThread))
        << "bucket " << t;
  }
  EXPECT_DOUBLE_EQ(snap.max, static_cast<double>(uint64_t{1} << (kThreads - 1)));
  // Integer-valued observations: the per-shard double folds are exact.
  double expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum += static_cast<double>(kPerThread) *
                    static_cast<double>(uint64_t{1} << t);
  }
  EXPECT_DOUBLE_EQ(snap.sum, expected_sum);
}

TEST(TelemetryConcurrencyTest, RegistryGetOrCreateRaces) {
  MetricRegistry registry;
  std::vector<std::thread> threads;
  std::vector<Counter*> seen(kThreads, nullptr);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // All threads race to create the same families and distinct ones.
      seen[static_cast<size_t>(t)] =
          registry.GetCounter("shared_total", "Shared.");
      registry.GetCounter("per_thread_total", "Per-thread.",
                          {{"t", std::to_string(t)}})
          ->Increment();
      registry.GetHistogram("shared_seconds", "Shared histogram.",
                            LogBucketSpec{1.0, 2.0, 4})
          ->Record(1.0);
    });
  }
  for (std::thread& w : threads) w.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]);
  }
  // shared_total + shared_seconds + kThreads per-thread children.
  EXPECT_EQ(registry.num_metrics(), static_cast<size_t>(2 + kThreads));
  const MetricsSnapshot snap = registry.Collect();
  const MetricSnapshot* shared = snap.Find("shared_seconds");
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->histogram.count, static_cast<uint64_t>(kThreads));
}

TEST(TelemetryConcurrencyTest, CollectAndRenderRaceWriters) {
  MetricRegistry registry;
  Counter* counter = registry.GetCounter("busy_total", "Busy.");
  LatencyHistogram* hist = registry.GetHistogram(
      "busy_seconds", "Busy histogram.", LogBucketSpec{1e-3, 2.0, 16});
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      double v = 1e-3;
      while (!stop.load(std::memory_order_relaxed)) {
        counter->Increment();
        hist->Record(v);
        v = v < 10.0 ? v * 1.1 : 1e-3;
      }
    });
  }
  // Collector thread: snapshot + render both formats while writers run.
  for (int i = 0; i < 50; ++i) {
    const MetricsSnapshot snap = registry.Collect();
    const std::string prom = RenderPrometheus(snap);
    const std::string json = RenderJson(snap);
    EXPECT_NE(prom.find("busy_total"), std::string::npos);
    EXPECT_NE(json.find("busy_seconds"), std::string::npos);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : writers) w.join();
  // Quiesced: count in a fresh snapshot equals the counter exactly.
  EXPECT_EQ(registry.Collect().Find("busy_seconds")->histogram.count,
            hist->Count());
}

TEST(TelemetryConcurrencyTest, SpansOnManyThreadsAreIndependentRoots) {
  const bool was_enabled = Enabled();
  SetEnabled(true);
  MetricRegistry registry;
  SpanSite& site = GetSpanSite("Concurrency.ManyThreads", &registry);
  constexpr int kSpansPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan outer(site);
        TraceSpan inner(site);  // nested on the same thread
      }
    });
  }
  for (std::thread& w : threads) w.join();
  EXPECT_EQ(site.count->Value(),
            static_cast<uint64_t>(kThreads) * 2 * kSpansPerThread);
  EXPECT_EQ(site.duration_seconds->Count(), site.count->Value());
  // Self time never exceeds total time.
  EXPECT_LE(site.self_nanos->Value(), site.total_nanos->Value());
  SetEnabled(was_enabled);
}

TEST(TelemetryConcurrencyTest, AccuracyTrackerConcurrentReports) {
  MetricRegistry registry;
  AccuracyTracker tracker(&registry);
  constexpr int kPerThread = 5000;
  PredicateOutcome under;
  under.estimated = 10;
  under.actual = 20;
  PredicateOutcome over;
  over.estimated = 20;
  over.actual = 10;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string column = "c" + std::to_string(t % 2);
      for (int i = 0; i < kPerThread; ++i) {
        // Alternate 2x under / 2x over.
        tracker.ReportPredicateOutcome("t0", column, i % 2 == 0 ? under : over);
      }
    });
  }
  for (std::thread& w : threads) w.join();
  EXPECT_EQ(tracker.num_columns(), 2u);
  uint64_t total_reports = 0;
  for (const ColumnAccuracy& column : tracker.Report()) {
    total_reports += column.reports;
    EXPECT_EQ(column.underestimates + column.overestimates, column.reports);
    EXPECT_DOUBLE_EQ(column.max_qerror, 2.0);
  }
  EXPECT_EQ(total_reports, static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(TelemetryConcurrencyTest, SinkWritesWhileWritersRecord) {
  MetricRegistry registry;
  Counter* counter = registry.GetCounter("sinked_total", "Sinked.");
  TelemetrySinkOptions options;
  options.path = ::testing::TempDir() + "/hops_sink_race.prom";
  options.registry = &registry;
  options.write_interval_micros = 500;
  TelemetrySink sink(options);
  ASSERT_TRUE(sink.Start().ok());
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) counter->Increment();
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : writers) w.join();
  ASSERT_TRUE(sink.Stop().ok());
  EXPECT_GE(sink.writes(), 1u);
}


// The atomic-publication regression (ISSUE §10 satellite): a fixed metric
// set renders identically every time, so a concurrent scraper reading the
// sink's path must see exactly that byte string on every read — never a
// prefix, never an interleaving of two writes. Before the temp-file +
// rename() fix, the sink truncated the target in place and a concurrent
// reader could observe a half-written export.
TEST(TelemetryConcurrencyTest, SinkScrapersNeverSeeATornExport) {
  MetricRegistry registry;
  Counter* counter = registry.GetCounter("stable_total", "Stable.");
  counter->Increment(123456789);
  Gauge* gauge = registry.GetGauge("stable_gauge", "Also stable.");
  gauge->Set(3.25);

  TelemetrySinkOptions options;
  options.path = ::testing::TempDir() + "/hops_sink_atomic.prom";
  options.registry = &registry;
  // Freeze the process gauges: this test's detector is "every complete
  // export is byte-identical", which needs the registry truly fixed.
  options.update_process_metrics = false;
  TelemetrySink sink(options);

  // The metrics never change, so every complete export is byte-identical.
  ASSERT_TRUE(sink.WriteOnce().ok());
  std::ifstream golden_in(options.path);
  const std::string golden((std::istreambuf_iterator<char>(golden_in)),
                           std::istreambuf_iterator<char>());
  ASSERT_FALSE(golden.empty());

  std::atomic<bool> stop{false};
  std::atomic<int> torn_reads{0};
  std::atomic<int> complete_reads{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 2; ++t) {
    scrapers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::ifstream in(options.path);
        if (!in) continue;  // rename window on some filesystems
        const std::string content((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
        if (content == golden) {
          complete_reads.fetch_add(1, std::memory_order_relaxed);
        } else {
          torn_reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(sink.WriteOnce().ok());
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& s : scrapers) s.join();
  writer.join();

  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_GT(complete_reads.load(), 0);
  EXPECT_GE(sink.writes(), 1u);
}

}  // namespace
}  // namespace hops::telemetry

