// TraceRecorder concurrency and correctness tests (telemetry/
// trace_recorder.h). The concurrency cases here are the reason this is its
// own binary: scripts/check.sh --tsan runs it under ThreadSanitizer, which
// must see the seqlock ring protocol as race-free BY THE MEMORY MODEL (all
// slot traffic is relaxed/acq-rel atomics), not via suppressions.

#include "telemetry/trace_recorder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/trace_context.h"
#include "util/json.h"

namespace hops::telemetry {
namespace {

TraceEvent MakeEvent(uint64_t seq, const char* name = "Test.Span") {
  TraceEvent event;
  event.trace_hi = 0x1111111111111111ull;
  event.trace_lo = seq;  // payload the tests check for tearing
  event.span_id = seq;
  event.parent_span_id = seq / 2;
  event.start_nanos = static_cast<int64_t>(seq * 1000);
  event.end_nanos = static_cast<int64_t>(seq * 1000 + 500);
  std::snprintf(event.name, sizeof(event.name), "%s", name);
  std::snprintf(event.detail, sizeof(event.detail), "seq=%llu",
                static_cast<unsigned long long>(seq));
  return event;
}

TEST(TraceRecorderTest, RecordsAndCollects) {
  TraceRecorder recorder(TraceRecorder::Options{.ring_capacity = 64});
  for (uint64_t i = 1; i <= 10; ++i) recorder.Record(MakeEvent(i));
  const std::vector<TraceEvent> events = recorder.Collect();
  ASSERT_EQ(events.size(), 10u);
  // Oldest-first within the ring.
  for (uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(events[i].trace_lo, i + 1);
    EXPECT_STREQ(events[i].name, "Test.Span");
    EXPECT_EQ(std::string(events[i].detail),
              "seq=" + std::to_string(i + 1));
  }
  EXPECT_EQ(recorder.events_recorded(), 10u);
}

TEST(TraceRecorderTest, WraparoundKeepsNewestEvents) {
  TraceRecorder recorder(TraceRecorder::Options{.ring_capacity = 16});
  const uint64_t total = 100;
  for (uint64_t i = 1; i <= total; ++i) recorder.Record(MakeEvent(i));
  const std::vector<TraceEvent> events = recorder.Collect();
  ASSERT_EQ(events.size(), 16u);
  // The ring retains exactly the newest capacity events, oldest-first.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].trace_lo, total - 16 + 1 + i);
  }
  EXPECT_EQ(recorder.events_recorded(), total);
}

TEST(TraceRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  TraceRecorder recorder(TraceRecorder::Options{.ring_capacity = 5});
  for (uint64_t i = 1; i <= 64; ++i) recorder.Record(MakeEvent(i));
  EXPECT_EQ(recorder.Collect().size(), 8u);
}

TEST(TraceRecorderTest, PerThreadRingsConcatenate) {
  TraceRecorder recorder(TraceRecorder::Options{.ring_capacity = 64});
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 10;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        recorder.Record(MakeEvent(static_cast<uint64_t>(t) * 1000 + i + 1));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::vector<TraceEvent> events = recorder.Collect();
  ASSERT_EQ(events.size(), kThreads * kPerThread);
  std::set<uint64_t> seen;
  std::set<uint32_t> thread_ids;
  for (const TraceEvent& event : events) {
    seen.insert(event.trace_lo);
    thread_ids.insert(event.thread_id);
  }
  EXPECT_EQ(seen.size(), kThreads * kPerThread) << "no event lost or torn";
  EXPECT_EQ(thread_ids.size(), static_cast<size_t>(kThreads));
}

// The TSan centerpiece: writers hammer small rings (constant wraparound)
// while readers Collect concurrently. Correctness bar: no torn snapshot is
// ever returned — every collected event's payload words must be mutually
// consistent — and TSan must be silent.
TEST(TraceRecorderTest, ConcurrentEmitVersusCollect) {
  TraceRecorder recorder(TraceRecorder::Options{.ring_capacity = 8});
  constexpr int kWriters = 3;
  constexpr uint64_t kEventsPerWriter = 20000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> collected{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      // `stop` is read before each Collect and the loop ends only after a
      // Collect that began once `stop` was set, i.e. after every writer
      // finished: a reader that ran its first Collect before the writers
      // started still collects the rings' final state.
      bool writers_done = false;
      do {
        writers_done = stop.load(std::memory_order_acquire);
        const std::vector<TraceEvent> events = recorder.Collect();
        collected.fetch_add(events.size(), std::memory_order_relaxed);
        for (const TraceEvent& event : events) {
          // Every writer stamps span_id == trace_lo and detail "seq=<lo>":
          // a torn copy (old payload mixed with new) breaks one of these.
          if (event.span_id != event.trace_lo ||
              std::string(event.detail) !=
                  "seq=" + std::to_string(event.trace_lo) ||
              event.end_nanos - event.start_nanos != 500) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      } while (!writers_done);
    });
  }
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, w] {
      for (uint64_t i = 1; i <= kEventsPerWriter; ++i) {
        recorder.Record(MakeEvent(static_cast<uint64_t>(w) * kEventsPerWriter + i));
      }
    });
  }
  for (std::thread& thread : writers) thread.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& thread : readers) thread.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_GT(collected.load(), 0u) << "readers overlapped the writers";
  EXPECT_EQ(recorder.events_recorded(), kWriters * kEventsPerWriter);
}

TEST(TraceRecorderTest, SamplingIsDeterministicInTheTraceId) {
  TraceRecorder recorder(TraceRecorder::Options{.sample_one_in = 64});
  // Same id, same verdict, every time.
  const bool first = recorder.ShouldSample(0x1234, 0x5678);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(recorder.ShouldSample(0x1234, 0x5678), first);
  }
  // Rate roughly 1/64 over many minted ids (binomial; generous bounds).
  int sampled = 0;
  const int kTrials = 64 * 200;
  for (int i = 0; i < kTrials; ++i) {
    const TraceContext context = MintTraceContext();
    if (recorder.ShouldSample(context.trace_hi, context.trace_lo)) ++sampled;
  }
  EXPECT_GT(sampled, 50);
  EXPECT_LT(sampled, 500);
}

TEST(TraceRecorderTest, SamplingEdgeRates) {
  TraceRecorder all(TraceRecorder::Options{.sample_one_in = 1});
  TraceRecorder none(TraceRecorder::Options{.sample_one_in = 0});
  for (int i = 0; i < 100; ++i) {
    const TraceContext context = MintTraceContext();
    EXPECT_TRUE(all.ShouldSample(context.trace_hi, context.trace_lo));
    EXPECT_FALSE(none.ShouldSample(context.trace_hi, context.trace_lo));
  }
}

TEST(TraceRecorderTest, InstallCurrentUninstall) {
  EXPECT_EQ(TraceRecorder::Current(), nullptr);
  {
    TraceRecorder recorder;
    TraceRecorder::Install(&recorder);
    EXPECT_EQ(TraceRecorder::Current(), &recorder);
    // Destructor uninstalls itself if still current.
  }
  EXPECT_EQ(TraceRecorder::Current(), nullptr);
}

TEST(TraceRecorderTest, ChromeExportIsValidAndSorted) {
  TraceRecorder recorder(TraceRecorder::Options{.ring_capacity = 64});
  // Record out of start-time order; the export must sort.
  recorder.Record(MakeEvent(30, "Z.Late"));
  recorder.Record(MakeEvent(10, "A.Early"));
  recorder.Record(MakeEvent(20, "M.Middle"));
  const std::string json = recorder.ExportChromeTrace();

  Result<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->AsArray().size(), 3u);
  double last_ts = -1;
  for (const JsonValue& event : events->AsArray()) {
    EXPECT_EQ(event.GetString("ph").ValueOrDie(), "X");
    EXPECT_EQ(event.GetString("cat").ValueOrDie(), "hops");
    const double ts = event.GetNumber("ts").ValueOrDie();
    EXPECT_GE(event.GetNumber("dur").ValueOrDie(), 0.0);
    EXPECT_GE(ts, last_ts) << "events must sort by start time";
    last_ts = ts;
    const JsonValue* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_EQ(args->GetString("trace_id").ValueOrDie().size(), 32u);
    EXPECT_EQ(args->GetString("span_id").ValueOrDie().size(), 16u);
  }
  EXPECT_EQ(events->AsArray()[0].GetString("name").ValueOrDie(), "A.Early");
}

TEST(TraceRecorderTest, DumpToFileWritesTheExport) {
  TraceRecorder recorder;
  recorder.Record(MakeEvent(1));
  const std::string path = ::testing::TempDir() + "/trace_dump_test.json";
  ASSERT_TRUE(recorder.DumpToFile(path).ok());
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string contents(1 << 16, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), file));
  std::fclose(file);
  EXPECT_EQ(contents, recorder.ExportChromeTrace());
  ASSERT_TRUE(ParseJson(contents).ok());
  std::remove(path.c_str());
}

TEST(TraceRecorderTest, DumpToBadPathFails) {
  TraceRecorder recorder;
  EXPECT_FALSE(recorder.DumpToFile("/nonexistent-dir/trace.json").ok());
}

TEST(TraceRecorderTest, EnvOptionsReadsSampleRate) {
  // No env var set in tests: defaults hold.
  const TraceRecorder::Options options = TraceRecorder::EnvOptions();
  EXPECT_EQ(options.sample_one_in, 64u);
  EXPECT_EQ(options.ring_capacity, 4096u);
}

}  // namespace
}  // namespace hops::telemetry
