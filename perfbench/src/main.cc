// perfbench: the repository benchmark. One process builds its seeded
// inputs, assembles the serving stack in-process (stack.h), drives it over
// loopback with its own load generator (one thread, at most four
// connections; loadgen.h), checks every answer, and prints one JSON result
// line.
//
//   hops_perfbench --workload plan_json|probe_binary|ingest_mixed
//                  --seed N --seconds S --trace 0|1
//                  [--data-dir DIR] [--inject-faults 0|1]
//
// --trace 0 prints the end-to-end metrics; --trace 1 turns the probes on and
// prints the per-layer metrics. --inject-faults corrupts one expected answer
// and takes one tuple (read-only workloads) or one acknowledged delta
// (ingest_mixed) out of the model, so both answer checks must fail (the
// self-test). The line before the result carries the
// diagnostics: shape, sizes, thread counts and every timing's sample count.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cpu_sampler.h"
#include "engine/statistics.h"
#include "estimator/serving.h"
#include "http_client.h"
#include "loadgen.h"
#include "net/wire_format.h"
#include "probes.h"
#include "replay.h"
#include "sample_stats.h"
#include "stack.h"
#include "telemetry/metrics.h"
#include "util/json.h"
#include "util/thread_pool.h"
#include "workload_data.h"

namespace perfbench {
namespace {

constexpr size_t kPoolThreads = 2;
constexpr size_t kClosedDepth = 4;  // requests in flight per connection
constexpr double kDrainSeconds = 5;
constexpr size_t kDeltasPerUpdate = 64;
// ingest_mixed's scheduled /update requests per second: well below what the
// server acknowledges (it falls behind 1250/s under AddressSanitizer's
// slowdown), so a slow host does not build a backlog either.
constexpr double kWriteRate = 600;
constexpr double kWarmupSeconds = 0.5;
constexpr size_t kReplayRequests = 1000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir = ".bench_build/perfbench-data";
  bool inject_faults = false;
};

/// Everything that distinguishes one workload from another.
struct WorkloadSpec {
  std::string name;
  CatalogShape shape;
  size_t buckets = 16;         ///< beta of the v-opt end-biased histograms
  bool binary = false;         ///< application/x-hops-batch framing
  size_t probe_specs = 0;      ///< specs per request; 0 = the 8-spec plan mix
  size_t pool_requests = 2048;
  double open_rate = 1000;     ///< scheduled /estimate requests per second
  size_t read_connections = 4;  ///< open- and closed-loop reads share them
  size_t setup_reps = 3;
  bool self_tuning = false;
  size_t feedback_one_in = 0;  ///< 1 in N answered reads reports feedback
  // ingest_mixed seeding: deltas before and after the seeded snapshot.
  size_t seed_snapshot_deltas = 0;
  size_t seed_wal_deltas = 0;
};

WorkloadSpec PlanJson() {
  WorkloadSpec w;
  w.name = "plan_json";
  w.shape.tables = 32;
  w.shape.columns_per_table = 8;
  w.shape.table_prefix = "plan";
  w.shape.distinct = 1000;
  w.shape.key_space = 1000;
  w.shape.tuples_per_column = 1e5;
  w.buckets = 16;
  w.pool_requests = 4096;
  w.open_rate = 2000;
  w.setup_reps = 7;
  return w;
}

WorkloadSpec ProbeBinary() {
  WorkloadSpec w;
  w.name = "probe_binary";
  w.shape.tables = 16;
  w.shape.columns_per_table = 1;
  w.shape.table_prefix = "probe";
  w.shape.distinct = 1 << 17;
  w.shape.key_space = int64_t{1} << 40;
  w.shape.tuples_per_column = 1e7;
  w.buckets = 1 << 16;
  w.binary = true;
  w.probe_specs = 256;
  w.pool_requests = 1024;
  w.open_rate = 1000;
  w.setup_reps = 3;
  return w;
}

WorkloadSpec IngestMixed() {
  WorkloadSpec w;
  w.name = "ingest_mixed";
  w.shape.tables = 8;
  w.shape.columns_per_table = 8;
  w.shape.table_prefix = "ingest";
  w.shape.distinct = 4096;
  w.shape.key_space = 4096;
  w.shape.tuples_per_column = 2e5;
  w.buckets = 32;
  w.pool_requests = 2048;
  w.open_rate = 1000;
  w.read_connections = 1;
  w.setup_reps = 11;
  w.self_tuning = true;
  w.feedback_one_in = 4;
  w.seed_snapshot_deltas = 1 << 15;
  w.seed_wal_deltas = 1 << 15;
  return w;
}

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Deterministic pool index for the \p i-th request of request stream
/// \p stream.
size_t PoolIndex(uint64_t seed, uint64_t stream, uint64_t i, size_t pool) {
  return static_cast<size_t>(Mix(Mix(seed ^ (stream << 48)) + i) % pool);
}

void SleepUntil(int64_t deadline_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(deadline_ns)));
}

// ------------------------------------------------------------------ output

std::string Num(double value) {
  if (std::isnan(value)) return "null";
  if (std::isinf(value)) return value > 0 ? "1e999" : "-1e999";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Flat JSON object builder for the two output lines.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, const std::string& raw_json) {
    if (!body_.empty()) body_.push_back(',');
    body_.append("\"").append(key).append("\":").append(raw_json);
    return *this;
  }
  JsonObject& Number(const std::string& key, double value) {
    return Add(key, Num(value));
  }
  JsonObject& Text(const std::string& key, const std::string& value) {
    std::string quoted;
    hops::AppendJsonQuoted(&quoted, value);
    return Add(key, quoted);
  }
  JsonObject& Flag(const std::string& key, bool value) {
    return Add(key, value ? "true" : "false");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Pass/fail counts of one answer check.
struct Check {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;

  void Record(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      if (failed == 0) first_failure = what;
      ++failed;
    }
  }
};

std::vector<double> Values(const std::vector<TimedSample>& samples) {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const TimedSample& s : samples) values.push_back(s.value);
  return values;
}

/// Raw measurements of one run; EmitResult turns them into the metric
/// lines, so every workload prints the same metric set.
struct Measurements {
  // end to end
  std::vector<double> setup_s;
  // End-to-end figures are medians over these windows (sample_stats.h).
  std::vector<TimedSample> estimate_us;  // open loop, at due time
  std::vector<Window> open;
  std::vector<CpuSampler::Spent> serve_cpu;  // per open window
  std::vector<TimedSample> read_specs;   // closed loop, at reply time
  std::vector<Window> closed;            // traced run: untraced windows
  std::vector<Window> closed_traced;     // traced run: traced windows
  std::vector<TimedSample> update_ack_us;  // at due time
  std::vector<TimedSample> acked_deltas;   // at ack time
  std::vector<TimedSample> freshness_ms;   // at ack time
  std::vector<Window> writes;
  std::vector<double> qerrors;
  // net
  std::vector<double> estimate_handle_us;
  std::vector<double> update_handle_us;
  std::vector<double> transport_us;
  double request_bytes = 0;
  double reply_bytes = 0;
  // engine, estimator, histogram
  ReplayTimes replay;
  uint64_t cache_hits = 0;
  uint64_t cache_lookups = 0;
  uint64_t publishes = 0;
  double compile_ms = 0;
  std::vector<double> build_ms;
  uint64_t rebuilds = 0;
  double rebuild_ms_per_column = 0;
  // refresh
  std::vector<double> tick_ms;
  uint64_t ticks = 0;
  uint64_t ticks_skipped = 0;
  double deltas_per_tick = 0;
  uint64_t queue_depth_max = 0;
  uint64_t producer_waits = 0;
  uint64_t tuning_adjustments = 0;
  // storage
  std::vector<double> wal_append_us;
  double wal_bytes_per_delta = 0;
  uint64_t writeback_kicks = 0;
  uint64_t fsyncs = 0;
  std::vector<double> recover_s;
  uint64_t replay_records = 0;
  std::vector<double> checkpoint_ms;
  // harness
  std::vector<double> late_us;
  double open_interval_us = 0;
  // answer checks and operation counts
  Check answers;       // every /estimate reply (and the warm restart)
  uint64_t unverified_answers = 0;  // served by a snapshot no longer held
  Check mass;          // no acknowledged write lost
  uint64_t updates_attempted = 0;
  uint64_t updates_failed = 0;
  uint64_t feedback_attempted = 0;
  uint64_t feedback_failed = 0;
  JsonObject shape;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void EmitResult(const Args& args, const Measurements& m) {
  JsonObject timings;
  const auto timing = [&](const std::string& name, const std::vector<double>& samples) {
    const SampleStats stats = Summarize(samples);
    timings.Add(name, JsonObject()
                          .Number("n", static_cast<double>(stats.n))
                          .Number("median", stats.median)
                          .Number("tail_quantile", stats.tail_quantile)
                          .Number("tail", stats.tail)
                          .Flag("p99_supported", stats.p99_supported)
                          .str());
    return stats;
  };
  const SampleStats setup = timing("setup_s", m.setup_s);
  // Stack CPU per wall second over all open windows together: a window of
  // 0.9 s holds about a dozen of probe_binary's long refresh ticks, so one
  // tick more or less moves a single window's figure by several percent.
  double serve_cpu_ms = 0;
  double serve_wall_s = 0;
  std::vector<double> serve_cpu_per_window;
  for (const CpuSampler::Spent& spent : m.serve_cpu) {
    serve_cpu_ms += spent.cpu_ms;
    serve_wall_s += spent.wall_s;
    if (spent.wall_s > 0) serve_cpu_per_window.push_back(spent.cpu_ms / spent.wall_s);
  }
  timing("serve_cpu_ms_per_s", serve_cpu_per_window);
  timing("estimate_us", Values(m.estimate_us));
  timing("update_ack_us", Values(m.update_ack_us));
  timing("freshness_lag_ms", Values(m.freshness_ms));
  const SampleStats qerror = timing("qerror", m.qerrors);
  const SampleStats handle = timing("estimate_handle_us", m.estimate_handle_us);
  const SampleStats update_handle = timing("update_handle_us", m.update_handle_us);
  const SampleStats transport = timing("transport_us", m.transport_us);
  const SampleStats build = timing("build_ms", m.build_ms);
  const SampleStats tick = timing("tick_ms", m.tick_ms);
  const SampleStats wal = timing("wal_append_us", m.wal_append_us);
  const SampleStats recover = timing("recover_s", m.recover_s);
  const SampleStats checkpoint = timing("checkpoint_ms", m.checkpoint_ms);
  const SampleStats late = timing("late_us", m.late_us);

  const bool behind = late.n > 0 && late.p99 > m.open_interval_us;
  if (behind) {
    std::cerr << "perfbench: the open-loop generator fell behind (late p99 "
              << late.p99 << " us > interval " << m.open_interval_us << " us)\n";
  }

  JsonObject metrics;
  const auto metric = [&](const std::string& name, double value,
                          const std::string& unit) {
    metrics.Add(name,
                JsonObject().Number("value", value).Text("unit", unit).str());
  };
  // Wall-clock figures. On the reference VM they follow how much CPU the
  // host's other guests take (steal) more than they follow the stack, so
  // their run-to-run spread is wider than any regression bound (see
  // README.md); they are reported here, not as metrics.
  JsonObject unbounded;
  unbounded
      .Number("estimate_p50_us", WindowedQuantile(m.estimate_us, m.open, 0.5))
      .Number("estimate_p99_us", WindowedQuantile(m.estimate_us, m.open, 0.99))
      .Number("estimate_specs_per_s", WindowedRate(m.read_specs, m.closed))
      .Number("update_ack_p50_us", WindowedQuantile(m.update_ack_us, m.writes, 0.5))
      .Number("update_ack_p99_us", WindowedQuantile(m.update_ack_us, m.writes, 0.99))
      .Number("ingest_deltas_per_s", WindowedRate(m.acked_deltas, m.writes))
      .Number("freshness_lag_ms_p50", WindowedQuantile(m.freshness_ms, m.writes, 0.5))
      .Number("freshness_lag_ms_p99", WindowedQuantile(m.freshness_ms, m.writes, 0.99));
  if (!args.trace) {
    metric("setup_s", setup.median, "s");
    metric("serve_cpu_ms_per_s", serve_wall_s > 0 ? serve_cpu_ms / serve_wall_s : 0.0,
           "ms/s");
    metric("qerror_p50", qerror.median, "ratio");
    metric("peak_rss_mb", PeakRssMb(), "MB");
  } else {
    const ReplayTimes& r = m.replay;
    metric("net.estimate_handle_us_p50", handle.median, "us");
    metric("net.estimate_handle_us_p99", handle.p99, "us");
    metric("net.update_handle_us_p50", update_handle.median, "us");
    metric("net.transport_us_p50", transport.median, "us");
    metric("net.parse_us_per_req", r.parse_us, "us");
    metric("net.decode_us_per_req", r.decode_us, "us");
    metric("net.render_us_per_req", r.render_us, "us");
    metric("net.req_bytes", m.request_bytes, "bytes");
    metric("net.resp_bytes", m.reply_bytes, "bytes");
    metric("engine.acquire_ns", r.acquire_ns, "ns");
    metric("engine.resolve_ns_per_spec", r.resolve_ns_per_spec, "ns");
    metric("engine.cache_hit_ratio",
           m.cache_lookups == 0 ? 0.0
                                : static_cast<double>(m.cache_hits) /
                                      static_cast<double>(m.cache_lookups),
           "ratio");
    metric("engine.cache_lookups", static_cast<double>(m.cache_lookups), "count");
    metric("engine.publishes", static_cast<double>(m.publishes), "count");
    metric("engine.compile_ms", m.compile_ms, "ms");
    metric("estimator.batch_us_per_req", r.batch_us, "us");
    metric("estimator.ns_per_spec", r.ns_per_spec, "ns");
    metric("histogram.build_ms_per_column", build.median, "ms");
    metric("histogram.rebuilds", static_cast<double>(m.rebuilds), "count");
    metric("histogram.rebuild_ms_per_column", m.rebuild_ms_per_column, "ms");
    metric("refresh.tick_ms_p50", tick.median, "ms");
    metric("refresh.tick_ms_p99", tick.p99, "ms");
    metric("refresh.ticks", static_cast<double>(m.ticks), "count");
    metric("refresh.ticks_skipped", static_cast<double>(m.ticks_skipped), "count");
    metric("refresh.deltas_per_tick", m.deltas_per_tick, "count");
    metric("refresh.queue_depth_max", static_cast<double>(m.queue_depth_max), "count");
    metric("refresh.producer_waits", static_cast<double>(m.producer_waits), "count");
    metric("refresh.tuning_adjustments", static_cast<double>(m.tuning_adjustments),
           "count");
    metric("storage.wal_append_us_p50", wal.median, "us");
    metric("storage.wal_append_us_p99", wal.p99, "us");
    metric("storage.wal_bytes_per_delta", m.wal_bytes_per_delta, "bytes");
    metric("storage.writeback_kicks", static_cast<double>(m.writeback_kicks), "count");
    metric("storage.fsyncs", static_cast<double>(m.fsyncs), "count");
    metric("storage.recover_s", recover.median, "s");
    metric("storage.replay_records", static_cast<double>(m.replay_records), "count");
    metric("storage.checkpoint_ms", checkpoint.median, "ms");
    // Closed-loop read rate of the untraced windows over the traced ones
    // (they alternate).
    const double untraced = WindowedRate(m.read_specs, m.closed);
    const double traced = WindowedRate(m.read_specs, m.closed_traced);
    metric("loadgen.late_us_p99", late.p99, "us");
    metric("trace.overhead_pct",
           traced > 0 ? (untraced / traced - 1.0) * 100.0 : 0.0, "%");
    // Traced-run consistency: the handler's median minus the replayed
    // stages that run inside it. HttpParser runs before the handler, so
    // parse is reported on its own and not subtracted.
    metric("trace.remainder_us",
           handle.median - (r.decode_us + r.acquire_ns / 1e3 +
                            r.resolve_ns_per_spec * r.specs_per_request / 1e3 +
                            r.batch_us + r.render_us),
           "us");
  }

  const uint64_t attempted = m.answers.attempted + m.mass.attempted +
                             m.updates_attempted + m.feedback_attempted;
  const uint64_t failed = m.answers.failed + m.mass.failed + m.updates_failed +
                          m.feedback_failed;
  JsonObject checks;
  for (const auto& [name, check] :
       {std::pair<const char*, const Check*>{"answers", &m.answers},
        {"mass", &m.mass}}) {
    checks.Add(name, JsonObject()
                         .Number("attempted", static_cast<double>(check->attempted))
                         .Number("failed", static_cast<double>(check->failed))
                         .Text("first_failure", check->first_failure)
                         .str());
  }
  checks.Number("answers_unverified", static_cast<double>(m.unverified_answers));
  checks.Add("updates", JsonObject()
                            .Number("attempted", static_cast<double>(m.updates_attempted))
                            .Number("failed", static_cast<double>(m.updates_failed))
                            .str());
  checks.Add("feedback", JsonObject()
                             .Number("attempted", static_cast<double>(m.feedback_attempted))
                             .Number("failed", static_cast<double>(m.feedback_failed))
                             .str());

  JsonObject threads;
  threads.Number("nproc", static_cast<double>(std::thread::hardware_concurrency()))
      .Number("server_workers", static_cast<double>(kServerWorkers))
      .Number("pool_threads", static_cast<double>(kPoolThreads))
      .Number("global_pool_threads",
              static_cast<double>(hops::ThreadPool::DefaultThreadCount()))
      .Number("generator_threads", 1);

  JsonObject diagnostics;
  diagnostics.Text("workload", args.workload)
      .Number("seed", static_cast<double>(args.seed))
      .Number("seconds", args.seconds)
      .Flag("trace", args.trace)
      .Flag("inject_faults", args.inject_faults)
      .Add("threads", threads.str())
      .Add("shape", m.shape.str())
      .Add("checks", checks.str())
      .Add("timings", timings.str())
      .Add("unbounded", unbounded.str())
      .Number("windows_open", static_cast<double>(m.open.size()))
      .Number("windows_closed",
              static_cast<double>(m.closed.size() + m.closed_traced.size()))
      .Number("windows_writes", static_cast<double>(m.writes.size()))
      .Flag("generator_behind", behind);
  std::cout << JsonObject().Add("perfbench_diagnostics", diagnostics.str()).str()
            << "\n";
  std::cout << JsonObject()
                   .Flag("correct", failed == 0)
                   .Number("attempted", static_cast<double>(attempted))
                   .Number("failed", static_cast<double>(failed))
                   .Add("metrics", metrics.str())
                   .str()
            << std::endl;
}

// ------------------------------------------------------------ shared parts

hops::RefreshOptions MakeRefreshOptions(const WorkloadSpec& w,
                                        hops::ThreadPool* pool) {
  hops::RefreshOptions options;
  options.statistics.histogram_class = hops::StatisticsHistogramClass::kVOptEndBiased;
  options.statistics.num_buckets = w.buckets;
  options.tuning.enabled = w.self_tuning;
  options.pool = pool;
  return options;
}

uint64_t CacheCounter(const char* name) {
  return hops::telemetry::MetricRegistry::Global()
      .GetCounter(name, "estimate cache counter")
      ->Value();
}

size_t CompiledHistogramBytes(const hops::CatalogSnapshot& snapshot) {
  size_t bytes = 0;
  for (hops::ColumnId id = 0; id < snapshot.num_columns(); ++id) {
    const hops::CompiledHistogram& h = *snapshot.stats(id).histogram;
    bytes += h.keys().size_bytes() + h.frequencies().size_bytes() +
             h.prefix_sums().size_bytes() + h.eytzinger_keys().size_bytes() +
             h.eytzinger_ranks().size_bytes();
  }
  return bytes;
}

/// Distinct cacheable predicates (equality, range, join) in the pool.
size_t DistinctCacheablePredicates(const std::vector<GenRequest>& pool) {
  std::unordered_set<std::string> seen;
  for (const GenRequest& request : pool) {
    for (const GenSpec& spec : request.specs) {
      if (spec.kind == GenSpec::Kind::kIn) continue;
      seen.insert(std::to_string(static_cast<int>(spec.kind)) + ":" +
                  std::to_string(spec.column) + ":" + std::to_string(spec.right) +
                  ":" + std::to_string(spec.a) + ":" + std::to_string(spec.b));
    }
  }
  return seen.size();
}

/// Checks /estimate replies. With a stack (the read-only workloads) every
/// slot must be bit-identical to in-process EstimateOne on the snapshot that
/// served it: precomputed for the snapshot served when the run starts,
/// computed on demand for snapshots the daemon publishes later. A reply from
/// a snapshot the ring no longer holds (the generator was stalled for more
/// than 16 publishes) is counted as unverified; more than 1% unverified
/// fails the run. Without a stack (reads beside writers) every slot must be
/// finite and non-negative. Collects the q-errors of equality and range
/// specs against true sizes.
class ReplyChecker {
 public:
  ReplyChecker(const Columns& columns, bool binary, const Stack* stack,
               uint64_t base_version, bool corrupt_first)
      : columns_(columns),
        binary_(binary),
        stack_(stack),
        base_version_(base_version),
        corrupt_next_(corrupt_first) {}

  bool Check(const GenRequest& request, const HttpReply& reply,
             const std::vector<double>& truths, std::vector<double>* estimates,
             std::vector<double>* qerrors, std::string* failure) {
    uint64_t version = 0;
    const bool parsed =
        reply.status == 200 &&
        (binary_ ? ParseBinaryEstimates(reply.body, &version, estimates)
                 : ParseJsonEstimates(reply.body, &version, estimates));
    if (!parsed || estimates->size() != request.specs.size()) {
      *failure = "reply status " + std::to_string(reply.status) +
                 " did not carry one estimate per spec";
      return false;
    }
    std::vector<double> expected;
    const bool verify = stack_ != nullptr && Expected(request, version, &expected);
    if (stack_ != nullptr && !verify) ++unverified;
    for (size_t i = 0; i < estimates->size(); ++i) {
      const double served = (*estimates)[i];
      const bool ok = verify ? BitIdentical(served, expected[i])
                             : std::isfinite(served) && served >= 0;
      if (!ok) {
        *failure = "spec " + std::to_string(i) + " of snapshot " +
                   std::to_string(version) + " served " + Num(served) +
                   (verify ? ", in-process " + Num(expected[i]) : std::string());
        return false;
      }
      if (qerrors != nullptr && !std::isnan(truths[i])) {
        qerrors->push_back(QError(served, truths[i]));
      }
    }
    return true;
  }

  uint64_t unverified = 0;

 private:
  /// False when the serving snapshot is no longer held.
  bool Expected(const GenRequest& request, uint64_t version,
                std::vector<double>* expected) {
    if (version == base_version_) {
      *expected = request.expected;
    } else {
      const std::shared_ptr<const hops::CatalogSnapshot> snapshot =
          stack_->probes.published.Find(version, stack_->store);
      if (snapshot == nullptr) return false;
      for (const GenSpec& spec : request.specs) {
        hops::Result<hops::EstimateSpec> resolved =
            ToEstimateSpec(columns_, *snapshot, spec);
        hops::Result<double> estimate =
            resolved.ok() ? hops::EstimateOne(*snapshot, *resolved)
                          : hops::Result<double>(resolved.status());
        expected->push_back(estimate.ok() ? *estimate
                                          : std::numeric_limits<double>::quiet_NaN());
      }
    }
    if (corrupt_next_) {
      corrupt_next_ = false;
      (*expected)[0] = std::nextafter((*expected)[0], HUGE_VAL);
    }
    return true;
  }

  const Columns& columns_;
  const bool binary_;
  const Stack* const stack_;
  const uint64_t base_version_;
  bool corrupt_next_;
};

std::vector<double> TruthsNow(const Columns& columns, const GenRequest& request) {
  std::vector<double> truths(request.specs.size(),
                             std::numeric_limits<double>::quiet_NaN());
  for (size_t i = 0; i < request.specs.size(); ++i) {
    TrueSize(columns, request.specs[i], &truths[i]);
  }
  return truths;
}

/// /estimate traffic over a request pool, checked by \p checker. True sizes
/// come from the model at send time; 1 in feedback_one_in answered reads is
/// followed by a /feedback report carrying them. Every reply is checked and
/// counted; latency, transport and q-error samples are kept only for the
/// requests due in \p sampled (the open-loop windows), so the generator's
/// memory does not grow with the closed-loop rate, which follows the host.
class ReadTraffic final : public Traffic {
 public:
  ReadTraffic(const Columns& columns, const std::vector<GenRequest>& pool,
              const WorkloadSpec& w, uint64_t seed, uint64_t stream,
              const std::vector<Window>& sampled, ReplyChecker* checker,
              Check* answers)
      : columns_(columns),
        pool_(pool),
        w_(w),
        seed_(seed),
        stream_(stream),
        sampled_(sampled),
        checker_(checker),
        answers_(answers) {}

  const std::string& Next(size_t /*link*/, uint64_t index,
                          uint64_t* cookie) override {
    const size_t request = PoolIndex(seed_, stream_, index, pool_.size());
    *cookie = index;
    inflight_[index] = InFlight{request, TruthsNow(columns_, pool_[request])};
    return pool_[request].wire;
  }

  bool OnReply(uint64_t cookie, const HttpReply* reply, int64_t issued_ns,
               int64_t received_ns, std::string* follow_up) override {
    const auto it = inflight_.find(cookie);
    const InFlight sent = std::move(it->second);
    inflight_.erase(it);
    const GenRequest& request = pool_[sent.request];
    std::string failure = "connection broke";
    const bool sampled = InWindows(sampled_, issued_ns);
    const bool ok = reply != nullptr &&
                    checker_->Check(request, *reply, sent.truths, &estimates_,
                                    sampled ? &qerrors : nullptr, &failure);
    answers_->Record(ok, failure);
    const double elapsed_us = static_cast<double>(received_ns - issued_ns) / 1e3;
    if (sampled) latency_us.push_back({issued_ns, ok ? elapsed_us : kFailedSample});
    if (!ok) return false;
    specs.push_back({received_ns, static_cast<double>(request.specs.size())});
    request_bytes += request.wire.size();
    reply_bytes += reply->wire_bytes;
    if (sampled && reply->has_handle_ns) {
      transport_us.push_back(
          {issued_ns, elapsed_us - static_cast<double>(reply->handle_ns) / 1e3});
    }
    if (w_.feedback_one_in != 0 && ++answered_ % w_.feedback_one_in == 0) {
      const std::string body =
          RenderFeedbackJson(columns_, request.specs, estimates_, sent.truths);
      if (!body.empty()) {
        *follow_up = RenderPost("/feedback", "application/json", body);
      }
    }
    return true;
  }

  // Sampled requests only:
  std::vector<TimedSample> latency_us;    // at issue (due) time
  std::vector<double> qerrors;
  std::vector<TimedSample> transport_us;  // round trip minus handler time
  // Every answered request:
  std::vector<TimedSample> specs;       // answered specs, at reply time
  size_t request_bytes = 0;             // of answered requests
  size_t reply_bytes = 0;

 private:
  struct InFlight {
    size_t request = 0;
    std::vector<double> truths;
  };

  const Columns& columns_;
  const std::vector<GenRequest>& pool_;
  const WorkloadSpec& w_;
  const uint64_t seed_;
  const uint64_t stream_;
  const std::vector<Window>& sampled_;
  ReplyChecker* const checker_;
  Check* const answers_;
  std::unordered_map<uint64_t, InFlight> inflight_;
  std::vector<double> estimates_;
  uint64_t answered_ = 0;
};

std::vector<uint32_t> AllColumns(const Columns& columns) {
  std::vector<uint32_t> all(columns.size());
  for (uint32_t c = 0; c < all.size(); ++c) all[c] = c;
  return all;
}

/// /update traffic, 64 deltas per request, pipelined on one connection,
/// which the server handles in order, so deletes never outrun the inserts
/// before them. Acknowledged deltas fold into the model; with \p drop_one
/// the first acknowledged delta is left out (the self-test's lost write).
class WriteTraffic final : public Traffic {
 public:
  WriteTraffic(const Columns& columns, uint64_t seed, bool drop_one)
      : columns_(columns),
        stream_(AllColumns(columns), Mix(seed + 101)),
        drop_pending_(drop_one) {}

  const std::string& Next(size_t /*link*/, uint64_t /*index*/,
                          uint64_t* /*cookie*/) override {
    std::vector<Delta> batch = stream_.NextBatch(columns_, kDeltasPerUpdate);
    wire_ = RenderPost("/update", "application/json",
                       RenderUpdateJson(columns_, batch));
    in_flight_.push_back(std::move(batch));
    return wire_;
  }

  bool OnReply(uint64_t /*cookie*/, const HttpReply* reply, int64_t issued_ns,
               int64_t received_ns, std::string* /*follow_up*/) override {
    const std::vector<Delta> batch = std::move(in_flight_.front());
    in_flight_.pop_front();
    stream_.Settle(batch);
    const bool ok = reply != nullptr && reply->status == 200 && reply->has_seq;
    ack_us.push_back({issued_ns, ok ? static_cast<double>(received_ns - issued_ns) / 1e3
                                    : kFailedSample});
    if (!ok) return false;
    for (size_t i = drop_pending_ ? 1 : 0; i < batch.size(); ++i) {
      columns_[batch[i].column]->Add(batch[i].index, batch[i].weight);
    }
    drop_pending_ = false;
    acks.emplace_back(received_ns, reply->seq);
    deltas.push_back({received_ns, static_cast<double>(batch.size())});
    return true;
  }

  std::vector<TimedSample> ack_us;  // at due time
  std::vector<TimedSample> deltas;  // acknowledged, at ack time
  std::vector<std::pair<int64_t, uint64_t>> acks;  // ack time, x-bench-seq

 private:
  const Columns& columns_;
  DeltaStream stream_;
  std::deque<std::vector<Delta>> in_flight_;
  std::string wire_;
  bool drop_pending_;
};

/// Freshness lag of each acknowledged /update: from its ack to the end of
/// the first refresh tick by whose end its last record had been drained,
/// applied and published.
std::vector<TimedSample> FreshnessLags(
    const std::vector<std::pair<int64_t, uint64_t>>& acks,
    const std::vector<TickRecord>& ticks, uint64_t* unmatched) {
  std::vector<TimedSample> lags;
  lags.reserve(acks.size());
  for (const auto& [acked_ns, seq] : acks) {
    const auto tick = std::lower_bound(
        ticks.begin(), ticks.end(), seq,
        [](const TickRecord& t, uint64_t s) { return t.drained_total < s; });
    if (tick == ticks.end()) {
      ++*unmatched;
      lags.push_back({acked_ns, kFailedSample});
    } else {
      lags.push_back({acked_ns, static_cast<double>(tick->end_ns - acked_ns) / 1e6});
    }
  }
  return lags;
}

/// After the daemon's drain: each column's served mass equals the model's
/// registered mass plus every acknowledged delta.
void CheckMass(const Stack& stack, const Columns& columns, Check* mass) {
  const std::shared_ptr<const hops::CatalogSnapshot> snapshot = stack.store.Current();
  for (const std::unique_ptr<ColumnModel>& column : columns) {
    hops::Result<hops::ColumnId> id =
        snapshot->Resolve(column->table(), column->column());
    const double served = id.ok() ? snapshot->stats(*id).num_tuples : -1.0;
    const double expected = column->Total();
    mass->Record(served == expected, column->table() + "." + column->column() +
                                         " mass " + Num(served) + ", acknowledged " +
                                         Num(expected));
  }
}

void CollectRefreshCounters(Stack& stack, Measurements* m) {
  const hops::RefreshStats stats = stack.manager.stats();
  m->ticks = stats.ticks;
  m->ticks_skipped = stats.ticks_skipped;
  m->deltas_per_tick =
      stats.ticks > stats.ticks_skipped
          ? static_cast<double>(stats.deltas_applied) /
                static_cast<double>(stats.ticks - stats.ticks_skipped)
          : 0.0;
  m->producer_waits = stats.log.producer_waits;
  m->tuning_adjustments = stats.tuning_adjustments;
  m->rebuilds = stats.rebuilds_total;
  m->queue_depth_max = stack.probes.queue_depth_max.load();
  m->estimate_handle_us = stack.probes.estimate_handle_us.Snapshot();
  m->update_handle_us = stack.probes.update_handle_us.Snapshot();
  m->tick_ms = stack.probes.tick_ms.Snapshot();
  m->wal_append_us = stack.probes.wal_append_us.Snapshot();
}

std::vector<GenRequest> MakePool(const WorkloadSpec& w, const Columns& columns,
                                 Rng& rng) {
  std::unique_ptr<PlanMix> mix;
  if (w.probe_specs == 0) mix = std::make_unique<PlanMix>(columns, rng);
  std::vector<GenRequest> pool(w.pool_requests);
  for (GenRequest& request : pool) {
    request.specs = mix != nullptr
                        ? mix->Next(rng)
                        : ProbeMix(columns, w.probe_specs, w.shape.key_space, rng);
    request.wire =
        w.binary ? RenderPost("/estimate", hops::net::kBatchContentType,
                              RenderEstimateBinary(columns, request.specs))
                 : RenderPost("/estimate", "application/json",
                              RenderEstimateJson(columns, request.specs));
  }
  return pool;
}

void RecordShape(const WorkloadSpec& w, const Columns& columns,
                 const std::vector<GenRequest>& pool,
                 const hops::CatalogSnapshot& snapshot, double write_rate,
                 Measurements* m) {
  const size_t capacity = snapshot.estimate_cache().capacity();
  m->shape.Number("columns", static_cast<double>(columns.size()))
      .Number("distinct_values_per_column", static_cast<double>(w.shape.distinct))
      .Number("key_space", static_cast<double>(w.shape.key_space))
      .Text("histogram_class", "v-opt end-biased")
      .Number("beta", static_cast<double>(w.buckets))
      .Text("framing", w.binary ? "application/x-hops-batch" : "application/json")
      .Number("specs_per_request", static_cast<double>(pool.front().specs.size()))
      .Number("pool_requests", static_cast<double>(pool.size()))
      .Number("open_loop_rate_per_s", w.open_rate)
      .Number("read_connections", static_cast<double>(w.read_connections))
      .Number("closed_loop_depth", static_cast<double>(kClosedDepth))
      .Number("writer_connections", write_rate > 0 ? 1 : 0)
      .Number("writer_rate_per_s", write_rate)
      .Number("deltas_per_update", static_cast<double>(kDeltasPerUpdate))
      .Number("feedback_one_in", static_cast<double>(w.feedback_one_in))
      .Number("tick_ms", static_cast<double>(kTickMicros) / 1e3)
      .Number("distinct_cacheable_predicates",
              static_cast<double>(DistinctCacheablePredicates(pool)))
      .Number("estimate_cache_slots", static_cast<double>(capacity))
      .Number("estimate_cache_admission_limit", static_cast<double>(capacity / 2))
      .Number("compiled_histogram_bytes",
              static_cast<double>(CompiledHistogramBytes(snapshot)))
      .Number("l2_bytes_per_core",
              static_cast<double>(sysconf(_SC_LEVEL2_CACHE_SIZE)))
      .Number("l3_bytes", static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
}

std::vector<const std::string*> ReplaySample(const std::vector<GenRequest>& pool,
                                             uint64_t seed) {
  std::vector<const std::string*> wires;
  for (size_t i = 0; i < std::min(kReplayRequests, pool.size()); ++i) {
    wires.push_back(&pool[PoolIndex(seed, 40, i, pool.size())].wire);
  }
  return wires;
}

/// Traced-run replays on the stopped stack.
bool RunReplays(Stack& stack, const WorkloadSpec& w, const Columns& columns,
                const std::vector<GenRequest>& pool, uint64_t seed,
                hops::ThreadPool* threads, Measurements* m) {
  if (!ReplayRequests(ReplaySample(pool, seed), w.binary, stack.store, threads,
                      &m->replay)) {
    std::cerr << "perfbench: replay failed\n";
    return false;
  }
  m->compile_ms = ReplayCompileMs(stack.catalog, 5);
  m->rebuild_ms_per_column = ReplayRebuildMsPerColumn(columns, w.buckets, threads, 3);
  return true;
}

/// Folds the reads in: open-loop latency from due time, how late the
/// generator ran, closed-loop answered specs, q-errors and wire bytes.
void RecordReads(const ReadTraffic& reads, const TrafficCounts& counts,
                 const WorkloadSpec& w, Measurements* m) {
  m->estimate_us = reads.latency_us;
  m->read_specs = reads.specs;
  for (const auto& [due, late] : counts.late_us) {
    if (due >= m->open.front().start_ns) m->late_us.push_back(late);
  }
  m->open_interval_us = 1e6 / w.open_rate;
  const double answered = static_cast<double>(reads.specs.size());
  if (answered > 0) {
    m->request_bytes = static_cast<double>(reads.request_bytes) / answered;
    m->reply_bytes = static_cast<double>(reads.reply_bytes) / answered;
  }
  m->qerrors = reads.qerrors;
  // Transport from open-loop requests only: closed-loop round trips also
  // wait behind the connection's other requests in flight.
  for (const std::vector<double>& window : Bucket(reads.transport_us, m->open)) {
    m->transport_us.insert(m->transport_us.end(), window.begin(), window.end());
  }
  m->feedback_attempted = counts.follow_ups;
  m->feedback_failed = counts.follow_ups_failed;
}

/// Folds the writers in; every acknowledged /update must also show up in a
/// refresh tick (else it counts as lost).
void RecordWrites(const WriteTraffic& writes, const TrafficCounts& counts,
                  const Stack& stack, Measurements* m) {
  m->updates_attempted = counts.attempted;
  m->updates_failed = counts.failed;
  m->update_ack_us = writes.ack_us;
  m->acked_deltas = writes.deltas;
  for (const auto& [due, late] : counts.late_us) {
    if (due >= m->writes.front().start_ns) m->late_us.push_back(late);
  }
  uint64_t unmatched = 0;
  m->freshness_ms = FreshnessLags(writes.acks, stack.probes.TickLog(), &unmatched);
  m->mass.attempted += writes.acks.size();
  m->mass.failed += unmatched;
  if (unmatched > 0 && m->mass.first_failure.empty()) {
    m->mass.first_failure = "an acknowledged update never reached a tick";
  }
}

/// In the traced run, switches tracing at the given times from its own
/// thread (the closed-loop phase measures an untraced and a traced half);
/// joins on destruction.
class TraceSwitch {
 public:
  TraceSwitch(Probes* probes, bool trace,
              std::vector<std::pair<int64_t, bool>> schedule)
      : thread_([probes, trace, schedule = std::move(schedule)] {
          if (!trace) return;
          for (const auto& [at_ns, on] : schedule) {
            SleepUntil(at_ns);
            probes->tracing = on;
          }
        }) {}
  ~TraceSwitch() { thread_.join(); }
  TraceSwitch(const TraceSwitch&) = delete;
  TraceSwitch& operator=(const TraceSwitch&) = delete;

 private:
  std::thread thread_;
};

int64_t Seconds(double seconds) { return static_cast<int64_t>(seconds * 1e9); }

/// The read schedule: a warm-up, then cycles of one open-loop second and
/// one closed-loop second on the same connections. Alternating spreads each
/// figure's windows over the whole phase, so a slow stretch on the host
/// lands in few windows of each. Each window skips its first 100 ms, in
/// which the previous segment's requests drain. In the traced run the
/// open-loop seconds are traced and the closed-loop seconds alternate
/// between untraced and traced.
struct ReadSchedule {
  std::vector<Segment> segments;
  std::vector<Window> open;
  std::vector<Window> closed;
  std::vector<Window> closed_traced;
  std::vector<std::pair<int64_t, bool>> trace_switches;
  int64_t end_ns = 0;
};

ReadSchedule MakeReadSchedule(int64_t start_ns, double seconds, double rate,
                              size_t depth, bool trace) {
  constexpr double kSettleSeconds = 0.1;
  ReadSchedule schedule;
  int64_t at = start_ns + Seconds(kWarmupSeconds);
  schedule.segments.push_back({start_ns, at, rate, 1});
  const int cycles = std::max(2, static_cast<int>(seconds / 2));
  for (int i = 0; i < cycles; ++i) {
    schedule.segments.push_back({at, at + Seconds(1), rate, 1});
    schedule.open.push_back({at + Seconds(kSettleSeconds), at + Seconds(1)});
    at += Seconds(1);
    const bool traced = trace && i % 2 == 1;
    schedule.segments.push_back({at, at + Seconds(1), 0, depth});
    (traced ? schedule.closed_traced : schedule.closed)
        .push_back({at + Seconds(kSettleSeconds), at + Seconds(1)});
    if (trace) {
      schedule.trace_switches.emplace_back(at, traced);
      schedule.trace_switches.emplace_back(at + Seconds(1), true);
    }
    at += Seconds(1);
  }
  schedule.end_ns = at;
  return schedule;
}

// ------------------------------------------------------------- workloads

/// plan_json and probe_binary: read-only traffic (open-loop seconds
/// alternating with closed-loop seconds) against a catalog nobody writes to.
int RunReadWorkload(const Args& args, const WorkloadSpec& w) {
  Measurements m;
  Rng rng(args.seed);
  const Columns columns = MakeColumns(w.shape, rng);
  std::vector<GenRequest> pool = MakePool(w, columns, rng);
  std::vector<std::vector<double>> frequencies;
  for (const auto& column : columns) frequencies.push_back(column->Counts());

  hops::ThreadPool threads(kPoolThreads);
  const hops::RefreshOptions options = MakeRefreshOptions(w, &threads);

  // Set-up: column registration (first publish included) and server start,
  // repeated; the last stack serves the run.
  std::unique_ptr<Stack> stack;
  for (size_t rep = 0; rep < w.setup_reps; ++rep) {
    stack.reset();
    auto next = std::make_unique<Stack>(options);
    const int64_t start = NowNs();
    for (size_t c = 0; c < columns.size(); ++c) {
      const int64_t registered = NowNs();
      hops::Result<hops::RefreshColumnId> id = next->manager.RegisterColumn(
          columns[c]->table(), columns[c]->column(), columns[c]->values(),
          frequencies[c]);
      if (!id.ok()) {
        std::cerr << "perfbench: RegisterColumn: " << id.status().message() << "\n";
        return 2;
      }
      m.build_ms.push_back(static_cast<double>(NowNs() - registered) / 1e6);
    }
    const hops::Status served = next->Serve(&threads);
    m.setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!served.ok()) {
      std::cerr << "perfbench: serve: " << served.message() << "\n";
      return 2;
    }
    stack = std::move(next);
  }

  // Expected answers: in-process EstimateOne on the snapshot being served.
  const std::shared_ptr<const hops::CatalogSnapshot> snapshot = stack->store.Current();
  const uint64_t version = snapshot->source_version();
  for (GenRequest& request : pool) {
    for (const GenSpec& spec : request.specs) {
      hops::Result<hops::EstimateSpec> resolved =
          ToEstimateSpec(columns, *snapshot, spec);
      hops::Result<double> estimate =
          resolved.ok() ? hops::EstimateOne(*snapshot, *resolved)
                        : hops::Result<double>(resolved.status());
      if (!estimate.ok()) {
        std::cerr << "perfbench: EstimateOne: " << estimate.status().message() << "\n";
        return 2;
      }
      request.expected.push_back(*estimate);
    }
  }
  stack->probes.published.Remember(snapshot);
  ReplyChecker checker(columns, w.binary, stack.get(), version, args.inject_faults);
  RecordShape(w, columns, pool, *snapshot, /*write_rate=*/0, &m);

  const uint64_t hits_before = CacheCounter("hops_estimate_cache_hits_total");
  const uint64_t misses_before = CacheCounter("hops_estimate_cache_misses_total");
  const uint64_t publishes_before = stack->store.publish_count();
  stack->probes.tracing = args.trace;

  // Reads: open-loop seconds at a fixed rate alternating with closed-loop
  // seconds.
  std::vector<TrafficCounts> counts;
  ReadSchedule schedule = MakeReadSchedule(NowNs() + Seconds(0.001), args.seconds,
                                           w.open_rate, kClosedDepth, args.trace);
  ReadTraffic reads(columns, pool, w, args.seed, 1, schedule.open, &checker,
                    &m.answers);
  m.open = schedule.open;
  m.closed = schedule.closed;
  m.closed_traced = schedule.closed_traced;
  {
    TraceSwitch trace_switch(&stack->probes, args.trace, schedule.trace_switches);
    CpuSampler cpu(schedule.open);
    if (!RunLoad(stack->port(), kServerWorkers, {{&reads, w.read_connections, schedule.segments}},
                 kDrainSeconds, &counts)) {
      m.answers.Record(false, "could not connect");
    }
    m.serve_cpu = cpu.PerWindow();
  }
  stack->probes.tracing = args.trace;
  RecordReads(reads, counts[0], w, &m);
  m.unverified_answers = checker.unverified;
  if (checker.unverified * 100 > m.answers.attempted) {
    m.answers.Record(false, std::to_string(checker.unverified) +
                                " replies came from snapshots no longer held");
  }
  m.cache_hits = CacheCounter("hops_estimate_cache_hits_total") - hits_before;
  m.cache_lookups = m.cache_hits +
                    CacheCounter("hops_estimate_cache_misses_total") - misses_before;

  stack->probes.published.Close();
  const hops::Status stopped = stack->Stop();
  if (!stopped.ok()) m.mass.Record(false, "shutdown: " + stopped.message());
  // Nobody wrote, so the served mass must still be the registered one; the
  // self-test takes one tuple out of the model to see this check fail.
  if (args.inject_faults) columns[0]->Add(0, -1.0);
  CheckMass(*stack, columns, &m.mass);
  m.publishes = stack->store.publish_count() - publishes_before;
  CollectRefreshCounters(*stack, &m);

  if (args.trace && !RunReplays(*stack, w, columns, pool, args.seed, &threads, &m)) {
    return 2;
  }
  EmitResult(args, m);
  return m.answers.failed + m.mass.failed == 0 ? 0 : 1;
}

/// Seeds a data dir the way a crashed process leaves it: a snapshot plus a
/// WAL tail. Returns the estimates the process served just before it died.
hops::Status SeedDataDir(const WorkloadSpec& w, const Columns& columns,
                         const std::string& dir, const std::vector<GenRequest>& probe,
                         hops::ThreadPool* threads, uint64_t seed,
                         std::vector<double>* build_ms,
                         std::vector<std::vector<double>>* expected) {
  Stack stack(MakeRefreshOptions(w, threads));
  HOPS_RETURN_NOT_OK(stack.OpenDurable(dir));
  for (const auto& column : columns) {
    const int64_t start = NowNs();
    HOPS_RETURN_NOT_OK(stack.manager
                           .RegisterColumn(column->table(), column->column(),
                                           column->values(), column->Counts())
                           .status());
    build_ms->push_back(static_cast<double>(NowNs() - start) / 1e6);
  }
  DeltaStream stream(AllColumns(columns), Mix(seed + 7));
  const auto apply = [&](size_t total) -> hops::Status {
    for (size_t done = 0; done < total; done += 1024) {
      const std::vector<Delta> deltas = stream.NextBatch(columns, 1024);
      std::vector<hops::UpdateRecord> records;
      for (const Delta& delta : deltas) {
        records.push_back(hops::UpdateRecord{
            delta.column, columns[delta.column]->values()[delta.index], delta.weight});
        columns[delta.column]->Add(delta.index, delta.weight);
      }
      stream.Settle(deltas);
      HOPS_RETURN_NOT_OK(stack.manager.RecordBatch(records));
      HOPS_RETURN_NOT_OK(stack.manager.ApplyPendingDeltas().status());
    }
    return hops::Status::OK();
  };
  HOPS_RETURN_NOT_OK(apply(w.seed_snapshot_deltas));
  HOPS_RETURN_NOT_OK(stack.durable->WriteSnapshot());
  HOPS_RETURN_NOT_OK(apply(w.seed_wal_deltas));
  const std::shared_ptr<const hops::CatalogSnapshot> snapshot = stack.store.Current();
  for (const GenRequest& request : probe) {
    std::vector<double> answers;
    for (const GenSpec& spec : request.specs) {
      HOPS_ASSIGN_OR_RETURN(hops::EstimateSpec resolved,
                            ToEstimateSpec(columns, *snapshot, spec));
      HOPS_ASSIGN_OR_RETURN(double estimate, hops::EstimateOne(*snapshot, resolved));
      answers.push_back(estimate);
    }
    expected->push_back(std::move(answers));
  }
  return hops::Status::OK();  // no shutdown snapshot: the WAL tail stays
}

/// ingest_mixed: warm restart, then writers beside an open-loop reader
/// with feedback and periodic checkpoints, then the reader switches to a
/// closed loop while the writers go on.
int RunIngestWorkload(const Args& args, const WorkloadSpec& w) {
  Measurements m;
  Rng rng(args.seed);
  const Columns columns = MakeColumns(w.shape, rng);
  const std::vector<GenRequest> pool = MakePool(w, columns, rng);
  // Warm-restart probe: the first 64 pool requests.
  const std::vector<GenRequest> probe(pool.begin(), pool.begin() + 64);

  hops::ThreadPool threads(kPoolThreads);
  const hops::RefreshOptions options = MakeRefreshOptions(w, &threads);
  const std::filesystem::path root =
      std::filesystem::path(args.data_dir) /
      (w.name + "-" + std::to_string(::getpid()));
  std::error_code ignored;
  std::filesystem::remove_all(root, ignored);
  std::filesystem::create_directories(root);
  const std::string seed_dir = (root / "seed").string();
  std::vector<std::vector<double>> expected;
  if (hops::Status seeded = SeedDataDir(w, columns, seed_dir, probe, &threads,
                                        args.seed, &m.build_ms, &expected);
      !seeded.ok()) {
    std::cerr << "perfbench: seeding: " << seeded.message() << "\n";
    return 2;
  }
  if (args.inject_faults) {
    expected[0][0] = std::nextafter(expected[0][0], HUGE_VAL);
  }

  // Set-up: Open + RecoverAndAttach + server start on a fresh copy of the
  // seeded dir, repeated; the last stack serves the run. Each warm restart
  // must answer the probe exactly as the seeded process did.
  std::unique_ptr<Stack> stack;
  for (size_t rep = 0; rep < w.setup_reps; ++rep) {
    stack.reset();
    const std::filesystem::path dir = root / ("run-" + std::to_string(rep));
    std::filesystem::copy(seed_dir, dir, std::filesystem::copy_options::recursive);
    auto next = std::make_unique<Stack>(options);
    const int64_t start = NowNs();
    hops::Status status = next->OpenDurable(dir.string());
    // The recovered snapshot, before the daemon's first tick can replace it.
    const std::shared_ptr<const hops::CatalogSnapshot> restored =
        next->store.Current();
    if (status.ok()) status = next->Serve(&threads);
    m.setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    if (!status.ok()) {
      std::cerr << "perfbench: warm restart: " << status.message() << "\n";
      return 2;
    }
    const hops::storage::RecoveryReport& report = next->durable->report();
    m.recover_s.push_back(report.seconds);
    m.replay_records = report.wal_delta_records + report.wal_registrations;
    for (size_t r = 0; r < probe.size(); ++r) {
      for (size_t i = 0; i < probe[r].specs.size(); ++i) {
        hops::Result<hops::EstimateSpec> resolved =
            ToEstimateSpec(columns, *restored, probe[r].specs[i]);
        hops::Result<double> estimate =
            resolved.ok() ? hops::EstimateOne(*restored, *resolved)
                          : hops::Result<double>(resolved.status());
        m.answers.Record(estimate.ok() && BitIdentical(*estimate, expected[r][i]),
                         "warm restart probe " + std::to_string(r) + "." +
                             std::to_string(i) + " differs from the seeded answer");
      }
    }
    if (rep + 1 < w.setup_reps) {
      next.reset();
      std::filesystem::remove_all(dir, ignored);
    }
    stack = std::move(next);
  }
  RecordShape(w, columns, pool, *stack->store.Current(), kWriteRate, &m);
  // Replies beside the writers are not checked against a snapshot.
  stack->probes.published.Close();

  const uint64_t hits_before = CacheCounter("hops_estimate_cache_hits_total");
  const uint64_t misses_before = CacheCounter("hops_estimate_cache_misses_total");
  const uint64_t publishes_before = stack->store.publish_count();
  const hops::storage::WalWriterStats wal_before = stack->durable->wal_stats();
  stack->probes.tracing = args.trace;

  // Writers run throughout. Beside them one reader connection alternates
  // open-loop seconds (with feedback) and closed-loop seconds.
  const int64_t start = NowNs() + Seconds(0.001);
  const ReadSchedule schedule =
      MakeReadSchedule(start, args.seconds, w.open_rate, kClosedDepth, args.trace);
  m.open = schedule.open;
  m.closed = schedule.closed;
  m.closed_traced = schedule.closed_traced;
  // Write figures come from the open-loop seconds, in which the reader and
  // the writer both run at fixed rates: in the closed-loop seconds the
  // reader's load (and the feedback it sends) follows the host's speed, and
  // a median over both kinds of second would flip between the two.
  m.writes = schedule.open;

  // Periodic checkpoints, as --checkpoint-seconds=1 does.
  std::atomic<uint64_t> checkpoint_failures{0};
  std::thread checkpointer([&] {
    for (int64_t next = start + Seconds(kWarmupSeconds + 1); next < schedule.end_ns;
         next += Seconds(1)) {
      SleepUntil(next);
      const int64_t began = NowNs();
      if (!stack->durable->WriteSnapshot().ok()) ++checkpoint_failures;
      m.checkpoint_ms.push_back(static_cast<double>(NowNs() - began) / 1e6);
    }
  });
  ReplyChecker checker(columns, w.binary, /*stack=*/nullptr, 0, false);
  WriteTraffic writes(columns, args.seed, args.inject_faults);
  ReadTraffic reads(columns, pool, w, args.seed, 1, schedule.open, &checker,
                    &m.answers);
  std::vector<TrafficCounts> counts;
  bool connected = false;
  {
    TraceSwitch trace_switch(&stack->probes, args.trace, schedule.trace_switches);
    CpuSampler cpu(schedule.open);
    // One writer and one reader connection: RunLoad puts them on different
    // server workers, so reads do not queue behind an /update that waits on
    // the manager mutex for a refresh tick.
    connected = RunLoad(
        stack->port(), kServerWorkers,
        {{&writes, 1, {{start, schedule.end_ns, kWriteRate, 1}}},
         {&reads, w.read_connections, schedule.segments}},
        kDrainSeconds, &counts);
    m.serve_cpu = cpu.PerWindow();
  }
  checkpointer.join();
  if (!connected) m.answers.Record(false, "could not connect");

  const hops::Status stopped = stack->Stop();
  if (!stopped.ok()) m.mass.Record(false, "shutdown: " + stopped.message());
  CheckMass(*stack, columns, &m.mass);
  if (connected) {
    RecordWrites(writes, counts[0], *stack, &m);
    RecordReads(reads, counts[1], w, &m);
  }
  m.updates_failed += checkpoint_failures.load();
  m.cache_hits = CacheCounter("hops_estimate_cache_hits_total") - hits_before;
  m.cache_lookups = m.cache_hits +
                    CacheCounter("hops_estimate_cache_misses_total") - misses_before;
  m.publishes = stack->store.publish_count() - publishes_before;
  const hops::storage::WalWriterStats wal_after = stack->durable->wal_stats();
  const uint64_t records = wal_after.records_appended - wal_before.records_appended;
  m.wal_bytes_per_delta =
      records == 0 ? 0
                   : static_cast<double>(wal_after.bytes_appended -
                                         wal_before.bytes_appended) /
                         static_cast<double>(records);
  m.writeback_kicks = wal_after.writeback_kicks - wal_before.writeback_kicks;
  m.fsyncs = wal_after.fsyncs - wal_before.fsyncs;
  CollectRefreshCounters(*stack, &m);

  const bool replayed =
      !args.trace || RunReplays(*stack, w, columns, pool, args.seed, &threads, &m);
  stack.reset();
  std::filesystem::remove_all(root, ignored);
  if (!replayed) return 2;
  EmitResult(args, m);
  return m.answers.failed + m.mass.failed + m.updates_failed + m.feedback_failed == 0
             ? 0
             : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--data-dir") {
      args->data_dir = value;
    } else if (flag == "--inject-faults") {
      args->inject_faults = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: hops_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--data-dir DIR] [--inject-faults 0|1]\n";
    return 2;
  }
  if (args.workload == "plan_json") return RunReadWorkload(args, PlanJson());
  if (args.workload == "probe_binary") return RunReadWorkload(args, ProbeBinary());
  if (args.workload == "ingest_mixed") return RunIngestWorkload(args, IngestMixed());
  std::cerr << "perfbench: unknown workload " << args.workload << "\n";
  return 2;
}
