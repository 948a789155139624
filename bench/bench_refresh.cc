// JSON perf harness for the adaptive statistics refresh subsystem
// (DESIGN.md §8): the write path that feeds the §7 serving path.
//
// Four measurements, written to BENCH_refresh.json:
//
//   delta_apply    — throughput of the UpdateLog → ApplyPendingDeltas
//                    pipeline: tuple deltas enqueued by producers and
//                    folded through the CatalogHistogram maintenance
//                    hooks, catalog write-back and snapshot republication
//                    included.
//   force_rebuild  — latency of a full-catalog rebuild: every column
//                    re-bucketized from its tracked ideal frequencies via
//                    the §6 batched construction pipeline, republished as
//                    one snapshot.
//   reader_under_churn — EstimateBatch latency quantiles (p50/p99) from a
//                    reader thread while a writer floods deltas and the
//                    RefreshDaemon continuously applies, rebuilds, and
//                    republishes. This is the RCU promise measured: reader
//                    tail latency must not collapse under maintenance.
//   selftune       — accuracy and cost of the §15 self-tuning layer on a
//                    drifting-Zipf column: median q-error of a stale
//                    v-optimal build vs the same build after feedback-driven
//                    in-place tuning (no rebuild), the cost per in-place
//                    change (adjustment or promotion) against the phase-2
//                    per-column rebuild cost, and a
//                    fingerprint check that tuning-off + feedback is
//                    bit-identical to never feeding at all. The exit code
//                    reflects the determinism check — a fingerprint
//                    mismatch is a correctness failure, not a perf
//                    regression.
//
// The full RefreshStats surface is exported under "refresh_stats", so the
// perf trajectory of the subsystem (backpressure events, rebuild reasons,
// republish counts) is machine-readable across PRs.
//
// Usage: bench_refresh [output.json] [--quick] [--telemetry]
//
// --telemetry embeds the full §9 metric registry (telemetry::RenderJson)
// under a "telemetry" key of the output document.

#include "bench_json.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "estimator/serving.h"
#include "refresh/refresh_daemon.h"
#include "refresh/refresh_manager.h"
#include "telemetry/exporters.h"
#include "telemetry/metrics.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace hops {
namespace {

struct BenchConfig {
  size_t num_columns = 8;
  size_t values_per_column = 10000;
  size_t apply_deltas = 200000;    // phase 1 total deltas
  size_t reader_batches = 2000;    // phase 3 timed EstimateBatch calls
  size_t churn_deltas = 100000;    // phase 3 writer volume
};

// Zipf-ish integer frequency for rank i (same shape as bench_estimation's
// synthetic columns: a few heavy hitters, long near-uniform tail).
double ZipfFrequency(size_t i, uint64_t salt) {
  return std::floor(1000.0 / std::sqrt(static_cast<double>(i + 1))) + 1.0 +
         static_cast<double>((i * 31 + salt * 17) % 5);
}

std::string TableName(size_t i) { return "t" + std::to_string(i); }

Result<std::vector<RefreshColumnId>> RegisterColumns(
    RefreshManager* manager, const BenchConfig& cfg) {
  std::vector<RefreshColumnId> ids;
  ids.reserve(cfg.num_columns);
  std::vector<int64_t> values(cfg.values_per_column);
  std::vector<double> freqs(cfg.values_per_column);
  for (size_t c = 0; c < cfg.num_columns; ++c) {
    for (size_t i = 0; i < cfg.values_per_column; ++i) {
      values[i] = static_cast<int64_t>(i);
      freqs[i] = ZipfFrequency(i, c);
    }
    HOPS_ASSIGN_OR_RETURN(RefreshColumnId id,
                          manager->RegisterColumn(TableName(c), "key",
                                                  values, freqs));
    ids.push_back(id);
  }
  return ids;
}

void WriteRefreshStats(JsonWriter* w, const RefreshStats& s) {
  w->BeginObject();
  w->Key("columns_tracked");
  w->UInt(s.columns_tracked);
  w->Key("deltas_applied");
  w->UInt(s.deltas_applied);
  w->Key("unknown_column_records");
  w->UInt(s.unknown_column_records);
  w->Key("ticks");
  w->UInt(s.ticks);
  w->Key("ticks_skipped");
  w->UInt(s.ticks_skipped);
  w->Key("rebuilds_total");
  w->UInt(s.rebuilds_total);
  w->Key("rebuilds_drift");
  w->UInt(s.rebuilds_drift);
  w->Key("rebuilds_self_join");
  w->UInt(s.rebuilds_self_join);
  w->Key("rebuilds_feedback");
  w->UInt(s.rebuilds_feedback);
  w->Key("rebuilds_forced");
  w->UInt(s.rebuilds_forced);
  w->Key("republish_count");
  w->UInt(s.republish_count);
  w->Key("feedback_reports");
  w->UInt(s.feedback_reports);
  w->Key("tuning_observations");
  w->UInt(s.tuning_observations);
  w->Key("tuning_adjustments");
  w->UInt(s.tuning_adjustments);
  w->Key("tuning_promotions");
  w->UInt(s.tuning_promotions);
  w->Key("last_tune_seconds");
  w->Double(s.last_tune_seconds);
  w->Key("last_tick_seconds");
  w->Double(s.last_tick_seconds);
  w->Key("last_refresh_seconds");
  w->Double(s.last_refresh_seconds);
  w->Key("log");
  w->BeginObject();
  w->Key("enqueued");
  w->UInt(s.log.enqueued);
  w->Key("drained");
  w->UInt(s.log.drained);
  w->Key("rejected");
  w->UInt(s.log.rejected);
  w->Key("producer_waits");
  w->UInt(s.log.producer_waits);
  w->Key("depth");
  w->UInt(s.log.depth);
  w->Key("high_water");
  w->UInt(s.log.high_water);
  w->Key("capacity");
  w->UInt(s.log.capacity);
  w->EndObject();
  w->EndObject();
}

int Run(int argc, char** argv) {
  std::string output = "BENCH_refresh.json";
  bool quick = false;
  bool dump_telemetry = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--telemetry") == 0) {
      dump_telemetry = true;
    } else {
      output = argv[i];
    }
  }

  BenchConfig cfg;
  if (quick) {
    cfg.num_columns = 4;
    cfg.values_per_column = 2000;
    cfg.apply_deltas = 20000;
    cfg.reader_batches = 300;
    cfg.churn_deltas = 10000;
  }
  const size_t threads = ThreadPool::Global().num_threads();
  std::cout << "bench_refresh: " << cfg.num_columns << " columns x "
            << cfg.values_per_column << " values, " << threads
            << " pool threads, " << (quick ? "quick" : "full") << " sweep\n";

  // ------------------------------------------------ phase 1: delta apply
  Catalog catalog;
  SnapshotStore store;
  RefreshOptions options;
  // Throughput phases measure the apply pipeline, not the rebuild policy;
  // phase 3 turns the policy back on.
  options.maintenance.rebuild_drift_fraction = 1e18;
  options.staleness.rebuild_score_threshold = 1e18;
  // Phase 1 pre-enqueues the whole batch before anything drains, so the
  // queue must hold it all — at the default 2^16 capacity the full-sweep
  // batch (200k records) would hit backpressure with no consumer and
  // deadlock the enqueue.
  options.queue_capacity = cfg.apply_deltas;
  RefreshManager manager(&catalog, &store, options);
  auto ids_or = RegisterColumns(&manager, cfg);
  ids_or.status().Check();
  const std::vector<RefreshColumnId>& ids = *ids_or;

  {
    // Enqueue first so the measured section is pure drain + apply +
    // write-back + republish.
    std::vector<UpdateRecord> batch;
    batch.reserve(cfg.apply_deltas);
    for (size_t i = 0; i < cfg.apply_deltas; ++i) {
      const RefreshColumnId column = ids[i % ids.size()];
      const int64_t value =
          static_cast<int64_t>((i * 2654435761u) % (2 * cfg.values_per_column));
      const double weight = (i % 7 == 6) ? -1.0 : +1.0;
      batch.push_back(UpdateRecord{column, value, weight});
    }
    manager.RecordBatch(batch).Check();
  }
  Stopwatch sw_apply;
  auto applied = manager.ApplyPendingDeltas();
  applied.status().Check();
  const double apply_seconds = sw_apply.ElapsedSeconds();
  const double deltas_per_second =
      apply_seconds > 0 ? static_cast<double>(*applied) / apply_seconds : 0;
  std::cout << "  delta_apply: " << *applied << " deltas in " << apply_seconds
            << "s (" << deltas_per_second << "/s)\n";

  // ---------------------------------------------- phase 2: force rebuild
  Stopwatch sw_rebuild;
  manager.ForceRebuild(ids).Check();
  const double rebuild_seconds = sw_rebuild.ElapsedSeconds();
  std::cout << "  force_rebuild: " << ids.size() << " columns in "
            << rebuild_seconds << "s\n";

  // ------------------------------------- phase 3: readers under churn
  // Fresh manager with the adaptive policy live, driven by the daemon.
  Catalog churn_catalog;
  SnapshotStore churn_store;
  RefreshOptions churn_options;
  churn_options.maintenance.rebuild_drift_fraction = 0.05;
  RefreshManager churn_manager(&churn_catalog, &churn_store, churn_options);
  auto churn_ids_or = RegisterColumns(&churn_manager, cfg);
  churn_ids_or.status().Check();
  const std::vector<RefreshColumnId>& churn_ids = *churn_ids_or;

  RefreshDaemonOptions daemon_options;
  daemon_options.tick_interval_micros = 500;
  RefreshDaemon daemon(&churn_manager, daemon_options);
  daemon.Start().Check();

  std::atomic<bool> stop_writer{false};
  std::atomic<uint64_t> written{0};
  std::thread writer([&] {
    size_t i = 0;
    while (!stop_writer.load(std::memory_order_acquire)) {
      if (i >= cfg.churn_deltas) {
        // Keep churning until the readers finish their quota.
        i = 0;
      }
      const RefreshColumnId column = churn_ids[i % churn_ids.size()];
      const int64_t value =
          static_cast<int64_t>((i * 40503u) % (2 * cfg.values_per_column));
      if (!churn_manager.RecordInsert(column, value).ok()) break;
      written.fetch_add(1, std::memory_order_relaxed);
      ++i;
    }
  });

  std::vector<double> latencies_micros;
  latencies_micros.reserve(cfg.reader_batches);
  bool estimates_well_formed = true;
  const std::string table0 = TableName(0);
  const std::string table1 = TableName(1);
  // Run until the reader has its quota AND the writer has pushed its full
  // churn volume — otherwise a fast reader would finish before any delta,
  // rebuild, or republish ever happened and the quantiles would measure an
  // idle store.
  for (size_t b = 0; b < cfg.reader_batches ||
                     written.load(std::memory_order_relaxed) <
                         cfg.churn_deltas;
       ++b) {
    std::shared_ptr<const CatalogSnapshot> snapshot = churn_store.Current();
    auto left = snapshot->Resolve(table0, "key");
    auto right = snapshot->Resolve(table1, "key");
    if (!left.ok() || !right.ok()) {
      estimates_well_formed = false;
      break;
    }
    std::vector<EstimateSpec> specs;
    specs.reserve(4);
    specs.push_back(EstimateSpec::Equality(*left, Value(int64_t{1})));
    specs.push_back(EstimateSpec::Equality(
        *right, Value(static_cast<int64_t>(cfg.values_per_column / 2))));
    specs.push_back(EstimateSpec::Range(
        *left, RangeBounds{static_cast<int64_t>(cfg.values_per_column / 4),
                           static_cast<int64_t>(cfg.values_per_column / 2),
                           true, true}));
    specs.push_back(EstimateSpec::Join(*left, *right));
    Stopwatch sw_batch;
    std::vector<Result<double>> estimates = EstimateBatch(*snapshot, specs);
    latencies_micros.push_back(sw_batch.ElapsedSeconds() * 1e6);
    for (const Result<double>& estimate : estimates) {
      if (!estimate.ok() || !std::isfinite(*estimate) || *estimate < 0) {
        estimates_well_formed = false;
      }
    }
  }

  stop_writer.store(true, std::memory_order_release);
  writer.join();
  daemon.DrainAndStop().Check();
  const RefreshStats churn_stats = churn_manager.stats();

  std::vector<double> sorted = latencies_micros;
  std::sort(sorted.begin(), sorted.end());
  const double p50 = NearestRankQuantile(sorted, 0.50);
  const double p99 = NearestRankQuantile(sorted, 0.99);
  const double worst = sorted.empty() ? 0 : sorted.back();
  std::cout << "  reader_under_churn: " << latencies_micros.size()
            << " batches, p50 " << p50 << "us, p99 " << p99 << "us (writer "
            << written.load() << " deltas, " << churn_stats.rebuilds_total
            << " rebuilds, " << churn_stats.republish_count
            << " republishes)\n";

  // ------------------------------- phase 4: self-tuning on a drifting Zipf
  // One column built from rank-ordered Zipf-ish frequencies; the "true"
  // distribution then rotates by a third of the domain, so the build's
  // heavy hitters go cold and new ones appear deep in the default bucket.
  // Three managers see the drift: a stale one (no feedback), a tuned one
  // (feedback + TuneColumns each round), and an off-but-fed one (same
  // feedback, tuning disabled) whose served estimates must stay bit-
  // identical to the stale manager's.
  const size_t drift_domain = cfg.values_per_column;
  const int64_t drift_shift = static_cast<int64_t>(drift_domain / 3);
  const auto drifted_truth = [&](int64_t v) {
    return ZipfFrequency(
        static_cast<size_t>((v + drift_shift) %
                            static_cast<int64_t>(drift_domain)),
        99);
  };
  struct DriftRig {
    Catalog catalog;
    SnapshotStore store;
    std::unique_ptr<RefreshManager> manager;
  };
  const auto make_rig = [&](bool tuning_enabled) {
    auto rig = std::make_unique<DriftRig>();
    RefreshOptions rig_options;
    rig_options.maintenance.rebuild_drift_fraction = 1e18;
    rig_options.staleness.rebuild_score_threshold = 1e18;
    rig_options.tuning.enabled = tuning_enabled;
    // Aggressive knobs: the bench wants the converged accuracy, not the
    // default production damping horizon.
    rig_options.tuning.promotion_ratio = 2.0;
    rig_options.tuning.max_promotions_per_tick = 16;
    rig_options.tuning.max_pending = 4096;
    rig->manager = std::make_unique<RefreshManager>(&rig->catalog,
                                                    &rig->store, rig_options);
    std::vector<int64_t> drift_values(drift_domain);
    std::vector<double> drift_freqs(drift_domain);
    for (size_t i = 0; i < drift_domain; ++i) {
      drift_values[i] = static_cast<int64_t>(i);
      drift_freqs[i] = ZipfFrequency(i, 99);
    }
    rig->manager->RegisterColumn("drift", "key", drift_values, drift_freqs)
        .status()
        .Check();
    return rig;
  };
  // Point probes over a bounded stride plus a handful of wide ranges.
  const auto drift_workload = [&](const CatalogSnapshot& snapshot) {
    auto id = snapshot.Resolve("drift", "key");
    id.status().Check();
    std::vector<EstimateSpec> specs;
    const int64_t stride = std::max<int64_t>(
        1, static_cast<int64_t>(drift_domain) / 512);
    for (int64_t v = 0; v < static_cast<int64_t>(drift_domain); v += stride) {
      specs.push_back(EstimateSpec::Equality(*id, Value(v)));
    }
    const int64_t width = static_cast<int64_t>(drift_domain) / 8;
    for (int64_t lo = 0; lo + width <= static_cast<int64_t>(drift_domain);
         lo += width) {
      specs.push_back(
          EstimateSpec::Range(*id, RangeBounds{lo, lo + width - 1,
                                               true, true}));
    }
    return specs;
  };
  const auto drift_truth_of = [&](const EstimateSpec& spec) {
    if (spec.kind == EstimateKind::kEquality) {
      return drifted_truth(spec.literal.AsInt64());
    }
    double total = 0;
    for (int64_t v = spec.bounds.low; v <= spec.bounds.high; ++v) {
      total += drifted_truth(v);
    }
    return total;
  };
  // Serve the workload; returns the estimates, folds q-errors + an
  // order-sensitive FNV-1a fingerprint of the raw double bits.
  const auto drift_serve = [&](DriftRig& rig, std::vector<double>* qerrors,
                               uint64_t* fingerprint) {
    const std::shared_ptr<const CatalogSnapshot> snapshot =
        rig.store.Current();
    for (const EstimateSpec& spec : drift_workload(*snapshot)) {
      auto estimate = EstimateOne(*snapshot, spec);
      estimate.status().Check();
      if (qerrors != nullptr) {
        const double e = std::max(*estimate, 1.0);
        const double a = std::max(drift_truth_of(spec), 1.0);
        qerrors->push_back(std::max(e / a, a / e));
      }
      if (fingerprint != nullptr) {
        uint64_t bits = 0;
        std::memcpy(&bits, &*estimate, sizeof(bits));
        for (size_t byte = 0; byte < sizeof(bits); ++byte) {
          *fingerprint ^= (bits >> (8 * byte)) & 0xFF;
          *fingerprint *= 1099511628211ull;  // FNV-1a
        }
      }
    }
  };
  const auto drift_feed = [&](DriftRig& rig) {
    const std::shared_ptr<const CatalogSnapshot> snapshot =
        rig.store.Current();
    for (const EstimateSpec& spec : drift_workload(*snapshot)) {
      auto estimate = EstimateOne(*snapshot, spec);
      estimate.status().Check();
      ReportEstimateOutcome(*snapshot, spec, *estimate, drift_truth_of(spec),
                            rig.manager.get())
          .Check();
    }
  };

  std::unique_ptr<DriftRig> stale_rig = make_rig(false);
  std::unique_ptr<DriftRig> tuned_rig = make_rig(true);
  std::unique_ptr<DriftRig> fed_rig = make_rig(false);

  std::vector<double> stale_q;
  uint64_t stale_fingerprint = 14695981039346656037ull;
  drift_serve(*stale_rig, &stale_q, &stale_fingerprint);

  const size_t selftune_rounds = quick ? 4 : 8;
  double tune_seconds = 0;
  for (size_t round = 0; round < selftune_rounds; ++round) {
    drift_feed(*tuned_rig);
    Stopwatch sw_tune;
    tuned_rig->manager->TuneColumns().status().Check();
    tune_seconds += sw_tune.ElapsedSeconds();
    // The off-but-fed rig sees the identical feedback stream; its
    // TuneColumns must be a no-op.
    drift_feed(*fed_rig);
    fed_rig->manager->TuneColumns().status().Check();
  }
  std::vector<double> tuned_q;
  drift_serve(*tuned_rig, &tuned_q, nullptr);
  uint64_t fed_fingerprint = 14695981039346656037ull;
  drift_serve(*fed_rig, nullptr, &fed_fingerprint);

  std::sort(stale_q.begin(), stale_q.end());
  std::sort(tuned_q.begin(), tuned_q.end());
  const double stale_median_q = NearestRankQuantile(stale_q, 0.50);
  const double tuned_median_q = NearestRankQuantile(tuned_q, 0.50);
  const double stale_p90_q = NearestRankQuantile(stale_q, 0.90);
  const double tuned_p90_q = NearestRankQuantile(tuned_q, 0.90);
  const RefreshStats tuned_stats = tuned_rig->manager->stats();
  // Every in-place change the tuner made: damped adjustments plus
  // default->explicit promotions. seconds_per_adjustment divides by this.
  const uint64_t tune_changes =
      tuned_stats.tuning_adjustments + tuned_stats.tuning_promotions;
  const double seconds_per_adjustment =
      tune_changes > 0 ? tune_seconds / static_cast<double>(tune_changes) : 0;
  const double rebuild_seconds_per_column =
      ids.empty() ? 0 : rebuild_seconds / static_cast<double>(ids.size());
  const bool selftune_bit_identical = fed_fingerprint == stale_fingerprint;
  std::cout << "  selftune: median q-error stale " << stale_median_q
            << " -> tuned " << tuned_median_q << " (" << selftune_rounds
            << " rounds, " << tuned_stats.tuning_adjustments
            << " adjustments + " << tuned_stats.tuning_promotions
            << " promotions, " << seconds_per_adjustment << "s per change vs "
            << rebuild_seconds_per_column << "s per rebuilt column, off-path "
            << (selftune_bit_identical ? "bit-identical" : "DIVERGED")
            << ")\n";

  // ----------------------------------------------------------------- JSON
  JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String("refresh_subsystem");
  WriteBenchProvenance(&w);
  w.Key("threads");
  w.UInt(threads);
  w.Key("hardware_concurrency");
  w.UInt(std::thread::hardware_concurrency());
  w.Key("quick");
  w.Bool(quick);
  w.Key("num_columns");
  w.UInt(cfg.num_columns);
  w.Key("values_per_column");
  w.UInt(cfg.values_per_column);

  w.Key("delta_apply");
  w.BeginObject();
  w.Key("deltas");
  w.UInt(*applied);
  w.Key("seconds");
  w.Double(apply_seconds);
  w.Key("deltas_per_second");
  w.Double(deltas_per_second);
  w.EndObject();

  w.Key("force_rebuild");
  w.BeginObject();
  w.Key("columns");
  w.UInt(ids.size());
  w.Key("seconds");
  w.Double(rebuild_seconds);
  w.Key("seconds_per_column");
  w.Double(ids.empty() ? 0 : rebuild_seconds /
                                 static_cast<double>(ids.size()));
  w.EndObject();

  w.Key("reader_under_churn");
  w.BeginObject();
  w.Key("batches");
  w.UInt(latencies_micros.size());
  w.Key("specs_per_batch");
  w.UInt(4);
  w.Key("p50_micros");
  w.Double(p50);
  w.Key("p99_micros");
  w.Double(p99);
  w.Key("max_micros");
  w.Double(worst);
  w.Key("writer_deltas");
  w.UInt(written.load());
  w.Key("well_formed");
  w.Bool(estimates_well_formed);
  w.EndObject();

  w.Key("selftune");
  w.BeginObject();
  w.Key("rounds");
  w.UInt(selftune_rounds);
  w.Key("workload_queries");
  w.UInt(stale_q.size());
  w.Key("stale_median_qerror");
  w.Double(stale_median_q);
  w.Key("tuned_median_qerror");
  w.Double(tuned_median_q);
  w.Key("stale_p90_qerror");
  w.Double(stale_p90_q);
  w.Key("tuned_p90_qerror");
  w.Double(tuned_p90_q);
  w.Key("tuned_beats_stale");
  w.Bool(tuned_median_q < stale_median_q);
  w.Key("adjustments");
  w.UInt(tuned_stats.tuning_adjustments);
  w.Key("promotions");
  w.UInt(tuned_stats.tuning_promotions);
  w.Key("observations");
  w.UInt(tuned_stats.tuning_observations);
  w.Key("tune_seconds_total");
  w.Double(tune_seconds);
  // Per in-place change: tune_seconds_total / (adjustments + promotions).
  w.Key("seconds_per_adjustment");
  w.Double(seconds_per_adjustment);
  w.Key("rebuild_seconds_per_column");
  w.Double(rebuild_seconds_per_column);
  w.Key("adjustment_cost_vs_rebuild");
  w.Double(rebuild_seconds_per_column > 0
               ? seconds_per_adjustment / rebuild_seconds_per_column
               : 0);
  w.Key("tuning_off_bit_identical");
  w.Bool(selftune_bit_identical);
  w.EndObject();

  w.Key("refresh_stats");
  WriteRefreshStats(&w, churn_stats);

  if (dump_telemetry) {
    // Full metric registry (span sites, serving counters, q-error families)
    // spliced in as rendered by the §9 JSON exporter.
    w.Key("telemetry");
    w.Raw(telemetry::RenderJson(telemetry::MetricRegistry::Global().Collect()));
  }
  w.EndObject();

  std::ofstream out(output);
  if (!out) {
    std::cerr << "bench_refresh: cannot open " << output << "\n";
    return 2;
  }
  out << w.str() << "\n";
  out.close();
  std::cout << "wrote " << output << "\n";
  if (!estimates_well_formed) {
    std::cerr << "bench_refresh: MALFORMED ESTIMATES UNDER CHURN\n";
    return 1;
  }
  if (!selftune_bit_identical) {
    std::cerr << "bench_refresh: TUNING-OFF SERVING DIVERGED FROM THE "
                 "NEVER-FED BASELINE\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hops

int main(int argc, char** argv) { return hops::Run(argc, argv); }
