// Catalog-wide adaptive statistics maintenance (DESIGN.md §8) — the third
// pillar of the system next to batched construction (§6) and snapshot
// serving (§7).
//
// The RefreshManager owns the write path of statistics:
//
//   writers ──► UpdateLog (bounded MPSC) ──► ApplyPendingDeltas
//                                              │  per-column
//                                              ▼  HistogramMaintainer
//                       Catalog (system of record, version-bumped)
//                                              │
//                                              ▼  one RCU swap
//                       SnapshotStore ──► readers (EstimateBatch)
//
// Deltas flow through the existing CatalogHistogram maintenance hooks
// (histogram/maintenance.h), so counts stay current between rebuilds; the
// StalenessAdvisor (refresh/staleness.h) scores every column by drift, by
// the Proposition 3.1 self-join error of the maintained bucketization
// against the tracked ideal frequencies, and by estimation-error feedback
// reported through estimator/serving.h's EstimationFeedbackSink; the
// worst-scoring columns are rebuilt with the §6 batched construction
// pipeline and the whole catalog is republished as one immutable
// CatalogSnapshot — readers never observe a torn catalog
// (tests/refresh/refresh_daemon_test.cc proves it under ThreadSanitizer).
//
// RefreshOptions::shards splits only the apply step: a tick buckets the
// drained records by a stable hash of their column and applies the buckets
// in parallel on the pool. A column's histogram depends on its own
// frequency set alone (Theorem 3.3), so buckets share nothing; every
// decision — tuning, scoring, rebuild picks, publication — stays global,
// and served estimates are bit-identical at every shard count.
//
// Thread model: producers touch only the UpdateLog's lock; readers touch
// only the SnapshotStore; Lookup touches only the name index's shared
// lock; everything else (column registry, catalog, moments) is guarded by
// one manager mutex, taken by the single maintenance consumer (the daemon
// or a test calling Tick()) and by feedback reporters.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "engine/catalog.h"
#include "engine/catalog_snapshot.h"
#include "engine/statistics.h"
#include "estimator/serving.h"
#include "histogram/maintenance.h"
#include "refresh/durable_state.h"
#include "refresh/refresh_source.h"
#include "refresh/refresh_stats.h"
#include "refresh/self_tuner.h"
#include "refresh/staleness.h"
#include "refresh/update_log.h"
#include "util/thread_pool.h"

namespace hops {

namespace telemetry {
struct SpanSite;
}  // namespace telemetry

/// \brief Knobs for the whole refresh subsystem.
struct RefreshOptions {
  /// Per-column incremental-maintenance policy (drift thresholds).
  MaintenanceOptions maintenance;
  /// Advisor weights and the rebuild threshold.
  StalenessOptions staleness;
  /// Construction knobs for rebuilds (histogram class, bucket count).
  StatisticsOptions statistics;
  /// Bound on the delta-ingestion queue (backpressure beyond it).
  size_t queue_capacity = 1 << 16;
  /// At most this many columns are rebuilt per tick (worst scores first),
  /// so one hot tick cannot starve delta ingestion.
  size_t max_rebuilds_per_tick = 4;
  /// Feedback EWMA smoothing factor in (0, 1]: weight of the newest report.
  double feedback_alpha = 0.25;
  /// Self-tuning layer knobs (refresh/self_tuner.h); disabled by default —
  /// with tuning off every histogram stays byte-identical to a build
  /// without the subsystem.
  SelfTuneOptions tuning;
  /// Apply partitions (clamped to at least 1). Above 1, each tick buckets
  /// the drained records by ShardOfColumn, keeping drain order, and applies
  /// the buckets in parallel on the pool. Nothing else depends on it:
  /// queue_capacity and max_rebuilds_per_tick stay totals.
  size_t shards = 1;
  /// Pool for batched rebuilds and partitioned applies; nullptr =
  /// ThreadPool::Global().
  ThreadPool* pool = nullptr;
};

/// \brief One column's staleness verdict, as returned by ScoreColumns.
struct ColumnStalenessReport {
  RefreshColumnId id = 0;
  std::string table;
  std::string column;
  StalenessScore score;
  uint64_t deltas_applied = 0;  ///< since the last rebuild
  uint64_t rebuilds = 0;        ///< lifetime rebuild count
  // Self-tuning state (all zero with tuning off; GET /debug/columns).
  uint64_t tuning_observations = 0;  ///< outcomes buffered for tuning
  uint64_t tuning_adjustments = 0;   ///< in-place frequency adjustments
  uint64_t tuning_promotions = 0;    ///< default values promoted explicit
  double tuning_recency = 0;         ///< staleness-relief signal [0, 1]
};

/// \brief Catalog-wide adaptive maintenance coordinator. See the file
/// comment for the thread model. RefreshTickReport lives in
/// refresh/refresh_source.h with the RefreshSource driver contract.
class RefreshManager : public EstimationFeedbackSink, public RefreshSource {
 public:
  /// \p catalog and \p store must be non-null and outlive the manager; the
  /// manager assumes mutation authority over the catalog (external writers
  /// must not mutate it concurrently with Tick — the Catalog is
  /// thread-compatible) and is the store's only publisher.
  RefreshManager(Catalog* catalog, SnapshotStore* store,
                 RefreshOptions options = {});

  ~RefreshManager() override;

  RefreshManager(const RefreshManager&) = delete;
  RefreshManager& operator=(const RefreshManager&) = delete;

  // ----------------------------------------------------------- registration

  /// Registers (table, column) with its initial ideal frequency set:
  /// \p value_ids[i] occurs \p frequencies[i] times. Builds the initial
  /// histogram with the configured construction, stores it in the catalog,
  /// seeds the ideal tracker, and republishes the snapshot. AlreadyExists
  /// on duplicate registration; InvalidArgument on malformed input
  /// (mismatched spans, duplicate values, negative frequencies).
  Result<RefreshColumnId> RegisterColumn(const std::string& table,
                                         const std::string& column,
                                         std::span<const int64_t> value_ids,
                                         std::span<const double> frequencies);

  /// Resolves a registered (table, column); NotFound when absent. Takes
  /// only the name index's shared lock, so it never waits for a tick.
  Result<RefreshColumnId> Lookup(std::string_view table,
                                 std::string_view column) const;

  size_t num_columns() const;

  /// The apply partition that owns \p id (a stable hash of the id; always
  /// 0 at shards = 1).
  size_t ShardOfColumn(RefreshColumnId id) const;

  /// The options the manager was constructed with (e.g. the histogram
  /// class rebuilds use — surfaced by GET /debug/columns).
  const RefreshOptions& options() const { return options_; }

  // ------------------------------------------------------------- write path

  /// Producer-facing delta ingestion (thread-safe, blocking backpressure —
  /// see UpdateLog). Ids are validated at apply time; records against
  /// unknown ids are counted and dropped by the consumer.
  Status RecordInsert(RefreshColumnId column, int64_t value) {
    return log_.RecordInsert(column, value);
  }
  Status RecordDelete(RefreshColumnId column, int64_t value) {
    return log_.RecordDelete(column, value);
  }
  Status RecordBatch(std::span<const UpdateRecord> records) {
    return log_.RecordBatch(records);
  }

  /// Direct access (bench instrumentation, shutdown Close()).
  UpdateLog& update_log() { return log_; }

  // ------------------------------------------------------------- durability
  //
  // The storage layer (src/storage/, DESIGN.md §13) drives these. Recovery
  // order matters: RestoreDurableState (from the latest snapshot), then
  // ReplayRegistration / ApplyRecoveredDeltas for WAL records past the
  // snapshot's high-water mark, then AttachDurability — attaching last
  // keeps replay from re-persisting what the WAL already holds.

  /// Installs \p hook (nullptr clears): deltas persist on the UpdateLog
  /// accept path, registrations inside RegisterColumn before install. The
  /// hook must outlive the manager or be cleared first.
  void AttachDurability(DurabilityHook* hook);

  /// Drains and applies every queued delta (republishing if anything
  /// changed), then exports the whole manager image. Draining first makes
  /// `high_water_lsn` contiguous: every LSN <= it is inside the image,
  /// every LSN > it is still in the WAL for replay.
  Result<RefreshDurableState> ExportDurableState();

  /// Rebuilds live state from an exported image. The manager must be empty
  /// (no registered columns) and configured with the same RefreshOptions
  /// that produced the image. Writes every column back to the catalog and
  /// republishes once. Restored columns are not marked unchanged since
  /// their build (the image may carry tuning), so each may rebuild once.
  Status RestoreDurableState(const RefreshDurableState& state);

  /// Replays one persisted registration record: identical to
  /// RegisterColumn, plus the recorded \p id must equal the id the replay
  /// assigns (columns register in dense-id order) and \p lsn folds into
  /// the high-water mark. Records at or below the current high-water mark
  /// are skipped (the snapshot already holds them). FailedPrecondition if
  /// a durability hook is already attached.
  Status ReplayRegistration(uint64_t lsn, RefreshColumnId id,
                            const std::string& table,
                            const std::string& column,
                            std::span<const int64_t> value_ids,
                            std::span<const double> frequencies);

  /// Applies WAL-replayed deltas directly (bypassing the queue and the
  /// hook), skipping records at or below the high-water mark, folding each
  /// applied LSN, and republishing once when anything changed. Returns the
  /// number applied.
  Result<size_t> ApplyRecoveredDeltas(std::span<const UpdateRecord> records);

  /// Largest LSN whose effects are applied (0 before any durability).
  uint64_t last_applied_lsn() const;

  // --------------------------------------------------------------- feedback

  /// EstimationFeedbackSink: folds |estimated - actual| / max(actual, 1)
  /// into the column's EWMA. Unknown columns are ignored (the serving layer
  /// may know columns the refresh subsystem does not track). Thread-safe.
  void ReportEstimationError(std::string_view table, std::string_view column,
                             double estimated, double actual) override;

  /// Predicate-shaped feedback: folds the same EWMA signal, then (when
  /// options.tuning.enabled) buffers the probed interval for the next
  /// tick's self-tuning pass. Thread-safe.
  void ReportPredicateOutcome(std::string_view table, std::string_view column,
                              const PredicateOutcome& outcome) override;

  // ------------------------------------------------------ maintenance cycle

  /// Drains the update log and applies every delta through the maintenance
  /// hooks; writes maintained statistics back to the catalog and
  /// republishes one snapshot when anything changed. Returns the number of
  /// deltas applied. Single-consumer: call from one thread at a time (the
  /// daemon, or tests).
  Result<size_t> ApplyPendingDeltas();

  /// Drains buffered predicate feedback into in-place tuning adjustments
  /// (refresh/self_tuner.h) and decays the tuning-recency relief signal;
  /// republishes when anything changed. No-op with tuning disabled.
  /// Returns whether any column mutated. Tick runs the same pass between
  /// apply and scoring; benches call it directly to time tuning alone.
  Result<bool> TuneColumns();

  /// Scores every column (no mutation). Sorted worst-first.
  std::vector<ColumnStalenessReport> ScoreColumns() const;

  /// Scores one column.
  Result<StalenessScore> ScoreColumn(RefreshColumnId id) const;

  /// Rebuilds the worst-scoring rebuild-recommended columns (at most
  /// options.max_rebuilds_per_tick; never one that no delta or tuning pass
  /// changed since its last build) on the pool via BuildHistogramBatch,
  /// installs the results through HistogramMaintainer::Rebuilt, writes them
  /// back to the catalog, and republishes. Returns the number rebuilt.
  Result<size_t> RebuildIfStale();

  /// Unconditionally rebuilds \p ids (counted as RebuildReason::kForced).
  Status ForceRebuild(std::span<const RefreshColumnId> ids);

  /// One full maintenance cycle: ApplyPendingDeltas + RebuildIfStale under
  /// a single lock acquisition, publishing **at most one** snapshot — a
  /// busy tick coalesces the apply-path and rebuild-path write-backs into
  /// one RCU swap, and a no-op tick skips publication entirely
  /// (RefreshStats::ticks_skipped). The daemon's unit of work.
  Result<RefreshTickReport> Tick() override;

  /// RefreshSource: records enqueued but not yet drained.
  size_t pending_update_records() const override { return log_.depth(); }

  // ------------------------------------------------------------------ stats

  RefreshStats stats() const;

 private:
  struct ColumnState;

  // All Lock* helpers require mutex_ held.
  Status ApplyDeltaLocked(ColumnState& state, int64_t value, double weight);
  /// Applies \p records in order, counting and dropping unknown column ids;
  /// returns the number applied. Touches only the columns the records name
  /// (plus thread-safe counters), so a tick runs disjoint column buckets
  /// of it concurrently on the pool.
  Result<size_t> ApplyRecordsLocked(std::span<const UpdateRecord> records);
  /// shards > 1: buckets \p records by ShardOfColumn, keeping drain order,
  /// and runs ApplyRecordsLocked per bucket on the pool.
  Result<size_t> ApplyPartitionedLocked(std::span<const UpdateRecord> records);
  /// Writes every dirty column back to the catalog; sets \p *changed when
  /// any was written.
  Status WriteBackDirtyLocked(bool* changed);
  /// Drain + apply + catalog write-back; no publication. Sets \p *changed
  /// when any column's statistics were written back.
  Result<size_t> ApplyPendingDeltasLocked(bool* changed);
  /// Score + pick + rebuild; no publication. Sets \p *changed on install.
  Result<size_t> RebuildIfStaleLocked(bool* changed);
  /// Batched rebuild + write-back; no publication (callers coalesce the
  /// publish). Sets \p *installed when at least one column was rebuilt.
  Status RebuildColumnsLocked(
      std::vector<std::pair<RefreshColumnId, RebuildReason>> picks,
      bool* installed);
  Status WriteBackLocked(ColumnState& state);
  /// Drains buffered predicate outcomes into in-place histogram
  /// adjustments (refresh/self_tuner.h) and decays every column's tuning
  /// recency; no publication. Sets \p *changed when any column mutated.
  /// No-op with tuning disabled.
  Status TuneColumnsLocked(bool* changed);
  /// Folds one (estimated, actual) outcome into \p state's feedback EWMA
  /// (the relative error is clamped so one absurd report cannot saturate
  /// the signal forever).
  void FoldFeedbackLocked(ColumnState& state, double estimated, double actual);
  /// Publishes the catalog through the store.
  Status RepublishLocked();
  StalenessScore ScoreLocked(const ColumnState& state) const;
  void RecomputeMomentsLocked(ColumnState& state);

  Catalog* const catalog_;
  SnapshotStore* const store_;
  const RefreshOptions options_;
  const StalenessAdvisor advisor_;
  const SelfTuner tuner_;
  UpdateLog log_;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ColumnState>> columns_;
  // The name index has its own lock so Lookup never waits for a tick.
  // Writers hold mutex_ AND names_mutex_ (exclusive) while inserting;
  // readers hold either one (Lookup: names_mutex_ shared; the feedback
  // paths: mutex_).
  mutable std::shared_mutex names_mutex_;
  std::map<std::pair<std::string, std::string>, RefreshColumnId> by_name_;
  // Per-partition telemetry, one entry per shard when shards > 1 (empty at
  // shards = 1, where the apply runs inline with no extra spans).
  struct ApplyShard {
    telemetry::SpanSite* tick_site;  // Refresh.ShardTick{shard="<i>"}
    telemetry::Counter* deltas_total;  // hops_refresh_shard_deltas_total
  };
  std::vector<ApplyShard> shards_;
  // Counters come from the telemetry metrics core (DESIGN.md §9, one
  // counter implementation across the codebase). Per-manager instances so
  // stats() stays per-instance exact; incremented under mutex_ (they are
  // the subsystem's accounting and ignore the HOPS_TELEMETRY kill switch).
  telemetry::Counter deltas_applied_;
  telemetry::Counter unknown_column_records_;
  telemetry::Counter ticks_;
  telemetry::Counter ticks_skipped_;
  telemetry::Counter rebuilds_drift_;
  telemetry::Counter rebuilds_self_join_;
  telemetry::Counter rebuilds_feedback_;
  telemetry::Counter rebuilds_forced_;
  telemetry::Counter republish_count_;
  telemetry::Counter feedback_reports_;
  telemetry::Counter tuning_observations_;
  telemetry::Counter tuning_adjustments_;
  telemetry::Counter tuning_promotions_;
  double last_tick_seconds_ = 0;
  double last_refresh_seconds_ = 0;
  double last_tune_seconds_ = 0;
  DurabilityHook* durability_ = nullptr;  // guarded by mutex_
  uint64_t last_applied_lsn_ = 0;         // guarded by mutex_
};

}  // namespace hops
