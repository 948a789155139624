#include "storage/recovery.h"

#include <algorithm>
#include <utility>

#include "storage/io.h"
#include "storage/snapshot_file.h"
#include "telemetry/log.h"
#include "telemetry/trace.h"
#include "util/stopwatch.h"

namespace hops::storage {

namespace {

telemetry::Counter* RecoveryRuns() {
  static telemetry::Counter* counter =
      telemetry::MetricRegistry::Global().GetCounter(
          "hops_recovery_runs_total", "Warm-restart recoveries performed");
  return counter;
}

telemetry::Counter* RecoveryReplayedRecords() {
  static telemetry::Counter* counter =
      telemetry::MetricRegistry::Global().GetCounter(
          "hops_recovery_wal_records_replayed_total",
          "WAL delta records replayed past the snapshot high-water mark");
  return counter;
}

telemetry::Gauge* RecoverySeconds() {
  static telemetry::Gauge* gauge =
      telemetry::MetricRegistry::Global().GetGauge(
          "hops_recovery_last_seconds", "Duration of the last recovery");
  return gauge;
}

telemetry::Counter* WalRecordsTotal() {
  static telemetry::Counter* counter =
      telemetry::MetricRegistry::Global().GetCounter(
          "hops_wal_records_total",
          "Records persisted to the WAL (deltas + registrations)");
  return counter;
}

telemetry::Counter* SnapshotWrites() {
  static telemetry::Counter* counter =
      telemetry::MetricRegistry::Global().GetCounter(
          "hops_storage_snapshot_writes_total", "Snapshot files written");
  return counter;
}

telemetry::Gauge* SnapshotLastBytes() {
  static telemetry::Gauge* gauge =
      telemetry::MetricRegistry::Global().GetGauge(
          "hops_storage_snapshot_last_bytes",
          "Size of the most recently written snapshot file");
  return gauge;
}

}  // namespace

RecoveryManager::RecoveryManager(StorageOptions options)
    : options_(std::move(options)) {}

Result<std::unique_ptr<RecoveryManager>> RecoveryManager::Open(
    StorageOptions options) {
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("storage data_dir must not be empty");
  }
  if (options.keep_snapshots == 0) options.keep_snapshots = 1;
  HOPS_RETURN_NOT_OK(EnsureDir(options.data_dir));
  return std::unique_ptr<RecoveryManager>(
      new RecoveryManager(std::move(options)));
}

RecoveryManager::~RecoveryManager() {
  if (manager_ != nullptr) manager_->AttachDurability(nullptr);
}

Status RecoveryManager::RecoverAndAttach(RefreshManager* manager) {
  if (manager == nullptr) {
    return Status::InvalidArgument("manager must not be null");
  }
  static telemetry::SpanSite& recover_site =
      telemetry::GetSpanSite("Storage.Recover");
  telemetry::TraceSpan span(recover_site);
  Stopwatch stopwatch;
  report_ = RecoveryReport{};

  // 1–2: newest snapshot that validates, restored into the manager.
  HOPS_ASSIGN_OR_RETURN(std::vector<SnapshotFileInfo> snapshots,
                        ListSnapshotFiles(options_.data_dir));
  RefreshDurableState state;
  for (auto it = snapshots.rbegin(); it != snapshots.rend(); ++it) {
    uint64_t seq = 0;
    Result<RefreshDurableState> loaded = ReadSnapshotFile(it->path, &seq);
    if (!loaded.ok()) {
      // Corrupt or torn snapshot: fall back to the previous one. Retention
      // keeps the WAL back through the oldest retained snapshot, so older
      // state plus replay still reaches the present.
      report_.snapshots_skipped += 1;
      continue;
    }
    state = std::move(*loaded);
    report_.snapshot_loaded = true;
    report_.snapshot_seq = seq;
    report_.snapshot_high_water = state.high_water_lsn;
    last_snapshot_seq_ = seq;
    break;
  }
  if (report_.snapshot_loaded) {
    HOPS_RETURN_NOT_OK(manager->RestoreDurableState(state));
  }

  // 3: replay the WAL past the snapshot's high-water mark. Handlers feed
  // the refresh manager directly; it skips records at or below its mark.
  const uint64_t min_lsn = state.high_water_lsn;
  HOPS_ASSIGN_OR_RETURN(
      WalReplayReport replay,
      ReplayWalDir(
          options_.data_dir, min_lsn,
          [manager](const WalDeltaBatch& batch) {
            return manager->ApplyRecoveredDeltas(batch.records).status();
          },
          [manager](const WalRegistration& reg) {
            return manager->ReplayRegistration(
                reg.lsn, reg.id, reg.table, reg.column, reg.values,
                reg.frequencies);
          }));
  report_.wal_segments_scanned = replay.segments_scanned;
  report_.wal_delta_records = replay.delta_records;
  report_.wal_registrations = replay.registrations;
  report_.wal_torn_tail_truncated = replay.torn_tail_truncated;

  // 4: open the writer past everything ever assigned, then attach.
  const uint64_t next_lsn = std::max(min_lsn, replay.max_lsn) + 1;
  HOPS_ASSIGN_OR_RETURN(
      wal_, WalWriter::Open(options_.data_dir, next_lsn,
                            WalOptions{.fsync = options_.durability}));
  manager_ = manager;
  manager_->AttachDurability(this);

  report_.seconds = stopwatch.ElapsedSeconds();
  RecoveryRuns()->Increment();
  RecoveryReplayedRecords()->Increment(replay.delta_records);
  RecoverySeconds()->Set(report_.seconds);
  HOPS_LOG(telemetry::LogLevel::kInfo, "storage", "recovery complete",
           {"warm_restart", report_.snapshot_loaded},
           {"snapshot_seq", report_.snapshot_seq},
           {"replayed_deltas", report_.wal_delta_records},
           {"replayed_registrations", report_.wal_registrations},
           {"seconds", report_.seconds});
  return Status::OK();
}

Status RecoveryManager::WriteSnapshot() {
  std::lock_guard<std::mutex> lock(checkpoint_mutex_);
  if (manager_ == nullptr || wal_ == nullptr) {
    return Status::InvalidArgument(
        "WriteSnapshot requires a recovered, attached manager");
  }
  // Checkpoints usually run from the maintenance daemon's timer thread,
  // outside any request — root a fresh (head-sampled) trace when no context
  // is installed so checkpoint latency shows up in /debug/tracez.
  telemetry::TraceContext write_context = telemetry::CurrentTraceContext();
  if (!write_context.valid() && telemetry::Enabled()) {
    if (telemetry::TraceRecorder* recorder =
            telemetry::TraceRecorder::Current()) {
      write_context = telemetry::MintTraceContext();
      write_context.sampled = recorder->ShouldSample(write_context.trace_hi,
                                                     write_context.trace_lo);
    }
  }
  telemetry::TraceContextScope write_scope(write_context);
  static telemetry::SpanSite& snapshot_site =
      telemetry::GetSpanSite("Storage.SnapshotWrite");
  telemetry::TraceSpan span(snapshot_site);

  // Export drains the update queue, so the image's high-water mark covers
  // every acknowledged record up to this instant; concurrent producers keep
  // appending past it into the (about to be rotated) WAL.
  HOPS_ASSIGN_OR_RETURN(const RefreshDurableState state,
                        manager_->ExportDurableState());
  const uint64_t seq = last_snapshot_seq_ + 1;
  const std::string bytes = EncodeSnapshot(seq, state);
  HOPS_RETURN_NOT_OK(WriteFileAtomic(options_.data_dir, SnapshotFileName(seq),
                                     bytes, true));
  last_snapshot_seq_ = seq;
  SnapshotWrites()->Increment();
  SnapshotLastBytes()->Set(static_cast<double>(bytes.size()));

  // Rotate so the pre-snapshot segment can retire once fully covered.
  HOPS_RETURN_NOT_OK(wal_->Rotate());

  // Retention: newest keep_snapshots stay; WAL retires only through the
  // OLDEST retained snapshot's mark, keeping the fallback chain sound.
  HOPS_ASSIGN_OR_RETURN(std::vector<SnapshotFileInfo> snapshots,
                        ListSnapshotFiles(options_.data_dir));
  while (snapshots.size() > options_.keep_snapshots) {
    const std::string name = SnapshotFileName(snapshots.front().seq);
    HOPS_RETURN_NOT_OK(RemoveFileDurable(options_.data_dir, name));
    snapshots.erase(snapshots.begin());
  }
  uint64_t retire_through = state.high_water_lsn;
  for (const SnapshotFileInfo& info : snapshots) {
    Result<SnapshotFileInfo> header = ReadSnapshotInfo(info.path);
    // An unreadable retained snapshot pins the whole WAL (conservative).
    retire_through =
        std::min(retire_through, header.ok() ? header->high_water_lsn : 0);
  }
  HOPS_RETURN_NOT_OK(wal_->RetireThrough(retire_through).status());
  HOPS_LOG(telemetry::LogLevel::kInfo, "storage", "snapshot written",
           {"seq", seq}, {"bytes", static_cast<uint64_t>(bytes.size())},
           {"retire_through_lsn", retire_through});
  return Status::OK();
}

Status RecoveryManager::CloseAndSnapshot() {
  {
    std::lock_guard<std::mutex> lock(checkpoint_mutex_);
    if (closed_) return Status::OK();
    closed_ = true;
  }
  Status snapshot_status = WriteSnapshot();
  if (wal_ != nullptr) {
    const Status sync_status = wal_->Sync();
    if (snapshot_status.ok()) snapshot_status = sync_status;
  }
  if (manager_ != nullptr) {
    manager_->AttachDurability(nullptr);
    manager_ = nullptr;
  }
  return snapshot_status;
}

Status RecoveryManager::PersistDeltas(std::span<UpdateRecord> records) {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("durability hook used before recovery");
  }
  HOPS_RETURN_NOT_OK(wal_->AppendDeltas(records));
  WalRecordsTotal()->Increment(records.size());
  return Status::OK();
}

Status RecoveryManager::PersistRegistration(
    RefreshColumnId id, const std::string& table, const std::string& column,
    std::span<const int64_t> value_ids, std::span<const double> frequencies,
    uint64_t* lsn_out) {
  if (wal_ == nullptr) {
    return Status::InvalidArgument("durability hook used before recovery");
  }
  HOPS_RETURN_NOT_OK(wal_->AppendRegistration(id, table, column, value_ids,
                                              frequencies, lsn_out));
  WalRecordsTotal()->Increment();
  return Status::OK();
}

WalWriterStats RecoveryManager::wal_stats() const {
  return wal_ != nullptr ? wal_->stats() : WalWriterStats{};
}

}  // namespace hops::storage
