// Crash-safe warm restarts (DESIGN.md §13): the RecoveryManager stitches
// the snapshot files (storage/snapshot_file.h) and the WAL (storage/wal.h)
// into one durable catalog store and implements the refresh layer's
// DurabilityHook (refresh/durability.h).
//
// Startup (RecoverAndAttach):
//   1. load the newest snapshot that validates, falling back across
//      corrupt/truncated ones (retention keeps enough WAL for that);
//   2. RestoreDurableState into the RefreshManager — catalog statistics
//      come back bit-identical, so warm /estimate answers match pre-crash;
//   3. replay WAL records past the snapshot's high-water mark (torn tails
//      are truncated; registrations re-register, deltas re-apply);
//   4. open the WAL writer at max(high_water, replayed LSNs) + 1 and
//      attach as the durability hook — only now do new writes persist, so
//      replay never re-appends what the WAL already holds.
//
// Checkpoint (WriteSnapshot): export the manager (which drains the queue,
// making the high-water mark contiguous), write snapshot seq+1 atomically,
// rotate the WAL, drop snapshots beyond keep_snapshots, and retire WAL
// segments covered by the OLDEST retained snapshot — falling back past a
// corrupt newest snapshot therefore never needs retired records.
//
// Every RefreshOptions::shards value is covered: shards only partition the
// apply step, so there is one UpdateLog, one LSN order and one high-water
// mark, and an image written at one shard count recovers at any other.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "refresh/durability.h"
#include "refresh/refresh_manager.h"
#include "storage/wal.h"
#include "util/status.h"

namespace hops::storage {

struct StorageOptions {
  std::string data_dir;
  /// WAL flush policy. Process-kill durability is identical for all modes
  /// (frames are written before the ack); this knob is about OS crashes.
  WalFsync durability = WalFsync::kBatch;
  /// Snapshots retained after a checkpoint (>= 1). Two means one corrupt
  /// newest snapshot still leaves a recoverable older one with its WAL.
  size_t keep_snapshots = 2;
  WalOptions wal;
};

/// \brief What recovery found, for logs/metrics.
struct RecoveryReport {
  bool snapshot_loaded = false;
  uint64_t snapshot_seq = 0;
  uint64_t snapshot_high_water = 0;
  size_t snapshots_skipped = 0;  ///< newer snapshots that failed validation
  size_t wal_segments_scanned = 0;
  size_t wal_delta_records = 0;    ///< delta records seen past the snapshot
  size_t wal_registrations = 0;    ///< registrations seen past the snapshot
  bool wal_torn_tail_truncated = false;
  double seconds = 0;
};

/// \brief Durable store + recovery driver. Thread-safe where it must be:
/// the DurabilityHook methods race with each other and with WriteSnapshot
/// (the WalWriter serializes appends; checkpointing takes its own mutex).
class RecoveryManager final : public DurabilityHook {
 public:
  /// Creates the data dir if needed. No I/O beyond that until
  /// RecoverAndAttach.
  static Result<std::unique_ptr<RecoveryManager>> Open(StorageOptions options);

  ~RecoveryManager() override;

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  /// Runs the startup sequence above against \p manager (which must be
  /// empty) and attaches this store as its durability hook. \p manager
  /// must outlive this object or Detach() first.
  Status RecoverAndAttach(RefreshManager* manager);

  /// Checkpoint: snapshot + rotate + retire (see file comment). Callable
  /// any time after RecoverAndAttach, including concurrently with writes.
  Status WriteSnapshot();

  /// Final checkpoint + WAL sync, then detaches the hook. Idempotent; used
  /// by the serving stack's post-drain shutdown stage.
  Status CloseAndSnapshot();

  // DurabilityHook — called by UpdateLog / RefreshManager write paths.
  Status PersistDeltas(std::span<UpdateRecord> records) override;
  Status PersistRegistration(RefreshColumnId id, const std::string& table,
                             const std::string& column,
                             std::span<const int64_t> value_ids,
                             std::span<const double> frequencies,
                             uint64_t* lsn_out) override;

  const RecoveryReport& report() const { return report_; }
  const StorageOptions& options() const { return options_; }
  /// Live WAL statistics (zeroed before RecoverAndAttach).
  WalWriterStats wal_stats() const;

 private:
  explicit RecoveryManager(StorageOptions options);

  const StorageOptions options_;
  RefreshManager* manager_ = nullptr;
  std::unique_ptr<WalWriter> wal_;
  RecoveryReport report_;
  uint64_t last_snapshot_seq_ = 0;
  std::mutex checkpoint_mutex_;  // serializes WriteSnapshot/CloseAndSnapshot
  bool closed_ = false;          // guarded by checkpoint_mutex_
};

}  // namespace hops::storage
