// Write-ahead log for the refresh subsystem's update stream (DESIGN.md
// §13). Between snapshots, every accepted delta batch and column
// registration is appended here BEFORE the producer's call returns, so a
// crash after an acknowledgment loses nothing the caller was told succeeded.
//
// Segment file `wal-<first_lsn:016x>.wal`, all integers little-endian:
//
//   segment header (24 bytes)
//     u32 magic       "HWAL"
//     u32 version     1
//     u64 first_lsn   LSN of the first record this segment may hold
//     u32 header_crc  CRC32C of the 16 bytes above
//     u32 padding
//   frames, back to back until EOF:
//     u32 payload_len
//     u32 payload_crc  CRC32C of the payload bytes
//     payload
//
// Frame payloads (first field u32 `type`):
//   type 1 — delta batch: u32 type, u32 count, u64 first_lsn, then
//     count × (u32 column, i64 value, f64 weight); record i carries LSN
//     first_lsn + i.
//   type 2 — registration: u32 type, u32 column_id, u64 lsn,
//     u32 table_len, u32 column_len, u64 value_count, table bytes,
//     column bytes, value_count × i64 values, value_count × f64 freqs.
//
// LSNs are assigned by the writer's single atomic counter, so file order
// equals LSN order within and across frame types.
//
// Crash semantics: a frame is appended with one write(2) before the caller
// is acknowledged. A killed process (kill -9) therefore loses nothing —
// the page cache survives the process. The fsync knob only widens the
// guarantee to OS crashes / power loss: kEvery fsyncs per append, kBatch
// initiates asynchronous writeback once `batch_bytes` are unsynced
// (bounding the OS-crash dirty window without stalling the accept path),
// kNone leaves flushing to the OS. A torn final frame (crash mid-write or mid-page-loss) is
// detected by length/CRC on replay and truncated away; corruption anywhere
// except the tail of the LAST segment is an error, never a silent skip.
//
// Retirement: once a snapshot's high-water mark covers every record of a
// segment AND its successor segment exists (successor first_lsn <=
// high_water + 1 proves it), the segment is deleted. The recovery manager
// retires only through the OLDEST retained snapshot's mark, so falling
// back past a corrupt newest snapshot never needs retired records.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "refresh/update_log.h"
#include "util/status.h"

namespace hops::storage {

inline constexpr uint32_t kWalMagic = 0x4C415748u;  // file starts "HWAL"
inline constexpr uint32_t kWalVersion = 1;

/// \brief When appended frames reach the disk (see file comment — the
/// process-kill guarantee is identical across all three).
enum class WalFsync {
  kNone,   ///< never fsync; OS flushes at its leisure
  kBatch,  ///< kick async writeback once batch_bytes accumulate unsynced
  kEvery,  ///< fsync after every append
};

struct WalOptions {
  WalFsync fsync = WalFsync::kBatch;
  /// kBatch: fsync once this many unsynced bytes accumulate.
  size_t batch_bytes = 1 << 20;
  /// Start a new segment once the current one exceeds this size.
  size_t segment_bytes = 8 << 20;
};

struct WalWriterStats {
  uint64_t records_appended = 0;  ///< delta records + registrations
  uint64_t frames_appended = 0;
  uint64_t bytes_appended = 0;
  uint64_t fsyncs = 0;
  uint64_t writeback_kicks = 0;  ///< kBatch async flushes (sync_file_range)
  uint64_t segments_created = 0;
  uint64_t segments_retired = 0;
  uint64_t next_lsn = 0;
};

/// `wal-<first_lsn:016x>.wal`.
std::string WalSegmentFileName(uint64_t first_lsn);

/// Parses a WalSegmentFileName; false for anything else.
bool ParseWalSegmentFileName(std::string_view name, uint64_t* first_lsn);

/// \brief Appender. Thread-safe: the UpdateLog accept path (log mutex) and
/// RegisterColumn (manager mutex) call concurrently; one internal mutex
/// serializes them.
class WalWriter {
 public:
  /// Opens \p dir for appending; the next record gets \p next_lsn. Always
  /// starts a fresh segment — existing segments are replay-only, so a
  /// writer never appends into a file a previous recovery may truncate.
  static Result<std::unique_ptr<WalWriter>> Open(std::string dir,
                                                 uint64_t next_lsn,
                                                 WalOptions options = {});
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one delta-batch frame, stamping each record's `lsn`.
  Status AppendDeltas(std::span<UpdateRecord> records);

  /// Appends one registration frame; \p lsn_out receives its LSN.
  Status AppendRegistration(RefreshColumnId id, const std::string& table,
                            const std::string& column,
                            std::span<const int64_t> values,
                            std::span<const double> frequencies,
                            uint64_t* lsn_out);

  /// fsyncs the active segment now (regardless of mode).
  Status Sync();

  /// Cuts over to a new segment starting at the current next_lsn. Called
  /// by the recovery manager right after a snapshot, so the old segment
  /// becomes retirable once the snapshot chain covers it.
  Status Rotate();

  /// Deletes every non-active segment all of whose records are <= \p lsn
  /// (proved by its successor's first_lsn <= lsn + 1). Returns how many.
  Result<size_t> RetireThrough(uint64_t lsn);

  uint64_t next_lsn() const;
  WalWriterStats stats() const;

 private:
  WalWriter(std::string dir, uint64_t next_lsn, WalOptions options);

  Status OpenSegmentLocked();
  Status AppendFrameLocked(std::string_view payload, size_t records);
  Status CommitFrameLocked(size_t records);
  Status SyncLocked();
  Status KickWritebackLocked();

  const std::string dir_;
  const WalOptions options_;

  mutable std::mutex mutex_;
  int fd_ = -1;
  std::string segment_path_;  ///< the active segment, named in write errors
  uint64_t next_lsn_ = 1;
  uint64_t segment_first_lsn_ = 1;
  size_t segment_bytes_written_ = 0;
  size_t unsynced_bytes_ = 0;  ///< since the last real fsync
  size_t unkicked_bytes_ = 0;  ///< since the last fsync OR writeback kick
  std::string frame_scratch_;
  // Accounting mirrors UpdateLog: telemetry counters, exact under mutex_.
  telemetry::Counter records_appended_;
  telemetry::Counter frames_appended_;
  telemetry::Counter bytes_appended_;
  telemetry::Counter fsyncs_;
  telemetry::Counter writeback_kicks_;
  telemetry::Counter segments_created_;
  telemetry::Counter segments_retired_;
};

/// \brief One replayed delta batch; records carry their stamped LSNs.
struct WalDeltaBatch {
  uint64_t first_lsn = 0;
  std::vector<UpdateRecord> records;
};

/// \brief One replayed registration.
struct WalRegistration {
  uint64_t lsn = 0;
  RefreshColumnId id = 0;
  std::string table;
  std::string column;
  std::vector<int64_t> values;
  std::vector<double> frequencies;
};

struct WalReplayReport {
  size_t segments_scanned = 0;
  size_t segments_skipped = 0;  ///< entirely covered by min_lsn
  size_t frames = 0;
  size_t delta_records = 0;
  size_t registrations = 0;
  uint64_t max_lsn = 0;
  bool torn_tail_truncated = false;
  uint64_t torn_tail_bytes = 0;
};

using WalDeltaHandler = std::function<Status(const WalDeltaBatch&)>;
using WalRegistrationHandler = std::function<Status(const WalRegistration&)>;

/// \brief Replays every segment of \p dir in LSN order, invoking the
/// handlers in log order. Segments wholly covered by \p min_lsn (successor
/// first_lsn <= min_lsn + 1) are skipped without reading; finer filtering
/// is the caller's job (the refresh manager skips by record LSN). A torn
/// tail in the LAST segment is truncated from the file (so later replays
/// are clean); any other corruption is an Internal error.
Result<WalReplayReport> ReplayWalDir(const std::string& dir, uint64_t min_lsn,
                                     const WalDeltaHandler& on_deltas,
                                     const WalRegistrationHandler& on_registration);

}  // namespace hops::storage
