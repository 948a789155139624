// Delta ingestion for the adaptive statistics refresh subsystem
// (DESIGN.md §8 "Refresh subsystem").
//
// Section 2.3 of the paper observes that "delaying the propagation of
// database updates to the histogram may introduce additional errors" and
// leaves the propagation schedule as future work. The UpdateLog is the
// front half of that schedule: a bounded multi-producer/single-consumer
// queue of per-(column, value) insert/delete deltas. Any number of writer
// threads (transaction commit paths, bulk loaders) call RecordInsert /
// RecordDelete / RecordBatch; one consumer — the RefreshManager, usually
// driven by the RefreshDaemon — drains the log and applies the deltas to
// the maintained histograms.
//
// Backpressure, not loss: when the log is full, producers block until the
// consumer drains (statistics deltas must not be silently dropped, or the
// maintained counts drift from the data). TryRecord* variants return false
// instead of blocking for callers that prefer to shed work. Close() wakes
// all blocked producers and makes further records fail, so shutdown cannot
// deadlock.
//
// Batch atomicity: RecordBatch admits records in all-or-nothing chunks
// under a single lock acquisition (reserve space, then commit). A batch no
// larger than the capacity is fully atomic: either every record is
// enqueued or none is — a Close() racing the batch can never leave a
// silent prefix behind. Batches larger than the capacity commit in
// capacity-sized atomic chunks (they must interleave with drains to fit);
// a failure Status reports exactly how many records were applied.
//
// Backpressure accounting: producer_waits and the
// UpdateLog.BackpressureWait trace span count *actual blocked intervals*
// — a Record/RecordBatch call that finds space free under the lock never
// bumps either, and one blocked interval that spans several consumer
// drains (e.g. a chunk waiting for more room than one drain freed) counts
// once, not once per wake-up or once per record.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <vector>

#include "telemetry/metrics.h"
#include "util/status.h"

namespace hops {

class DurabilityHook;

/// \brief Dense id of a column registered with the RefreshManager. Valid
/// only against the manager that issued it.
using RefreshColumnId = uint32_t;

/// \brief One tuple-level statistics delta: \p weight is +1 for an insert,
/// -1 for a delete (batched writers may fold runs into larger magnitudes,
/// up to kMaxDeltaWeight).
struct UpdateRecord {
  RefreshColumnId column = 0;
  int64_t value = 0;
  double weight = +1.0;
  /// Log sequence number, stamped by the DurabilityHook (DESIGN.md §13)
  /// when one is installed; 0 means "not persisted". Recovery compares it
  /// against a snapshot's high-water mark to skip already-applied deltas.
  uint64_t lsn = 0;
};

/// \brief Largest |weight| one record may carry. Applying a record costs
/// one maintenance step per unit of weight under the refresh mutex, so
/// every accept path refuses a larger or non-finite weight before the
/// durability hook sees it; a writer splits a larger run into records.
inline constexpr double kMaxDeltaWeight = 1024;

/// \brief OK when \p weight is finite and |weight| <= kMaxDeltaWeight;
/// InvalidArgument naming the weight otherwise.
Status CheckDeltaWeight(double weight);

/// \brief Point-in-time counters of one UpdateLog.
struct UpdateLogStats {
  uint64_t enqueued = 0;        ///< records accepted (Record* + RecordBatch)
  uint64_t drained = 0;         ///< records handed to the consumer
  uint64_t rejected = 0;        ///< TryRecord* calls refused
  /// Blocked intervals: times a producer *actually* waited on a full log.
  /// A Record/RecordBatch that finds space under the lock never counts, and
  /// one wait spanning several drains counts once (see file comment).
  uint64_t producer_waits = 0;
  size_t depth = 0;             ///< records currently queued
  size_t high_water = 0;        ///< maximum depth ever observed
  size_t capacity = 0;
  bool closed = false;
};

/// \brief Bounded MPSC delta queue. All methods are thread-safe.
class UpdateLog {
 public:
  /// \p capacity is clamped to at least 1.
  explicit UpdateLog(size_t capacity = 1 << 16);

  UpdateLog(const UpdateLog&) = delete;
  UpdateLog& operator=(const UpdateLog&) = delete;

  /// Enqueues one record, blocking while the log is full (backpressure).
  /// Fails with FailedPrecondition-style ResourceExhausted once closed, and
  /// with InvalidArgument (never blocking) when CheckDeltaWeight refuses
  /// the weight.
  Status Record(const UpdateRecord& record);

  /// Convenience wrappers for the two common deltas.
  Status RecordInsert(RefreshColumnId column, int64_t value) {
    return Record(UpdateRecord{column, value, +1.0});
  }
  Status RecordDelete(RefreshColumnId column, int64_t value) {
    return Record(UpdateRecord{column, value, -1.0});
  }

  /// Enqueues every record of \p records, blocking as needed. Admission is
  /// all-or-nothing per capacity-sized chunk under one lock acquisition
  /// (reserve space, then commit): a batch no larger than the capacity is
  /// fully atomic, and a larger batch commits in atomic chunks interleaved
  /// with drains. On failure (log closed) the Status message reports
  /// exactly how many records were applied — always 0 or a whole number of
  /// chunks, never a silent prefix. A weight CheckDeltaWeight refuses fails
  /// the whole batch before anything is admitted, with InvalidArgument
  /// "update <index>: ...".
  Status RecordBatch(std::span<const UpdateRecord> records);

  /// Non-blocking variant: false when the log is full or closed, or the
  /// weight is refused.
  bool TryRecord(const UpdateRecord& record);

  /// Moves up to \p max_records (0 = all) into \p out (appended), waking
  /// blocked producers. Returns the number drained. Never blocks.
  size_t Drain(std::vector<UpdateRecord>* out, size_t max_records = 0);

  /// Marks the log closed: blocked producers wake and fail, future records
  /// fail, queued records remain drainable.
  void Close();

  /// Installs (or clears, with nullptr) the write-ahead durability hook.
  /// From then on every accept path — Record, RecordBatch, TryRecord —
  /// calls hook->PersistDeltas under the log mutex *before* admission: the
  /// hook stamps each record's lsn and the stamped copies are what the
  /// queue stores, so an acknowledged record is always persisted. A hook
  /// failure refuses the records (the producer sees the error / false).
  /// \p hook must outlive the log or be cleared first.
  void SetDurabilityHook(DurabilityHook* hook);

  size_t depth() const;
  bool closed() const;
  UpdateLogStats stats() const;

 private:
  /// Blocks until at least \p needed slots are free or the log is closed.
  /// \p needed must be <= capacity_. Bumps producer_waits_ and opens the
  /// UpdateLog.BackpressureWait span only when the caller actually blocks
  /// (predicate false on entry), and at most once per call regardless of
  /// how many consumer drains the wait spans. Returns ResourceExhausted
  /// once closed.
  Status WaitForSpaceLocked(std::unique_lock<std::mutex>& lock, size_t needed);

  /// Appends \p records under mutex_ (space must already be reserved).
  void CommitLocked(std::span<const UpdateRecord> records);

  /// Persists \p records through durability_ (stamping LSNs into scratch_
  /// copies) then commits the stamped copies; commits \p records directly
  /// when no hook is installed. Space must already be reserved.
  Status AdmitLocked(std::span<const UpdateRecord> records);

  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::deque<UpdateRecord> records_;
  bool closed_ = false;
  // Counters come from the telemetry metrics core (DESIGN.md §9) — one
  // counter implementation across UpdateLog, RefreshManager, and the
  // instrumentation layer. These instances are per-log (stats() must stay
  // per-instance exact), always live regardless of the HOPS_TELEMETRY kill
  // switch (they are the subsystem's accounting, not optional
  // instrumentation), and incremented under mutex_ anyway, so stats()
  // reads are exact.
  telemetry::Counter enqueued_;
  telemetry::Counter drained_;
  telemetry::Counter rejected_;
  telemetry::Counter producer_waits_;
  size_t high_water_ = 0;  // max-fold; maintained under mutex_
  DurabilityHook* durability_ = nullptr;  // guarded by mutex_
  std::vector<UpdateRecord> scratch_;     // LSN-stamped copies, under mutex_
};

}  // namespace hops
