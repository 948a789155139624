// The benchmark's spans: thin wrappers around the public seams the serving
// stack is assembled from. Each wrapper forwards to the real component and,
// while `Probes::tracing` is on, records how long the call took. End-to-end
// runs keep tracing off; the traced run turns it on.
//
// Two records stay on in every run because end-to-end metrics need them:
// the tick log (when each refresh tick ended and how many update records had
// been drained by then) and the admitted-record sequence that /update
// replies carry in x-bench-seq. Together they give the freshness lag.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/catalog_snapshot.h"
#include "net/server.h"
#include "refresh/durability.h"
#include "refresh/refresh_manager.h"
#include "refresh/refresh_source.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Thread-safe append-only list of samples.
class SampleSink {
 public:
  void Add(double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.push_back(value);
  }
  std::vector<double> Snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<double> samples_;
};

/// One refresh tick as the daemon saw it.
struct TickRecord {
  int64_t end_ns = 0;
  uint64_t drained_total = 0;  ///< update records drained by the tick's end
};

/// The snapshots the daemon's most recent ticks published, so a reply can
/// be checked against the snapshot that served it even after the daemon
/// has moved on.
class SnapshotRing {
 public:
  void Remember(std::shared_ptr<const hops::CatalogSnapshot> snapshot);
  /// Drops the held snapshots and remembers no more (once no reply needs
  /// checking, holding them would only keep retired snapshots alive).
  void Close();
  /// The snapshot with \p version, falling back to \p store's current one;
  /// nullptr when neither matches.
  std::shared_ptr<const hops::CatalogSnapshot> Find(
      uint64_t version, const hops::SnapshotStore& store) const;

 private:
  static constexpr size_t kCapacity = 16;
  mutable std::mutex mutex_;
  std::deque<std::shared_ptr<const hops::CatalogSnapshot>> ring_;  // guarded
  bool closed_ = false;                                            // guarded
};

/// What the wrappers record.
struct Probes {
  std::atomic<bool> tracing{false};
  SampleSink estimate_handle_us;
  SampleSink update_handle_us;
  SampleSink wal_append_us;
  SampleSink tick_ms;
  std::atomic<uint64_t> queue_depth_max{0};
  SnapshotRing published;

  std::vector<TickRecord> TickLog() const {
    std::lock_guard<std::mutex> lock(tick_mutex);
    return tick_log;
  }

  mutable std::mutex tick_mutex;
  std::vector<TickRecord> tick_log;  // guarded by tick_mutex
};

/// Wraps the EstimateService handler: times /estimate and /update while
/// tracing (echoing the time in x-bench-handle-ns), stamps /update replies
/// with x-bench-seq, and /healthz replies with x-bench-worker (the serving
/// worker thread, so the generator can spread its connections evenly).
hops::net::HttpHandler WrapHandler(hops::net::HttpHandler inner,
                                   Probes* probes);

/// DurabilityHook that numbers admitted update records and forwards to
/// \p next (nullptr: nothing is persisted, as in a stack without storage).
/// While tracing it times the forwarded WAL append.
class SequencedHook final : public hops::DurabilityHook {
 public:
  SequencedHook(hops::DurabilityHook* next, Probes* probes)
      : next_(next), probes_(probes) {}

  hops::Status PersistDeltas(std::span<hops::UpdateRecord> records) override;
  hops::Status PersistRegistration(hops::RefreshColumnId id,
                                   const std::string& table,
                                   const std::string& column,
                                   std::span<const int64_t> value_ids,
                                   std::span<const double> frequencies,
                                   uint64_t* lsn_out) override;

 private:
  hops::DurabilityHook* const next_;
  Probes* const probes_;
  uint64_t admitted_ = 0;  // called under the UpdateLog mutex
};

/// RefreshSource the daemon ticks: forwards to RefreshManager::Tick, logs
/// each tick's end and the snapshot it published, and while tracing times
/// it and samples queue depth.
class TickProbe final : public hops::RefreshSource {
 public:
  TickProbe(hops::RefreshManager* manager, const hops::SnapshotStore* store,
            Probes* probes)
      : manager_(manager), store_(store), probes_(probes) {}

  hops::Result<hops::RefreshTickReport> Tick() override;
  size_t pending_update_records() const override {
    return manager_->pending_update_records();
  }

 private:
  hops::RefreshManager* const manager_;
  const hops::SnapshotStore* const store_;
  Probes* const probes_;
};

}  // namespace perfbench
