// Background refresh driver (DESIGN.md §8 "Daemon lifecycle").
//
// The RefreshDaemon owns one background thread that periodically runs
// RefreshSource::Tick — drain the update log, apply deltas through the
// maintenance hooks, rebuild the stalest columns, republish one immutable
// snapshot. The source is a RefreshManager or a wrapper around one — the
// daemon is agnostic. Between ticks the thread sleeps on a condition
// variable, so RequestTick() (or shutdown) wakes it immediately.
//
// Lifecycle contract:
//   Start()        — spawns the thread; AlreadyExists if running.
//   RequestTick()  — nudges an immediate tick (e.g. after a bulk load).
//   Stop()         — finishes the in-flight tick, then joins. Queued
//                    deltas stay in the log for a later consumer.
//   DrainAndStop() — keeps ticking until the update log is empty, runs one
//                    final tick, then joins: nothing enqueued before the
//                    call is lost.
//   ~RefreshDaemon — Stop().
//
// A failed tick never kills the thread: the error is retained
// (last_tick_status) and the daemon keeps going — statistics refresh must
// degrade, not crash, under transient failures.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "refresh/refresh_source.h"
#include "util/status.h"

namespace hops {

/// \brief Daemon knobs.
struct RefreshDaemonOptions {
  /// Sleep between periodic ticks.
  int64_t tick_interval_micros = 100'000;
};

/// \brief Periodic background driver of a RefreshSource (a RefreshManager
/// or a wrapper around one). All public methods are thread-safe.
class RefreshDaemon {
 public:
  /// \p source must outlive the daemon. The daemon is the source's single
  /// maintenance consumer: do not call Tick/ApplyPendingDeltas from other
  /// threads while it runs.
  explicit RefreshDaemon(RefreshSource* source,
                         RefreshDaemonOptions options = {});

  ~RefreshDaemon();

  RefreshDaemon(const RefreshDaemon&) = delete;
  RefreshDaemon& operator=(const RefreshDaemon&) = delete;

  /// Spawns the background thread. AlreadyExists when already running.
  Status Start();

  /// Wakes the thread for an immediate tick. No-op when not running.
  void RequestTick();

  /// Joins after the in-flight tick. OK when already stopped.
  Status Stop();

  /// Ticks until the update log is drained, then joins. OK when already
  /// stopped (after draining synchronously via the manager is the caller's
  /// choice). FailedPrecondition-free: returns the last tick error, if any.
  Status DrainAndStop();

  bool running() const;

  /// Completed ticks (successful or failed) since construction.
  uint64_t ticks() const;

  /// Status of the most recent tick (OK before the first tick).
  Status last_tick_status() const;

 private:
  void Loop();

  RefreshSource* const source_;
  const RefreshDaemonOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::thread thread_;
  bool running_ = false;
  bool stop_requested_ = false;
  bool drain_requested_ = false;
  bool tick_requested_ = false;
  uint64_t ticks_ = 0;
  Status last_tick_status_;
};

}  // namespace hops
