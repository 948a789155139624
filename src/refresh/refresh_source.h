// The daemon-facing side of a refresh consumer (DESIGN.md §8).
//
// The RefreshDaemon needs two things from whatever it ticks: "run one
// maintenance cycle" and "how much ingest is still queued" (the daemon's
// DrainAndStop exit condition). RefreshSource is that contract.
// RefreshManager implements it; a wrapper can interpose on it (e.g. to time
// or log every tick) without the daemon knowing.

#pragma once

#include <cstddef>

#include "util/status.h"

namespace hops {

/// \brief What one maintenance cycle did.
struct RefreshTickReport {
  size_t deltas_applied = 0;
  size_t columns_touched = 0;  ///< columns whose counts changed
  size_t columns_rebuilt = 0;
  /// Whether the tick mutated the catalog (applied deltas or rebuilt).
  /// A no-op tick (changed == false) skips snapshot publication entirely —
  /// churning the SnapshotStore RCU epoch would invalidate reader-side
  /// caches for nothing (counted in RefreshStats::ticks_skipped).
  bool changed = false;
  /// Whether a snapshot was published (equals changed: every
  /// RefreshManager publishes through its store).
  bool republished = false;
  double seconds = 0;
};

/// \brief A tickable refresh consumer (RefreshManager, or a wrapper around
/// one). Single-consumer: call Tick from one thread at a time;
/// pending_update_records is thread-safe.
class RefreshSource {
 public:
  virtual ~RefreshSource() = default;

  /// One full maintenance cycle (drain → apply → rebuild → publish at most
  /// once). The daemon's unit of work.
  virtual Result<RefreshTickReport> Tick() = 0;

  /// Update records enqueued but not yet drained (0 means a DrainAndStop
  /// may exit after its final tick).
  virtual size_t pending_update_records() const = 0;
};

}  // namespace hops
