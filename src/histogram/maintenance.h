// Incremental histogram maintenance under database updates.
//
// Section 2.3 notes that "after any update to a relation, the corresponding
// histogram matrix may need to be updated as well. Otherwise, delaying the
// propagation of database updates to the histogram may introduce additional
// errors" — and leaves the propagation schedule as future work. This module
// supplies that machinery for the compact catalog form:
//
//  * inserts/deletes of explicitly stored values adjust their exact counts;
//  * updates hitting the implicit default bucket adjust its average mass;
//  * a drift policy tracks how far the maintained histogram has wandered
//    from the last full construction and flags when ANALYZE should re-run
//    (because incremental updates preserve *counts* but cannot re-optimize
//    *bucket boundaries* — a value drifting from the default bucket into
//    top-k territory needs a rebuild to become explicit).
//
// Serving coherence: every mutation goes through
// CatalogHistogram::AdjustExplicitFrequency / SetDefaultFrequency, and
// serving compiles the maintained histogram afresh on every publish
// (CatalogSnapshot::Compile), so an applied update is visible to the next
// snapshot — the maintenance-coherence tests in
// tests/histogram/compiled_test.cc prove it.

#pragma once

#include <cstdint>

#include "histogram/serialization.h"
#include "util/status.h"

namespace hops {

/// \brief Rebuild policy knobs.
struct MaintenanceOptions {
  /// Flag a rebuild once |inserted - deleted| + churn exceeds this fraction
  /// of the tuple count at last build.
  double rebuild_drift_fraction = 0.10;
  /// Flag a rebuild when a default-bucket value's observed updates imply a
  /// frequency this many times the default average (it likely belongs in a
  /// univalued bucket now). Tracked approximately via the hottest inserted
  /// default value.
  double promotion_ratio = 4.0;
};

/// \brief Every maintainer counter that must survive a restart (DESIGN.md
/// §13). The maintained histogram itself is persisted separately; restoring
/// these alongside it reproduces the exact drift/rebuild-pressure state, so
/// a warm restart neither forgets accumulated drift nor re-arms from zero.
struct MaintainerDurableState {
  double num_tuples = 0;
  double tuples_at_build = 0;
  uint64_t updates_applied = 0;
  double drift = 0;
  int64_t hot_value = 0;
  double hot_count = 0;
  bool hot_valid = false;
};

/// \brief Wraps a CatalogHistogram and keeps it consistent under updates.
class HistogramMaintainer {
 public:
  HistogramMaintainer() = default;

  /// \p histogram is the freshly built compact histogram; \p num_tuples the
  /// relation size at build time.
  HistogramMaintainer(CatalogHistogram histogram, double num_tuples,
                      MaintenanceOptions options = {});

  /// Applies one inserted tuple with the given attribute value.
  Status ApplyInsert(int64_t value);

  /// Applies one deleted tuple. Deleting below zero is clamped and counted
  /// as drift (it means the histogram was already stale).
  Status ApplyDelete(int64_t value);

  /// The maintained histogram (counts up to date; boundaries as of the last
  /// build).
  const CatalogHistogram& current() const { return histogram_; }

  /// Mutable access for the self-tuning layer (refresh/self_tuner.h): the
  /// tuner applies its in-place deltas through CatalogHistogram's validated
  /// mutators, like the maintainer's own ApplyInsert/ApplyDelete paths.
  /// Tuning redistributes mass, so the drift counters tracked here stay
  /// meaningful.
  CatalogHistogram* mutable_current() { return &histogram_; }

  /// Estimated relation size after the applied updates.
  double num_tuples() const { return num_tuples_; }

  /// Updates applied since the last build.
  uint64_t updates_applied() const { return updates_applied_; }

  /// True once the drift policy says ANALYZE should re-run.
  bool NeedsRebuild() const;

  /// Installs a freshly rebuilt histogram and resets drift tracking.
  void Rebuilt(CatalogHistogram histogram, double num_tuples);

  /// Snapshot of every counter for durable storage (§13).
  MaintainerDurableState ExportDurableState() const {
    MaintainerDurableState s;
    s.num_tuples = num_tuples_;
    s.tuples_at_build = tuples_at_build_;
    s.updates_applied = updates_applied_;
    s.drift = drift_;
    s.hot_value = hot_value_;
    s.hot_count = hot_count_;
    s.hot_valid = hot_valid_;
    return s;
  }

  /// Restores the counters exported by ExportDurableState; the histogram
  /// must already have been installed via the constructor or Rebuilt.
  void RestoreDurableState(const MaintainerDurableState& s) {
    num_tuples_ = s.num_tuples;
    tuples_at_build_ = s.tuples_at_build;
    updates_applied_ = s.updates_applied;
    drift_ = s.drift;
    hot_value_ = s.hot_value;
    hot_count_ = s.hot_count;
    hot_valid_ = s.hot_valid;
  }

 private:
  CatalogHistogram histogram_;
  MaintenanceOptions options_;
  double num_tuples_ = 0;
  double tuples_at_build_ = 0;
  uint64_t updates_applied_ = 0;
  double drift_ = 0;  // absolute tuple-count churn since build
  // Hottest default-bucket value seen in inserts since the build: a cheap
  // single-cell sketch that catches a new heavy hitter emerging.
  int64_t hot_value_ = 0;
  double hot_count_ = 0;
  bool hot_valid_ = false;
};

}  // namespace hops
