// The estimation serving layer's read side (DESIGN.md §7 "Serving path").
//
// The Catalog is the system of record: encoded histograms, string-pair keys,
// thread-compatible, mutated by ANALYZE and maintenance. An optimizer costing
// thousands of plans per second wants none of that on its hot path — it
// wants (1) statistics decoded and compiled *once*, (2) (table, column)
// names resolved to dense integer ids *once per plan*, and (3) reads that
// never block behind a writer.
//
// CatalogSnapshot delivers (1) and (2): an immutable, compiled copy of the
// whole catalog — every histogram in its CompiledHistogram form
// (struct-of-arrays, prefix sums), every column addressable by a dense
// ColumnId. SnapshotStore delivers (3): writers compile a fresh snapshot
// off to the side and publish it with one pointer swap; readers copy the
// current shared_ptr and keep using it for as long as they like (RCU — the
// old snapshot stays alive until its last reader drops it). Readers never
// take the catalog's locks or wait for compilation; publication is
// verified race-free under -DHOPS_SANITIZE=thread
// (tests/engine/snapshot_concurrency_test.cc).

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/catalog.h"
#include "engine/estimate_cache.h"
#include "histogram/compiled.h"
#include "util/status.h"

namespace hops {

/// \brief Dense snapshot-local id of a (table, column) pair. Valid only
/// against the snapshot that resolved it.
using ColumnId = uint32_t;

/// \brief Read-optimized statistics for one column: the ColumnStatistics
/// scalars plus the histogram CatalogSnapshot::Compile compiled for it.
struct CompiledColumnStats {
  std::string table;
  std::string column;
  double num_tuples = 0.0;
  uint64_t num_distinct = 0;
  int64_t min_value = 0;
  int64_t max_value = 0;
  std::shared_ptr<const CompiledHistogram> histogram;
};

/// \brief Immutable compiled copy of a Catalog. Safe for any number of
/// concurrent readers; never mutated after Compile.
class CatalogSnapshot {
 public:
  CatalogSnapshot() = default;

  /// Decodes and compiles every catalog entry. O(total entries) — the
  /// serving layer pays this once per ANALYZE, not once per estimate.
  static Result<std::shared_ptr<const CatalogSnapshot>> Compile(
      const Catalog& catalog);

  /// Interns (table, column) to a dense id; NotFound when absent. Resolve
  /// once per plan, then estimate by id.
  Result<ColumnId> Resolve(std::string_view table,
                           std::string_view column) const;

  bool Contains(std::string_view table, std::string_view column) const {
    return Resolve(table, column).ok();
  }

  /// Statistics for a resolved id. Precondition: id < num_columns().
  const CompiledColumnStats& stats(ColumnId id) const { return columns_[id]; }

  size_t num_columns() const { return columns_.size(); }

  /// Catalog::version() at compile time — compare against the live
  /// catalog's version to detect staleness.
  uint64_t source_version() const { return source_version_; }

  /// The snapshot's memoized-estimate table (DESIGN.md §12). Estimates are
  /// pure functions of this immutable snapshot, so cached values can never
  /// go stale: RCU retirement of the snapshot IS the invalidation. Empty
  /// snapshots carry a zero-capacity cache (lookups miss, inserts no-op).
  const EstimateCache& estimate_cache() const { return estimate_cache_; }

 private:
  std::vector<CompiledColumnStats> columns_;  // sorted by (table, column)
  EstimateCache estimate_cache_;
  uint64_t source_version_ = 0;
};

/// \brief RCU-style publication point for snapshots: one pointer swap per
/// publish, one shared_ptr copy per read. Writers (ANALYZE, maintenance)
/// never block readers behind compilation or catalog locks; a reader's
/// critical section is a single refcount increment.
///
/// Implementation note: this deliberately does NOT use
/// std::atomic<std::shared_ptr<T>>. libstdc++'s _Sp_atomic (GCC 12)
/// releases the reader-side lock with a relaxed fetch_sub, so a completed
/// load() has no release edge back to the next store()'s swap of the raw
/// pointer — formally a data race under the memory model, and
/// ThreadSanitizer reports it. A four-line spin lock with correct
/// acquire/release pairing is TSan-clean and just as fast for this
/// read-mostly, swap-rarely pattern.
class SnapshotStore {
 public:
  /// Starts with an empty (zero-column) snapshot so Current() is never null.
  SnapshotStore();

  /// The latest published snapshot. Hold the returned shared_ptr for the
  /// duration of a plan so every estimate in the plan sees one consistent
  /// statistics version.
  std::shared_ptr<const CatalogSnapshot> Current() const;

  /// Atomically replaces the current snapshot. A null \p snapshot is
  /// replaced by an empty one. Readers holding the old snapshot keep it
  /// alive until they drop it (RCU).
  void Publish(std::shared_ptr<const CatalogSnapshot> snapshot);

  /// Compile(catalog) + Publish; returns the published snapshot.
  Result<std::shared_ptr<const CatalogSnapshot>> RepublishFrom(
      const Catalog& catalog);

  /// Publications through this store (0 = still the constructor's empty
  /// snapshot — /healthz readiness gates on this).
  uint64_t publish_count() const {
    return publish_count_.load(std::memory_order_relaxed);
  }

  /// Seconds since the last Publish (steady clock); negative when nothing
  /// has been published yet. Feeds /healthz and /debug/snapshots age.
  double seconds_since_publish() const;

 private:
  void Lock() const;
  void Unlock() const;

  mutable std::atomic<bool> locked_{false};
  std::shared_ptr<const CatalogSnapshot> current_;  // guarded by locked_
  std::atomic<uint64_t> publish_count_{0};
  std::atomic<int64_t> last_publish_nanos_{0};  // steady; 0 = never
};

}  // namespace hops
