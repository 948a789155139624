#include "engine/catalog_snapshot.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace hops {

Result<std::shared_ptr<const CatalogSnapshot>> CatalogSnapshot::Compile(
    const Catalog& catalog) {
  auto snapshot = std::make_shared<CatalogSnapshot>();
  snapshot->source_version_ = catalog.version();
  // ListEntries is sorted by (table, column), which Resolve relies on.
  const std::vector<std::pair<std::string, std::string>> entries =
      catalog.ListEntries();
  snapshot->columns_.reserve(entries.size());
  for (const auto& [table, column] : entries) {
    HOPS_ASSIGN_OR_RETURN(ColumnStatistics stats,
                          catalog.GetColumnStatistics(table, column));
    CompiledColumnStats compiled;
    compiled.table = table;
    compiled.column = column;
    compiled.num_tuples = stats.num_tuples;
    compiled.num_distinct = stats.num_distinct;
    compiled.min_value = stats.min_value;
    compiled.max_value = stats.max_value;
    compiled.histogram = stats.histogram.compiled_shared();
    snapshot->columns_.push_back(std::move(compiled));
  }
  if (!snapshot->columns_.empty()) {
    // Size the memo table for a serving tier's repeated-predicate working
    // set: admission stops at 50% load, so slots/2 distinct predicates can
    // be memoized per snapshot lifetime. The ceiling (65536 slots * 40-byte
    // slots = 2.5 MiB) bounds what a high-churn refresh tick pays per
    // publish; the table is lossy anyway, a dropped insert only costs a
    // recomputation.
    const size_t slots =
        std::clamp<size_t>(4096 * snapshot->columns_.size(), 8192, 65536);
    snapshot->estimate_cache_ = EstimateCache(slots);
  }
  return std::shared_ptr<const CatalogSnapshot>(std::move(snapshot));
}

Result<ColumnId> CatalogSnapshot::Resolve(std::string_view table,
                                          std::string_view column) const {
  const auto probe = std::make_pair(table, column);
  auto it = std::lower_bound(
      columns_.begin(), columns_.end(), probe,
      [](const CompiledColumnStats& s,
         const std::pair<std::string_view, std::string_view>& key) {
        return std::pair<std::string_view, std::string_view>(s.table,
                                                             s.column) < key;
      });
  if (it == columns_.end() || it->table != table || it->column != column) {
    return Status::NotFound("no statistics for " + std::string(table) + "." +
                            std::string(column));
  }
  return static_cast<ColumnId>(it - columns_.begin());
}

SnapshotStore::SnapshotStore()
    : current_(std::make_shared<const CatalogSnapshot>()) {}

void SnapshotStore::Lock() const {
  // Acquire on success pairs with the release in Unlock(), so every access
  // under the lock happens-before every later critical section — readers
  // included (see the header's note on why std::atomic<shared_ptr> is not
  // used here).
  while (locked_.exchange(true, std::memory_order_acquire)) {
    // Contention is one refcount increment or one pointer swap long.
  }
}

void SnapshotStore::Unlock() const {
  locked_.store(false, std::memory_order_release);
}

std::shared_ptr<const CatalogSnapshot> SnapshotStore::Current() const {
  Lock();
  std::shared_ptr<const CatalogSnapshot> snapshot = current_;
  Unlock();
  return snapshot;
}

void SnapshotStore::Publish(std::shared_ptr<const CatalogSnapshot> snapshot) {
  if (snapshot == nullptr) snapshot = std::make_shared<const CatalogSnapshot>();
  // Telemetry (DESIGN.md Â§9): publications are rare (once per ANALYZE /
  // refresh tick), so a span + counter here costs nothing on the read side.
  static telemetry::SpanSite& span_site =
      telemetry::GetSpanSite("Serving.SnapshotPublish");
  telemetry::TraceSpan span(span_site);
  if (span.recording()) {
    static telemetry::Counter* publishes_total =
        telemetry::MetricRegistry::Global().GetCounter(
            "hops_snapshot_publish_total",
            "Catalog snapshots published through a SnapshotStore.");
    publishes_total->Increment();
  }
  Lock();
  current_.swap(snapshot);
  Unlock();
  publish_count_.fetch_add(1, std::memory_order_relaxed);
  last_publish_nanos_.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count(),
      std::memory_order_relaxed);
  // The old snapshot (if this was the last reference) is destroyed here,
  // outside the critical section.
}

double SnapshotStore::seconds_since_publish() const {
  const int64_t last = last_publish_nanos_.load(std::memory_order_relaxed);
  if (last == 0) return -1.0;
  const int64_t now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count();
  return static_cast<double>(now - last) * 1e-9;
}

Result<std::shared_ptr<const CatalogSnapshot>> SnapshotStore::RepublishFrom(
    const Catalog& catalog) {
  HOPS_ASSIGN_OR_RETURN(std::shared_ptr<const CatalogSnapshot> snapshot,
                        CatalogSnapshot::Compile(catalog));
  Publish(snapshot);
  return snapshot;
}

}  // namespace hops
