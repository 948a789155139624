// The system catalog: per-column statistics with compact histograms, in the
// spirit of DB2's SYSIBM.SYSCOLDIST / SYSCOLUMNS (Section 4.2). Histograms
// are held in their *encoded* form so every read performs the same
// round-trip a real optimizer would.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/value.h"
#include "histogram/serialization.h"
#include "util/status.h"

namespace hops {

/// \brief Statistics for one (table, column) pair.
struct ColumnStatistics {
  double num_tuples = 0.0;
  uint64_t num_distinct = 0;
  /// Domain bounds, meaningful for int64 columns (used by range estimation).
  int64_t min_value = 0;
  int64_t max_value = 0;
  CatalogHistogram histogram;
};

/// \brief Maps an engine Value to the 64-bit key space the compact
/// histograms are stored under. Int64 values map to themselves; strings map
/// to their stable hash (collisions merely perturb a statistical structure).
int64_t CatalogKeyFor(const Value& value);

/// \brief In-memory catalog. Thread-compatible (external synchronization).
class Catalog {
 public:
  /// Inserts or replaces statistics for (table, column).
  Status PutColumnStatistics(const std::string& table,
                             const std::string& column,
                             const ColumnStatistics& stats);

  /// Fetches and decodes statistics; NotFound when absent.
  Result<ColumnStatistics> GetColumnStatistics(
      const std::string& table, const std::string& column) const;

  bool HasColumnStatistics(const std::string& table,
                           const std::string& column) const;

  /// Removes an entry; NotFound when absent.
  Status DropColumnStatistics(const std::string& table,
                              const std::string& column);

  /// All (table, column) keys, sorted.
  std::vector<std::pair<std::string, std::string>> ListEntries() const;

  /// Total bytes of encoded histograms resident in the catalog — the
  /// storage-overhead number Section 4 trades against accuracy.
  size_t TotalEncodedBytes() const;

  /// Monotonic in-memory mutation counter: bumped by every successful
  /// PutColumnStatistics / DropColumnStatistics. CatalogSnapshot::Compile
  /// records it so serving code can tell whether a published snapshot is
  /// stale. Not persisted.
  uint64_t version() const { return version_; }

 private:
  struct Entry {
    double num_tuples;
    uint64_t num_distinct;
    int64_t min_value;
    int64_t max_value;
    std::string encoded_histogram;
  };
  std::map<std::pair<std::string, std::string>, Entry> entries_;
  uint64_t version_ = 0;
};

}  // namespace hops
