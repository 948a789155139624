#include "engine/catalog.h"

namespace hops {

int64_t CatalogKeyFor(const Value& value) {
  if (value.is_int64()) return value.AsInt64();
  return static_cast<int64_t>(value.Hash());
}

Status Catalog::PutColumnStatistics(const std::string& table,
                                    const std::string& column,
                                    const ColumnStatistics& stats) {
  if (table.empty() || column.empty()) {
    return Status::InvalidArgument("table and column names must be non-empty");
  }
  Entry entry;
  entry.num_tuples = stats.num_tuples;
  entry.num_distinct = stats.num_distinct;
  entry.min_value = stats.min_value;
  entry.max_value = stats.max_value;
  entry.encoded_histogram = stats.histogram.Encode();
  entries_[{table, column}] = std::move(entry);
  ++version_;
  return Status::OK();
}

Result<ColumnStatistics> Catalog::GetColumnStatistics(
    const std::string& table, const std::string& column) const {
  auto it = entries_.find({table, column});
  if (it == entries_.end()) {
    return Status::NotFound("no statistics for " + table + "." + column);
  }
  ColumnStatistics stats;
  stats.num_tuples = it->second.num_tuples;
  stats.num_distinct = it->second.num_distinct;
  stats.min_value = it->second.min_value;
  stats.max_value = it->second.max_value;
  HOPS_ASSIGN_OR_RETURN(stats.histogram,
                        CatalogHistogram::Decode(it->second.encoded_histogram));
  return stats;
}

bool Catalog::HasColumnStatistics(const std::string& table,
                                  const std::string& column) const {
  return entries_.count({table, column}) > 0;
}

Status Catalog::DropColumnStatistics(const std::string& table,
                                     const std::string& column) {
  auto it = entries_.find({table, column});
  if (it == entries_.end()) {
    return Status::NotFound("no statistics for " + table + "." + column);
  }
  entries_.erase(it);
  ++version_;
  return Status::OK();
}

std::vector<std::pair<std::string, std::string>> Catalog::ListEntries()
    const {
  std::vector<std::pair<std::string, std::string>> keys;
  keys.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) keys.push_back(key);
  return keys;
}

size_t Catalog::TotalEncodedBytes() const {
  size_t total = 0;
  for (const auto& [key, entry] : entries_) {
    total += entry.encoded_histogram.size();
  }
  return total;
}

}  // namespace hops
