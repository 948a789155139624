#include "histogram/serialization.h"

#include <algorithm>
#include <cmath>

#include "histogram/tuning.h"
#include "util/bytes.h"

namespace hops {

namespace {

constexpr uint32_t kMagic = 0x484F5053;  // "HOPS"
constexpr uint32_t kVersion = 1;
// Version 2 appends the refinement tree (histogram/tuning.h) after the
// default-bucket trailer; written only when a tree is installed, so
// untuned histograms keep their historical byte-identical encoding.
constexpr uint32_t kVersionRefined = 2;

}  // namespace

Result<CatalogHistogram> CatalogHistogram::Make(
    std::vector<std::pair<int64_t, double>> explicit_entries,
    double default_frequency, uint64_t num_default_values) {
  std::sort(explicit_entries.begin(), explicit_entries.end());
  for (size_t i = 0; i + 1 < explicit_entries.size(); ++i) {
    if (explicit_entries[i].first == explicit_entries[i + 1].first) {
      return Status::InvalidArgument("duplicate explicit value " +
                                     std::to_string(explicit_entries[i].first));
    }
  }
  for (const auto& [value, freq] : explicit_entries) {
    if (!std::isfinite(freq) || freq < 0) {
      return Status::InvalidArgument("explicit frequency must be >= 0");
    }
  }
  if (!std::isfinite(default_frequency) || default_frequency < 0) {
    return Status::InvalidArgument("default frequency must be >= 0");
  }
  CatalogHistogram out;
  out.explicit_entries_ = std::move(explicit_entries);
  out.default_frequency_ = default_frequency;
  out.num_default_values_ = num_default_values;
  return out;
}

Result<CatalogHistogram> CatalogHistogram::FromHistogram(
    const Histogram& histogram, std::span<const int64_t> value_ids,
    BucketAverageMode mode) {
  if (value_ids.size() != histogram.num_values()) {
    return Status::InvalidArgument(
        "value_ids size does not match the histogram's value count");
  }
  // Pick the largest bucket as the implicit default.
  const auto& stats = histogram.bucket_stats();
  size_t default_bucket = 0;
  for (size_t b = 1; b < stats.size(); ++b) {
    if (stats[b].count > stats[default_bucket].count) default_bucket = b;
  }
  std::vector<std::pair<int64_t, double>> explicit_entries;
  uint64_t num_default = 0;
  for (size_t i = 0; i < histogram.num_values(); ++i) {
    if (histogram.bucketization().bucket_of(i) == default_bucket) {
      ++num_default;
    } else {
      explicit_entries.emplace_back(value_ids[i],
                                    histogram.ApproxFrequency(i, mode));
    }
  }
  double default_freq = stats[default_bucket].mean;
  if (mode == BucketAverageMode::kRoundToInteger) {
    default_freq = std::round(default_freq);
  }
  return Make(std::move(explicit_entries), default_freq, num_default);
}

double CatalogHistogram::LookupFrequency(int64_t value,
                                         bool* is_explicit) const {
  auto it = std::lower_bound(
      explicit_entries_.begin(), explicit_entries_.end(), value,
      [](const auto& entry, int64_t v) { return entry.first < v; });
  if (it != explicit_entries_.end() && it->first == value) {
    if (is_explicit != nullptr) *is_explicit = true;
    return it->second;
  }
  if (is_explicit != nullptr) *is_explicit = false;
  return default_frequency_;
}

bool CatalogHistogram::AdjustExplicitFrequency(int64_t value, double delta) {
  auto it = std::lower_bound(
      explicit_entries_.begin(), explicit_entries_.end(), value,
      [](const auto& entry, int64_t v) { return entry.first < v; });
  if (it == explicit_entries_.end() || it->first != value) return false;
  it->second = std::max(0.0, it->second + delta);
  return true;
}

Status CatalogHistogram::SetDefaultFrequency(double frequency) {
  if (!std::isfinite(frequency) || frequency < 0) {
    return Status::InvalidArgument("default frequency must be >= 0");
  }
  default_frequency_ = frequency;
  return Status::OK();
}

bool CatalogHistogram::PromoteToExplicit(int64_t value, double frequency) {
  if (!std::isfinite(frequency) || frequency < 0) return false;
  if (num_default_values_ == 0) return false;
  auto it = std::lower_bound(
      explicit_entries_.begin(), explicit_entries_.end(), value,
      [](const auto& entry, int64_t v) { return entry.first < v; });
  if (it != explicit_entries_.end() && it->first == value) return false;
  explicit_entries_.emplace(it, value, frequency);
  --num_default_values_;
  return true;
}

uint64_t CatalogHistogram::ScaleExplicitRange(int64_t lo, int64_t hi,
                                              double factor) {
  if (!std::isfinite(factor) || factor <= 0 || factor == 1.0 || lo > hi) {
    return 0;
  }
  auto begin = std::lower_bound(
      explicit_entries_.begin(), explicit_entries_.end(), lo,
      [](const auto& entry, int64_t v) { return entry.first < v; });
  auto end = std::upper_bound(
      explicit_entries_.begin(), explicit_entries_.end(), hi,
      [](int64_t v, const auto& entry) { return v < entry.first; });
  uint64_t touched = 0;
  for (auto it = begin; it != end; ++it) {
    it->second = std::max(0.0, it->second * factor);
    ++touched;
  }
  return touched;
}

void CatalogHistogram::SetRefinement(
    std::shared_ptr<const BucketRefinementTree> refinement) {
  refinement_ = std::move(refinement);
}

bool CatalogHistogram::operator==(const CatalogHistogram& other) const {
  if (explicit_entries_ != other.explicit_entries_ ||
      default_frequency_ != other.default_frequency_ ||
      num_default_values_ != other.num_default_values_) {
    return false;
  }
  if ((refinement_ == nullptr) != (other.refinement_ == nullptr)) {
    return false;
  }
  return refinement_ == nullptr || *refinement_ == *other.refinement_;
}

double CatalogHistogram::EstimatedTotal() const {
  double total = default_frequency_ * static_cast<double>(num_default_values_);
  for (const auto& [value, freq] : explicit_entries_) total += freq;
  return total;
}

size_t CatalogHistogram::EncodedSize() const { return Encode().size(); }

std::string CatalogHistogram::Encode() const {
  std::string out;
  AppendLE(&out, kMagic);
  AppendLE(&out, refinement_ == nullptr ? kVersion : kVersionRefined);
  AppendLE(&out, static_cast<uint64_t>(explicit_entries_.size()));
  for (const auto& [value, freq] : explicit_entries_) {
    AppendLE(&out, value);
    AppendLE(&out, freq);
  }
  AppendLE(&out, default_frequency_);
  AppendLE(&out, num_default_values_);
  if (refinement_ != nullptr) {
    AppendLE(&out, static_cast<uint64_t>(refinement_->num_leaves()));
    AppendLE(&out, refinement_->domain_lo());
    AppendLE(&out, refinement_->domain_hi());
    AppendLEArray<double>(&out, refinement_->leaf_weights());
  }
  return out;
}

Result<CatalogHistogram> CatalogHistogram::Decode(std::string_view bytes) {
  ByteReader reader(bytes);
  uint32_t magic = 0, version = 0;
  if (!reader.Read(&magic) || magic != kMagic) {
    return Status::InvalidArgument("bad catalog histogram magic");
  }
  if (!reader.Read(&version) ||
      (version != kVersion && version != kVersionRefined)) {
    return Status::InvalidArgument("unsupported catalog histogram version");
  }
  uint64_t count = 0;
  if (!reader.Read(&count)) {
    return Status::InvalidArgument("truncated catalog histogram");
  }
  // Guard the allocation against corrupted counts: every entry needs 16
  // bytes of remaining payload.
  constexpr uint64_t kEntryBytes = sizeof(int64_t) + sizeof(double);
  if (count > reader.remaining() / kEntryBytes) {
    return Status::InvalidArgument(
        "catalog histogram entry count exceeds payload");
  }
  std::vector<std::pair<int64_t, double>> entries;
  entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    int64_t value;
    double freq;
    if (!reader.Read(&value) || !reader.Read(&freq)) {
      return Status::InvalidArgument("truncated catalog histogram entries");
    }
    entries.emplace_back(value, freq);
  }
  double default_freq;
  uint64_t num_default;
  if (!reader.Read(&default_freq) || !reader.Read(&num_default)) {
    return Status::InvalidArgument("truncated catalog histogram trailer");
  }
  std::shared_ptr<const BucketRefinementTree> refinement;
  if (version == kVersionRefined) {
    uint64_t leaves = 0;
    int64_t domain_lo = 0, domain_hi = 0;
    if (!reader.Read(&leaves) || !reader.Read(&domain_lo) ||
        !reader.Read(&domain_hi)) {
      return Status::InvalidArgument("truncated refinement tree header");
    }
    std::vector<double> weights;
    if (leaves == 0 || !reader.ReadArray(leaves, &weights)) {
      return Status::InvalidArgument(
          "refinement tree leaf count exceeds payload");
    }
    HOPS_ASSIGN_OR_RETURN(BucketRefinementTree tree,
                          BucketRefinementTree::FromWeights(
                              domain_lo, domain_hi, std::move(weights)));
    refinement =
        std::make_shared<const BucketRefinementTree>(std::move(tree));
  }
  if (reader.remaining() != 0) {
    return Status::InvalidArgument("trailing bytes after catalog histogram");
  }
  HOPS_ASSIGN_OR_RETURN(CatalogHistogram out,
                        Make(std::move(entries), default_freq, num_default));
  out.refinement_ = std::move(refinement);
  return out;
}

}  // namespace hops
