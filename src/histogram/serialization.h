// Compact catalog representation of histograms (Section 4.1 "Storage and
// Maintenance" and Section 4.2).
//
// There is usually no order-correlation between attribute values and their
// frequencies, so a serial histogram must remember which values map to which
// bucket. The paper's space trick: do not store the values of the *largest*
// bucket — store only its average in a special "default" slot; any value not
// found among the explicit entries implicitly belongs to it. End-biased
// histograms are the extreme case: beta-1 explicit <value, frequency> pairs
// plus one default — exactly what DB2's SYSIBM.SYSCOLDIST keeps for its "10
// most frequent values".

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "histogram/histogram.h"
#include "util/status.h"

namespace hops {

class BucketRefinementTree;

/// \brief Catalog-resident compact histogram over int64 attribute values.
class CatalogHistogram {
 public:
  CatalogHistogram() = default;

  /// Builds the compact form of \p histogram, whose i-th set entry is the
  /// frequency of attribute value \p value_ids[i]. The bucket with the most
  /// members becomes the implicit default bucket; all other values are
  /// stored explicitly with their bucket-average frequency.
  static Result<CatalogHistogram> FromHistogram(
      const Histogram& histogram, std::span<const int64_t> value_ids,
      BucketAverageMode mode = BucketAverageMode::kExact);

  /// Direct construction (e.g. when decoding foreign catalogs).
  static Result<CatalogHistogram> Make(
      std::vector<std::pair<int64_t, double>> explicit_entries,
      double default_frequency, uint64_t num_default_values);

  /// Approximate frequency of \p value; values not stored explicitly get the
  /// default frequency. \p is_explicit (optional) reports which case hit.
  double LookupFrequency(int64_t value, bool* is_explicit = nullptr) const;

  /// Adds \p delta to an explicitly stored value's frequency (clamped at 0).
  /// Returns false (and changes nothing) when the value is not explicit.
  /// Used by incremental maintenance (histogram/maintenance.h).
  bool AdjustExplicitFrequency(int64_t value, double delta);

  /// Replaces the default bucket's average frequency (>= 0). Used by
  /// incremental maintenance.
  Status SetDefaultFrequency(double frequency);

  /// Moves one value out of the implicit default bucket into the explicit
  /// entries with the given initial frequency — the self-tuner's bounded
  /// boundary shift (histogram/tuning.h): a hot default value whose
  /// observed frequency diverges from the bucket average earns its own
  /// entry. Returns false (and changes nothing) when the value is already
  /// explicit, the default bucket is empty, or the frequency is invalid.
  bool PromoteToExplicit(int64_t value, double frequency);

  /// Multiplies the frequency of every explicit entry inside the closed
  /// interval [lo, hi] by \p factor (finite, > 0; anything else is a
  /// no-op). Returns the number of entries touched. Used by range-feedback
  /// tuning deltas.
  uint64_t ScaleExplicitRange(int64_t lo, int64_t hi, double factor);

  /// Installs (or clears, with nullptr) the default bucket's refinement
  /// tree — the learned intra-bucket density range estimation uses in
  /// place of the uniform-spread assumption (histogram/tuning.h). Shared
  /// and immutable: tuners replace the pointer copy-on-write, never mutate
  /// through it.
  void SetRefinement(std::shared_ptr<const BucketRefinementTree> refinement);

  /// The installed refinement tree, or nullptr (the uniform default).
  const std::shared_ptr<const BucketRefinementTree>& refinement() const {
    return refinement_;
  }

  /// Explicitly stored entries, sorted by value.
  const std::vector<std::pair<int64_t, double>>& explicit_entries() const {
    return explicit_entries_;
  }
  double default_frequency() const { return default_frequency_; }
  uint64_t num_default_values() const { return num_default_values_; }

  /// Total number of attribute values covered.
  uint64_t num_values() const {
    return explicit_entries_.size() + num_default_values_;
  }

  /// Estimated total tuple count.
  double EstimatedTotal() const;

  /// Bytes this entry occupies in the catalog encoding.
  size_t EncodedSize() const;

  /// Binary encoding (little-endian, versioned). Histograms without a
  /// refinement tree encode as version 1 — byte-identical to every
  /// encoding this catalog has ever produced; a refinement tree upgrades
  /// the record to version 2 with the tree appended.
  std::string Encode() const;

  /// Inverse of Encode; accepts version 1 and version 2 records.
  static Result<CatalogHistogram> Decode(std::string_view bytes);

  /// Logical equality (entries, default frequency, default count, and the
  /// refinement tree's contents).
  bool operator==(const CatalogHistogram& other) const;

 private:
  std::vector<std::pair<int64_t, double>> explicit_entries_;  // sorted
  double default_frequency_ = 0.0;
  uint64_t num_default_values_ = 0;
  // Learned default-bucket density (nullptr = uniform); shared with
  // compiled views, replaced copy-on-write by the tuner.
  std::shared_ptr<const BucketRefinementTree> refinement_;
};

}  // namespace hops
