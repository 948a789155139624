// Seeded inputs for the three workloads: column frequency sets, the exact
// frequency model the generator checks answers against, estimate request
// pools in both wire formats, and /update and /feedback bodies. Everything
// here derives from the --seed argument; the stack under test receives only
// the rendered bytes and the registered frequency sets.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/catalog_snapshot.h"
#include "estimator/serving.h"

namespace perfbench {

using Rng = std::mt19937_64;

/// Uniform double in [0, 1).
inline double Uniform01(Rng& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}
/// Uniform integer in [0, n).
inline uint64_t UniformBelow(Rng& rng, uint64_t n) {
  return static_cast<uint64_t>(Uniform01(rng) * static_cast<double>(n));
}

/// Zipf(s) over ranks [0, n) by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double skew);
  size_t Sample(Rng& rng) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// One column's exact frequencies: what the generator registered plus every
/// delta the stack acknowledged. Values are sorted; counts are whole numbers.
/// Thread-safe: writers fold acknowledged deltas while readers ask for the
/// true size of a predicate.
class ColumnModel {
 public:
  ColumnModel(std::string table, std::string column,
              std::vector<int64_t> values, std::vector<double> counts);

  const std::string& table() const { return table_; }
  const std::string& column() const { return column_; }
  const std::vector<int64_t>& values() const { return values_; }
  size_t size() const { return values_.size(); }

  double Equality(int64_t value) const;
  double Range(int64_t low, int64_t high) const;  // inclusive bounds
  double Count(size_t index) const;
  double Total() const;
  std::vector<double> Counts() const;
  void Add(size_t index, double weight);

 private:
  double PrefixLocked(size_t end) const;  // sum of counts_[0, end)

  const std::string table_;
  const std::string column_;
  const std::vector<int64_t> values_;
  mutable std::mutex mutex_;
  std::vector<double> counts_;   // guarded by mutex_
  std::vector<double> fenwick_;  // guarded by mutex_
  double total_ = 0.0;           // guarded by mutex_
};

using Columns = std::vector<std::unique_ptr<ColumnModel>>;

/// Shape of a generated catalog.
struct CatalogShape {
  size_t tables = 1;
  size_t columns_per_table = 1;
  std::string table_prefix = "t";
  size_t distinct = 1000;          ///< distinct values per column
  int64_t key_space = 1000;        ///< values are drawn from [0, key_space)
  double tuples_per_column = 1e5;  ///< Zipf mass before rounding
  double skew_min = 0.5;           ///< per-column Zipf skew range
  double skew_max = 1.5;
};

Columns MakeColumns(const CatalogShape& shape, Rng& rng);

/// One generated estimate.
struct GenSpec {
  enum class Kind { kEquality, kRange, kIn, kJoin };
  Kind kind = Kind::kEquality;
  uint32_t column = 0;
  uint32_t right = 0;  // join partner
  int64_t a = 0;       // equality literal, range low
  int64_t b = 0;       // range high
  std::vector<int64_t> in_list;
};

struct GenRequest {
  std::vector<GenSpec> specs;
  std::string wire;              ///< complete HTTP request bytes
  std::vector<double> expected;  ///< in-process EstimateOne answers
};

/// Optimizer planning mix: 4 equality, 2 range, 1 IN, 1 join per request,
/// columns and literals Zipf-drawn so a hot predicate set repeats.
class PlanMix {
 public:
  PlanMix(const Columns& columns, Rng& rng);
  std::vector<GenSpec> Next(Rng& rng) const;

 private:
  const Columns& columns_;
  ZipfSampler column_zipf_;
  ZipfSampler value_zipf_;
  std::vector<std::vector<uint32_t>> rank_to_index_;  // per column
};

/// Probe mix: \p specs point (75%) and range (25%) specs per request, the
/// column uniform; a point literal is any of the column's values, a range
/// starts anywhere in the key space.
std::vector<GenSpec> ProbeMix(const Columns& columns, size_t specs,
                              int64_t key_space, Rng& rng);

std::string RenderEstimateJson(const Columns& columns,
                               const std::vector<GenSpec>& specs);
std::string RenderEstimateBinary(const Columns& columns,
                                 const std::vector<GenSpec>& specs);

/// Builds the snapshot-resolved spec; NotFound when a column is missing.
hops::Result<hops::EstimateSpec> ToEstimateSpec(
    const Columns& columns, const hops::CatalogSnapshot& snapshot,
    const GenSpec& spec);

/// Exact result size of an equality or range spec; false for other kinds.
bool TrueSize(const Columns& columns, const GenSpec& spec, double* size);

/// q-error of an estimate against the true size, both floored at 1.
double QError(double estimate, double truth);

/// Parses the estimates of a JSON /estimate reply. False when the body is
/// not a results document or any slot carries an error.
bool ParseJsonEstimates(const std::string& body, uint64_t* snapshot_version,
                        std::vector<double>* estimates);
/// Same for a binary (HOPR) reply.
bool ParseBinaryEstimates(const std::string& body, uint64_t* snapshot_version,
                          std::vector<double>* estimates);

bool BitIdentical(double a, double b);

/// One tuple-level delta against columns[column]->values()[index].
struct Delta {
  uint32_t column = 0;
  uint32_t index = 0;
  double weight = 1.0;
};

/// Insert/delete generator over a drifting Zipf hot set for the columns it
/// owns. Deletes only hit values whose count stays positive after every
/// delta still in flight, so the acknowledged model never goes negative and
/// mass is conserved exactly.
class DeltaStream {
 public:
  DeltaStream(std::vector<uint32_t> owned_columns, uint64_t seed);
  /// \p batch deltas, counted as in flight until Settle.
  std::vector<Delta> NextBatch(const Columns& columns, size_t batch);
  /// Takes an issued batch out of flight (acknowledged or refused).
  void Settle(const std::vector<Delta>& batch);

 private:
  static uint64_t Key(const Delta& d) {
    return (static_cast<uint64_t>(d.column) << 32) | d.index;
  }

  std::vector<uint32_t> owned_;  // column indices this stream writes
  Rng rng_;
  ZipfSampler hot_;
  uint64_t batches_ = 0;
  std::unordered_map<uint64_t, double> in_flight_;  // issued, not settled
};

std::string RenderUpdateJson(const Columns& columns,
                             const std::vector<Delta>& deltas);
/// /feedback body for the equality and range specs of one answered read;
/// empty when the request had none.
std::string RenderFeedbackJson(const Columns& columns,
                               const std::vector<GenSpec>& specs,
                               const std::vector<double>& estimates,
                               const std::vector<double>& truths);

}  // namespace perfbench
