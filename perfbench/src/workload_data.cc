#include "workload_data.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_set>

namespace perfbench {
namespace {

static_assert(std::endian::native == std::endian::little,
              "the binary frame encoder writes host-order integers");

template <typename T>
void AppendRaw(std::string* out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out->append(bytes, sizeof(T));
}

template <typename T>
T ReadRaw(const std::string& in, size_t offset) {
  T value;
  std::memcpy(&value, in.data() + offset, sizeof(T));
  return value;
}

void AppendDouble(std::string* out, double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out->append(buffer);
}

void AppendColumnRef(std::string* out, const ColumnModel& column) {
  out->append("\"table\":\"").append(column.table());
  out->append("\",\"column\":\"").append(column.column()).append("\"");
}

template <typename T>
void Shuffle(std::vector<T>* items, Rng& rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[UniformBelow(rng, i)]);
  }
}

// Parses the number after the ':' that follows position \p key_end.
bool NumberAfterColon(const std::string& body, size_t key_end, double* value,
                      size_t* next) {
  size_t pos = body.find(':', key_end);
  if (pos == std::string::npos) return false;
  ++pos;
  while (pos < body.size() && (body[pos] == ' ' || body[pos] == '\n')) ++pos;
  const char* start = body.c_str() + pos;
  char* end = nullptr;
  *value = std::strtod(start, &end);
  if (end == start) return false;
  *next = pos + static_cast<size_t>(end - start);
  return true;
}

}  // namespace

ZipfSampler::ZipfSampler(size_t n, double skew) : cdf_(std::max<size_t>(n, 1)) {
  double sum = 0;
  for (size_t i = 0; i < cdf_.size(); ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), skew);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t ZipfSampler::Sample(Rng& rng) const {
  const double u = Uniform01(rng);
  const size_t rank = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(rank, cdf_.size() - 1);
}

ColumnModel::ColumnModel(std::string table, std::string column,
                         std::vector<int64_t> values, std::vector<double> counts)
    : table_(std::move(table)),
      column_(std::move(column)),
      values_(std::move(values)),
      counts_(values_.size(), 0.0),
      fenwick_(values_.size() + 1, 0.0) {
  for (size_t i = 0; i < counts.size(); ++i) Add(i, counts[i]);
}

double ColumnModel::PrefixLocked(size_t end) const {
  double sum = 0;
  for (size_t i = end; i > 0; i -= i & (~i + 1)) sum += fenwick_[i];
  return sum;
}

double ColumnModel::Equality(int64_t value) const {
  const auto it = std::lower_bound(values_.begin(), values_.end(), value);
  if (it == values_.end() || *it != value) return 0.0;
  std::lock_guard<std::mutex> lock(mutex_);
  return counts_[static_cast<size_t>(it - values_.begin())];
}

double ColumnModel::Range(int64_t low, int64_t high) const {
  if (high < low) return 0.0;
  const size_t begin = static_cast<size_t>(
      std::lower_bound(values_.begin(), values_.end(), low) - values_.begin());
  const size_t end = static_cast<size_t>(
      std::upper_bound(values_.begin(), values_.end(), high) - values_.begin());
  std::lock_guard<std::mutex> lock(mutex_);
  return PrefixLocked(end) - PrefixLocked(begin);
}

double ColumnModel::Count(size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counts_[index];
}

double ColumnModel::Total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

std::vector<double> ColumnModel::Counts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counts_;
}

void ColumnModel::Add(size_t index, double weight) {
  std::lock_guard<std::mutex> lock(mutex_);
  counts_[index] += weight;
  total_ += weight;
  for (size_t i = index + 1; i < fenwick_.size(); i += i & (~i + 1)) {
    fenwick_[i] += weight;
  }
}

Columns MakeColumns(const CatalogShape& shape, Rng& rng) {
  // Column i gets skew min + (max - min) * frac(i * golden ratio): every
  // seed gets the same column shapes, and any run of consecutive columns
  // (the plan mix's hot ones) spreads evenly over the skew range. The seed
  // moves values, frequencies among values and the requests, not the
  // catalog's make-up.
  const double golden = 0.6180339887498949;
  Columns columns;
  for (size_t t = 0; t < shape.tables; ++t) {
    for (size_t c = 0; c < shape.columns_per_table; ++c) {
      std::vector<int64_t> values;
      if (static_cast<size_t>(shape.key_space) == shape.distinct) {
        values.resize(shape.distinct);
        for (size_t i = 0; i < shape.distinct; ++i) values[i] = static_cast<int64_t>(i);
      } else {
        std::unordered_set<int64_t> seen;
        while (seen.size() < shape.distinct) {
          seen.insert(static_cast<int64_t>(
              UniformBelow(rng, static_cast<uint64_t>(shape.key_space))));
        }
        values.assign(seen.begin(), seen.end());
        std::sort(values.begin(), values.end());
      }
      // Zipf frequencies assigned to values in a random order, so a
      // column's hot values are spread over its domain.
      const double phase = static_cast<double>(columns.size()) * golden;
      const double skew = shape.skew_min + (shape.skew_max - shape.skew_min) *
                                               (phase - std::floor(phase));
      std::vector<size_t> rank(values.size());
      for (size_t i = 0; i < rank.size(); ++i) rank[i] = i;
      Shuffle(&rank, rng);
      double harmonic = 0;
      for (size_t i = 0; i < values.size(); ++i) {
        harmonic += 1.0 / std::pow(static_cast<double>(i + 1), skew);
      }
      std::vector<double> counts(values.size());
      for (size_t i = 0; i < values.size(); ++i) {
        const double share =
            1.0 / std::pow(static_cast<double>(rank[i] + 1), skew) / harmonic;
        counts[i] = std::max(1.0, std::round(shape.tuples_per_column * share));
      }
      std::string table = shape.table_prefix;
      table += std::to_string(t);
      std::string column = "c";
      column += std::to_string(c);
      columns.push_back(std::make_unique<ColumnModel>(
          std::move(table), std::move(column), std::move(values), std::move(counts)));
    }
  }
  return columns;
}

PlanMix::PlanMix(const Columns& columns, Rng& rng)
    : columns_(columns),
      column_zipf_(columns.size(), 1.0),
      value_zipf_(columns.front()->size(), 1.1) {
  rank_to_index_.resize(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    std::vector<uint32_t>& ranks = rank_to_index_[c];
    ranks.resize(columns[c]->size());
    for (size_t i = 0; i < ranks.size(); ++i) ranks[i] = static_cast<uint32_t>(i);
    Shuffle(&ranks, rng);
  }
}

std::vector<GenSpec> PlanMix::Next(Rng& rng) const {
  auto hot_index = [&](uint32_t column) {
    const std::vector<uint32_t>& ranks = rank_to_index_[column];
    return ranks[std::min(value_zipf_.Sample(rng), ranks.size() - 1)];
  };
  auto pick_column = [&]() {
    return static_cast<uint32_t>(column_zipf_.Sample(rng));
  };
  std::vector<GenSpec> specs;
  for (int i = 0; i < 4; ++i) {
    GenSpec spec;
    spec.kind = GenSpec::Kind::kEquality;
    spec.column = pick_column();
    spec.a = columns_[spec.column]->values()[hot_index(spec.column)];
    specs.push_back(spec);
  }
  static constexpr size_t kWidths[] = {4, 16, 64};
  for (int i = 0; i < 2; ++i) {
    GenSpec spec;
    spec.kind = GenSpec::Kind::kRange;
    spec.column = pick_column();
    const std::vector<int64_t>& values = columns_[spec.column]->values();
    const size_t low = hot_index(spec.column);
    const size_t high =
        std::min(low + kWidths[UniformBelow(rng, 3)], values.size() - 1);
    spec.a = values[low];
    spec.b = values[high];
    specs.push_back(spec);
  }
  {
    GenSpec spec;
    spec.kind = GenSpec::Kind::kIn;
    spec.column = pick_column();
    for (int i = 0; i < 3; ++i) {
      spec.in_list.push_back(
          columns_[spec.column]->values()[hot_index(spec.column)]);
    }
    specs.push_back(spec);
  }
  {
    GenSpec spec;
    spec.kind = GenSpec::Kind::kJoin;
    spec.column = pick_column();
    spec.right = pick_column();
    if (spec.right == spec.column) {
      spec.right = static_cast<uint32_t>((spec.column + 1) % columns_.size());
    }
    specs.push_back(spec);
  }
  return specs;
}

std::vector<GenSpec> ProbeMix(const Columns& columns, size_t specs,
                              int64_t key_space, Rng& rng) {
  const uint64_t space = static_cast<uint64_t>(key_space);
  std::vector<GenSpec> out(specs);
  for (GenSpec& spec : out) {
    spec.column = static_cast<uint32_t>(UniformBelow(rng, columns.size()));
    if (Uniform01(rng) < 0.75) {
      const std::vector<int64_t>& values = columns[spec.column]->values();
      spec.kind = GenSpec::Kind::kEquality;
      spec.a = values[UniformBelow(rng, values.size())];
    } else {
      spec.kind = GenSpec::Kind::kRange;
      spec.a = static_cast<int64_t>(UniformBelow(rng, space));
      spec.b = std::min<int64_t>(
          key_space - 1,
          spec.a + static_cast<int64_t>(UniformBelow(rng, space / 256)));
    }
  }
  return out;
}

std::string RenderEstimateJson(const Columns& columns,
                               const std::vector<GenSpec>& specs) {
  std::string out = "{\"specs\":[";
  for (size_t i = 0; i < specs.size(); ++i) {
    const GenSpec& spec = specs[i];
    const ColumnModel& column = *columns[spec.column];
    if (i > 0) out.push_back(',');
    switch (spec.kind) {
      case GenSpec::Kind::kEquality:
        out.append("{\"kind\":\"equality\",");
        AppendColumnRef(&out, column);
        out.append(",\"value\":").append(std::to_string(spec.a)).append("}");
        break;
      case GenSpec::Kind::kRange:
        out.append("{\"kind\":\"range\",");
        AppendColumnRef(&out, column);
        out.append(",\"low\":").append(std::to_string(spec.a));
        out.append(",\"high\":").append(std::to_string(spec.b)).append("}");
        break;
      case GenSpec::Kind::kIn:
        out.append("{\"kind\":\"in\",");
        AppendColumnRef(&out, column);
        out.append(",\"values\":[");
        for (size_t v = 0; v < spec.in_list.size(); ++v) {
          if (v > 0) out.push_back(',');
          out.append(std::to_string(spec.in_list[v]));
        }
        out.append("]}");
        break;
      case GenSpec::Kind::kJoin:
        out.append("{\"kind\":\"join\",\"left\":{");
        AppendColumnRef(&out, column);
        out.append("},\"right\":{");
        AppendColumnRef(&out, *columns[spec.right]);
        out.append("}}");
        break;
    }
  }
  out.append("]}");
  return out;
}

std::string RenderEstimateBinary(const Columns& columns,
                                 const std::vector<GenSpec>& specs) {
  // Frame layout: net/wire_format.h ("HOPB", version 1).
  std::string out = "HOPB";
  AppendRaw<uint16_t>(&out, 1);
  AppendRaw<uint16_t>(&out, 0);
  AppendRaw<uint32_t>(&out, static_cast<uint32_t>(specs.size()));
  for (const GenSpec& spec : specs) {
    const ColumnModel& column = *columns[spec.column];
    const bool range = spec.kind == GenSpec::Kind::kRange;
    AppendRaw<uint8_t>(&out, range ? 2 : 0);
    AppendRaw<uint8_t>(&out, range ? 0x3 : 0);
    AppendRaw<uint16_t>(&out, static_cast<uint16_t>(column.table().size()));
    AppendRaw<uint16_t>(&out, static_cast<uint16_t>(column.column().size()));
    AppendRaw<uint16_t>(&out, 0);
    AppendRaw<uint16_t>(&out, 0);
    AppendRaw<uint16_t>(&out, 0);
    AppendRaw<uint32_t>(&out, 0);
    AppendRaw<int64_t>(&out, spec.a);
    AppendRaw<int64_t>(&out, range ? spec.b : 0);
    out.append(column.table()).append(column.column());
  }
  return out;
}

hops::Result<hops::EstimateSpec> ToEstimateSpec(
    const Columns& columns, const hops::CatalogSnapshot& snapshot,
    const GenSpec& spec) {
  const ColumnModel& column = *columns[spec.column];
  HOPS_ASSIGN_OR_RETURN(hops::ColumnId id,
                        snapshot.Resolve(column.table(), column.column()));
  switch (spec.kind) {
    case GenSpec::Kind::kEquality:
      return hops::EstimateSpec::Equality(id, hops::Value(spec.a));
    case GenSpec::Kind::kRange:
      return hops::EstimateSpec::Range(
          id, hops::RangeBounds{spec.a, spec.b, true, true});
    case GenSpec::Kind::kIn: {
      std::vector<hops::Value> values;
      for (int64_t v : spec.in_list) values.emplace_back(v);
      return hops::EstimateSpec::In(id, std::move(values));
    }
    case GenSpec::Kind::kJoin: {
      const ColumnModel& right = *columns[spec.right];
      HOPS_ASSIGN_OR_RETURN(hops::ColumnId right_id,
                            snapshot.Resolve(right.table(), right.column()));
      return hops::EstimateSpec::Join(id, right_id);
    }
  }
  return hops::Status::InvalidArgument("unknown generated spec kind");
}

bool TrueSize(const Columns& columns, const GenSpec& spec, double* size) {
  switch (spec.kind) {
    case GenSpec::Kind::kEquality:
      *size = columns[spec.column]->Equality(spec.a);
      return true;
    case GenSpec::Kind::kRange:
      *size = columns[spec.column]->Range(spec.a, spec.b);
      return true;
    default:
      return false;
  }
}

double QError(double estimate, double truth) {
  const double e = std::max(estimate, 1.0);
  const double t = std::max(truth, 1.0);
  return std::max(e / t, t / e);
}

bool ParseJsonEstimates(const std::string& body, uint64_t* snapshot_version,
                        std::vector<double>* estimates) {
  estimates->clear();
  const size_t version_key = body.find("\"snapshot_version\"");
  size_t pos = body.find("\"results\"");
  if (version_key == std::string::npos || pos == std::string::npos) {
    return false;
  }
  double version = 0;
  size_t unused = 0;
  if (!NumberAfterColon(body, version_key + 18, &version, &unused)) return false;
  *snapshot_version = static_cast<uint64_t>(version);
  while (true) {
    const size_t estimate = body.find("\"estimate\"", pos);
    const size_t error = body.find("\"error\"", pos);
    if (error != std::string::npos &&
        (estimate == std::string::npos || error < estimate)) {
      return false;
    }
    if (estimate == std::string::npos) return true;
    double value = 0;
    if (!NumberAfterColon(body, estimate + 10, &value, &pos)) return false;
    estimates->push_back(value);
  }
}

bool ParseBinaryEstimates(const std::string& body, uint64_t* snapshot_version,
                          std::vector<double>* estimates) {
  estimates->clear();
  if (body.size() < 20 || body.compare(0, 4, "HOPR") != 0 ||
      ReadRaw<uint16_t>(body, 4) != 1) {
    return false;
  }
  const uint32_t count = ReadRaw<uint32_t>(body, 8);
  if (body.size() != 20 + 16 * static_cast<size_t>(count)) return false;
  *snapshot_version = ReadRaw<uint64_t>(body, 12);
  estimates->reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t record = 20 + 16 * i;
    if (ReadRaw<uint32_t>(body, record) != 0) return false;
    estimates->push_back(ReadRaw<double>(body, record + 8));
  }
  return true;
}

bool BitIdentical(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

DeltaStream::DeltaStream(std::vector<uint32_t> owned_columns, uint64_t seed)
    : owned_(std::move(owned_columns)), rng_(seed), hot_(256, 1.1) {}

std::vector<Delta> DeltaStream::NextBatch(const Columns& columns,
                                          size_t batch) {
  ++batches_;
  std::vector<Delta> out;
  out.reserve(batch);
  for (size_t j = 0; j < batch; ++j) {
    Delta delta;
    delta.column = owned_[UniformBelow(rng_, owned_.size())];
    const ColumnModel& column = *columns[delta.column];
    // The hot set's start moves one value per batch: the Zipf head drifts
    // across the domain, so rebuilds keep chasing new heavy hitters.
    const size_t start = static_cast<size_t>(batches_ % column.size());
    delta.index = static_cast<uint32_t>((start + hot_.Sample(rng_) * 13) %
                                        column.size());
    if (Uniform01(rng_) < 0.45) {
      const auto pending = in_flight_.find(Key(delta));
      const double count = column.Count(delta.index) +
                           (pending == in_flight_.end() ? 0.0 : pending->second);
      if (count >= 1.0) delta.weight = -1.0;
    }
    in_flight_[Key(delta)] += delta.weight;
    out.push_back(delta);
  }
  return out;
}

void DeltaStream::Settle(const std::vector<Delta>& batch) {
  for (const Delta& delta : batch) in_flight_[Key(delta)] -= delta.weight;
  for (const Delta& delta : batch) {
    const auto it = in_flight_.find(Key(delta));
    if (it != in_flight_.end() && it->second == 0.0) in_flight_.erase(it);
  }
}

std::string RenderUpdateJson(const Columns& columns,
                             const std::vector<Delta>& deltas) {
  std::string out = "{\"updates\":[";
  for (size_t i = 0; i < deltas.size(); ++i) {
    const ColumnModel& column = *columns[deltas[i].column];
    if (i > 0) out.push_back(',');
    out.push_back('{');
    AppendColumnRef(&out, column);
    out.append(",\"value\":").append(std::to_string(column.values()[deltas[i].index]));
    out.append(deltas[i].weight < 0 ? ",\"weight\":-1}" : ",\"weight\":1}");
  }
  out.append("]}");
  return out;
}

std::string RenderFeedbackJson(const Columns& columns,
                               const std::vector<GenSpec>& specs,
                               const std::vector<double>& estimates,
                               const std::vector<double>& truths) {
  std::string reports;
  for (size_t i = 0; i < specs.size(); ++i) {
    const GenSpec& spec = specs[i];
    if (spec.kind != GenSpec::Kind::kEquality &&
        spec.kind != GenSpec::Kind::kRange) {
      continue;
    }
    if (!reports.empty()) reports.push_back(',');
    reports.append(spec.kind == GenSpec::Kind::kEquality
                       ? "{\"kind\":\"equality\","
                       : "{\"kind\":\"range\",");
    AppendColumnRef(&reports, *columns[spec.column]);
    if (spec.kind == GenSpec::Kind::kEquality) {
      reports.append(",\"value\":").append(std::to_string(spec.a));
    } else {
      reports.append(",\"low\":").append(std::to_string(spec.a));
      reports.append(",\"high\":").append(std::to_string(spec.b));
    }
    reports.append(",\"estimated\":");
    AppendDouble(&reports, estimates[i]);
    reports.append(",\"actual\":");
    AppendDouble(&reports, truths[i]);
    reports.push_back('}');
  }
  if (reports.empty()) return {};
  return "{\"reports\":[" + reports + "]}";
}

}  // namespace perfbench
