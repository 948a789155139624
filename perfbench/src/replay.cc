#include "replay.h"

#include <memory>

#include "engine/statistics.h"
#include "estimator/serving.h"
#include "histogram/parallel_build.h"
#include "net/http.h"
#include "net/wire_format.h"
#include "probes.h"
#include "sample_stats.h"
#include "stats/frequency_set.h"
#include "util/json.h"

namespace perfbench {
namespace {

hops::Result<hops::ColumnId> ResolveRef(const hops::JsonValue& ref,
                                        const hops::CatalogSnapshot& snapshot) {
  HOPS_ASSIGN_OR_RETURN(std::string table, ref.GetString("table"));
  HOPS_ASSIGN_OR_RETURN(std::string column, ref.GetString("column"));
  return snapshot.Resolve(table, column);
}

// The JSON spec shapes the plan mix sends (net/estimate_service.h).
hops::Result<hops::EstimateSpec> ResolveJsonSpec(
    const hops::JsonValue& spec, const hops::CatalogSnapshot& snapshot) {
  HOPS_ASSIGN_OR_RETURN(std::string kind, spec.GetString("kind"));
  if (kind == "join") {
    const hops::JsonValue* left = spec.Find("left");
    const hops::JsonValue* right = spec.Find("right");
    if (left == nullptr || right == nullptr) {
      return hops::Status::InvalidArgument("join needs left and right");
    }
    HOPS_ASSIGN_OR_RETURN(hops::ColumnId left_id, ResolveRef(*left, snapshot));
    HOPS_ASSIGN_OR_RETURN(hops::ColumnId right_id, ResolveRef(*right, snapshot));
    return hops::EstimateSpec::Join(left_id, right_id);
  }
  HOPS_ASSIGN_OR_RETURN(hops::ColumnId id, ResolveRef(spec, snapshot));
  if (kind == "equality") {
    HOPS_ASSIGN_OR_RETURN(int64_t value, spec.GetInt("value"));
    return hops::EstimateSpec::Equality(id, hops::Value(value));
  }
  if (kind == "range") {
    hops::RangeBounds bounds;
    HOPS_ASSIGN_OR_RETURN(bounds.low, spec.GetInt("low"));
    HOPS_ASSIGN_OR_RETURN(bounds.high, spec.GetInt("high"));
    return hops::EstimateSpec::Range(id, bounds);
  }
  if (kind == "in") {
    const hops::JsonValue* values = spec.Find("values");
    if (values == nullptr || !values->is_array()) {
      return hops::Status::InvalidArgument("in needs values");
    }
    std::vector<hops::Value> in_list;
    for (const hops::JsonValue& v : values->AsArray()) {
      in_list.emplace_back(v.AsInt64());
    }
    return hops::EstimateSpec::In(id, std::move(in_list));
  }
  return hops::Status::InvalidArgument("unexpected spec kind " + kind);
}

hops::Result<hops::EstimateSpec> ResolveWireSpec(
    const hops::net::WireSpec& spec, const hops::CatalogSnapshot& snapshot) {
  HOPS_ASSIGN_OR_RETURN(hops::ColumnId id,
                        snapshot.Resolve(spec.table, spec.column));
  if (spec.kind == hops::net::WireSpec::Kind::kRange) {
    return hops::EstimateSpec::Range(
        id, hops::RangeBounds{spec.a, spec.b, spec.include_low,
                              spec.include_high});
  }
  return hops::EstimateSpec::Equality(id, hops::Value(spec.a));
}

double Elapsed(int64_t start, double unit_ns) {
  return static_cast<double>(NowNs() - start) / unit_ns;
}

struct StageSamples {
  std::vector<double> parse, decode, acquire, resolve, batch, per_spec, render;
  double specs = 0;
};

bool ReplayOne(const std::string& wire, bool binary,
               const hops::SnapshotStore& store, hops::ThreadPool* pool,
               StageSamples* out) {
  int64_t start = NowNs();
  hops::net::HttpParser parser;
  parser.Feed(wire);
  hops::net::HttpRequest request;
  if (parser.Next(&request) != hops::net::HttpParser::Event::kRequest) {
    return false;
  }
  out->parse.push_back(Elapsed(start, 1e3));

  std::vector<hops::net::WireSpec> wire_specs;
  hops::JsonValue document;
  start = NowNs();
  if (binary) {
    hops::Result<std::vector<hops::net::WireSpec>> decoded =
        hops::net::DecodeBatchRequest(request.body);
    if (!decoded.ok()) return false;
    wire_specs = std::move(decoded).ValueOrDie();
  } else {
    hops::Result<hops::JsonValue> parsed = hops::ParseJson(request.body);
    if (!parsed.ok()) return false;
    document = std::move(parsed).ValueOrDie();
  }
  out->decode.push_back(Elapsed(start, 1e3));

  start = NowNs();
  const std::shared_ptr<const hops::CatalogSnapshot> snapshot = store.Current();
  out->acquire.push_back(Elapsed(start, 1.0));

  std::vector<hops::EstimateSpec> specs;
  start = NowNs();
  if (binary) {
    specs.reserve(wire_specs.size());
    for (const hops::net::WireSpec& spec : wire_specs) {
      hops::Result<hops::EstimateSpec> resolved = ResolveWireSpec(spec, *snapshot);
      if (!resolved.ok()) return false;
      specs.push_back(std::move(resolved).ValueOrDie());
    }
  } else {
    const hops::JsonValue* entries = document.Find("specs");
    if (entries == nullptr || !entries->is_array()) return false;
    specs.reserve(entries->AsArray().size());
    for (const hops::JsonValue& entry : entries->AsArray()) {
      hops::Result<hops::EstimateSpec> resolved = ResolveJsonSpec(entry, *snapshot);
      if (!resolved.ok()) return false;
      specs.push_back(std::move(resolved).ValueOrDie());
    }
  }
  if (specs.empty()) return false;
  const double n = static_cast<double>(specs.size());
  out->resolve.push_back(Elapsed(start, 1.0) / n);
  out->specs += n;

  start = NowNs();
  const std::vector<hops::Result<double>> results =
      hops::EstimateBatch(*snapshot, specs, pool);
  const double batch_ns = Elapsed(start, 1.0);
  out->batch.push_back(batch_ns / 1e3);
  out->per_spec.push_back(batch_ns / n);

  start = NowNs();
  std::string body;
  if (binary) {
    std::vector<hops::net::WireResult> records(results.size());
    for (size_t i = 0; i < results.size(); ++i) {
      if (results[i].ok()) records[i].estimate = results[i].ValueOrDie();
    }
    body = hops::net::EncodeBatchResponse(snapshot->source_version(), records);
  } else {
    hops::JsonWriter writer;
    writer.BeginObject();
    writer.Key("snapshot_version");
    writer.UInt(snapshot->source_version());
    writer.Key("results");
    writer.BeginArray();
    for (const hops::Result<double>& result : results) {
      writer.BeginObject();
      writer.Key("estimate");
      writer.Double(result.ok() ? result.ValueOrDie() : 0.0);
      writer.EndObject();
    }
    writer.EndArray();
    writer.EndObject();
    body = writer.str();
  }
  out->render.push_back(Elapsed(start, 1e3));
  return !body.empty();
}

}  // namespace

bool ReplayRequests(const std::vector<const std::string*>& wires, bool binary,
                    const hops::SnapshotStore& store, hops::ThreadPool* pool,
                    ReplayTimes* times) {
  // Two passes, timing the second: the snapshot's estimate cache is then in
  // the state the workload's own traffic leaves it in.
  StageSamples samples;
  for (int pass = 0; pass < 2; ++pass) {
    samples = StageSamples();
    for (const std::string* wire : wires) {
      if (!ReplayOne(*wire, binary, store, pool, &samples)) return false;
    }
  }
  times->requests = wires.size();
  times->specs_per_request =
      wires.empty() ? 0 : samples.specs / static_cast<double>(wires.size());
  times->parse_us = Median(samples.parse);
  times->decode_us = Median(samples.decode);
  times->acquire_ns = Median(samples.acquire);
  times->resolve_ns_per_spec = Median(samples.resolve);
  times->batch_us = Median(samples.batch);
  times->ns_per_spec = Median(samples.per_spec);
  times->render_us = Median(samples.render);
  return true;
}

double ReplayCompileMs(const hops::Catalog& catalog, int repeats) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const int64_t start = NowNs();
    if (!hops::CatalogSnapshot::Compile(catalog).ok()) return 0.0;
    samples.push_back(Elapsed(start, 1e6));
  }
  return Median(samples);
}

double ReplayRebuildMsPerColumn(const Columns& columns, size_t buckets,
                                hops::ThreadPool* pool, int repeats) {
  std::vector<double> samples;
  for (int r = 0; r < repeats; ++r) {
    // Value-sorted positive frequencies, as RefreshManager feeds its builder.
    std::vector<hops::HistogramBuildRequest> requests;
    for (const std::unique_ptr<ColumnModel>& column : columns) {
      std::vector<double> positive;
      for (double count : column->Counts()) {
        if (count > 0) positive.push_back(count);
      }
      hops::Result<hops::FrequencySet> set =
          hops::FrequencySet::Make(std::move(positive));
      if (!set.ok()) return 0.0;
      hops::HistogramBuildRequest request;
      request.num_buckets = std::min(buckets, set->size());
      request.set = std::move(set).ValueOrDie();
      request.kind = hops::BuilderKindForStatisticsClass(
          hops::StatisticsHistogramClass::kVOptEndBiased);
      requests.push_back(std::move(request));
    }
    hops::ParallelBuildOptions options;
    options.pool = pool;
    const int64_t start = NowNs();
    const std::vector<hops::Result<hops::Histogram>> built =
        hops::BuildHistogramBatch(std::move(requests), options);
    const double elapsed = Elapsed(start, 1e6);
    for (const hops::Result<hops::Histogram>& histogram : built) {
      if (!histogram.ok()) return 0.0;
    }
    samples.push_back(elapsed / static_cast<double>(columns.size()));
  }
  return Median(samples);
}

}  // namespace perfbench
