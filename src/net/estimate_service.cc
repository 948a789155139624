// Endpoint routing and JSON decoding (net/estimate_service.h).

#include "net/estimate_service.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <unordered_map>

#include "engine/statistics.h"
#include "net/wire_format.h"
#include "refresh/staleness.h"
#include "telemetry/exporters.h"
#include "telemetry/log.h"
#include "telemetry/process_metrics.h"

namespace hops::net {

namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// JSON value → engine Value: integers and strings (the engine's two
/// column types). Doubles, bools, null, and containers are rejected.
Result<Value> ParseValueLiteral(const JsonValue& value) {
  if (value.is_integer()) return Value(value.AsInt64());
  if (value.is_string()) return Value(value.AsString());
  return Status::InvalidArgument(
      "value must be a JSON integer or string literal");
}

/// {"table": t, "column": c} → dense snapshot id.
Result<ColumnId> ResolveRef(const JsonValue& value,
                            const CatalogSnapshot& snapshot) {
  if (!value.is_object()) {
    return Status::InvalidArgument("column reference must be an object");
  }
  HOPS_ASSIGN_OR_RETURN(std::string table, value.GetString("table"));
  HOPS_ASSIGN_OR_RETURN(std::string column, value.GetString("column"));
  return snapshot.Resolve(table, column);
}

HttpResponse JsonResponse(int status, const JsonWriter& writer) {
  HttpResponse response;
  response.status = status;
  response.body = writer.str();
  response.body.push_back('\n');
  return response;
}

}  // namespace

EstimateService::EstimateService(EstimateServiceOptions options)
    : options_(options),
      registry_(options.registry != nullptr
                    ? options.registry
                    : &telemetry::MetricRegistry::Global()) {
  metrics_ = MakeEndpoint("/metrics");
  metrics_json_ = MakeEndpoint("/metrics.json");
  healthz_ = MakeEndpoint("/healthz");
  estimate_ = MakeEndpoint("/estimate");
  feedback_ = MakeEndpoint("/feedback");
  update_ = MakeEndpoint("/update");
  tracez_ = MakeEndpoint("/debug/tracez");
  logz_ = MakeEndpoint("/debug/logz");
  columns_ = MakeEndpoint("/debug/columns");
  snapshots_ = MakeEndpoint("/debug/snapshots");
  wal_ = MakeEndpoint("/debug/wal");
  other_ = MakeEndpoint("other");
}

EstimateService::Endpoint EstimateService::MakeEndpoint(
    const std::string& path) {
  Endpoint endpoint;
  endpoint.path = path;
  endpoint.latency = registry_->GetHistogram(
      "hops_http_request_seconds", "Request handling latency by endpoint",
      telemetry::LogBucketSpec::Latency(), {{"endpoint", path}});
  endpoint.span =
      &telemetry::GetSpanSite("Net.Request", {{"endpoint", path}}, registry_);
  return endpoint;
}

void EstimateService::CountRequest(const std::string& endpoint, int status) {
  registry_
      ->GetCounter("hops_http_requests_total",
                   "HTTP requests by endpoint and status code",
                   {{"endpoint", endpoint}, {"code", std::to_string(status)}})
      ->Increment();
}

HttpResponse EstimateService::Handle(const HttpRequest& request) {
  Endpoint* endpoint = &other_;
  const int64_t start_nanos = NowNanos();

  // Trace ingress (DESIGN.md §14): adopt the client's traceparent or mint
  // a fresh context, decide sampling ONCE (deterministic in the trace id;
  // an explicit incoming sampled flag forces recording), and install the
  // context for the request's dynamic extent so every span below — across
  // pool workers too — joins this request's tree.
  telemetry::TraceRecorder* recorder =
      options_.recorder != nullptr ? options_.recorder
                                   : telemetry::TraceRecorder::Current();
  telemetry::TraceContext context;
  bool client_requested_sampling = false;
  if (const std::string* header = request.FindHeader("traceparent");
      header != nullptr && telemetry::ParseTraceparent(*header, &context)) {
    client_requested_sampling = context.sampled;
  }
  if (!context.valid() && telemetry::Enabled()) {
    context = telemetry::MintTraceContext();
  }
  context.sampled =
      recorder != nullptr && context.valid() &&
      (client_requested_sampling ||
       recorder->ShouldSample(context.trace_hi, context.trace_lo));

  telemetry::TraceContextScope scope(context);
  HttpResponse response = Route(request, &endpoint);
  const double elapsed =
      static_cast<double>(NowNanos() - start_nanos) * 1e-9;
  CountRequest(endpoint->path, response.status);
  // Exemplar detail ties a tail-latency observation back to its cause:
  // method, target, response size, and status.
  std::string detail;
  detail.reserve(64);
  detail += request.method;
  detail.push_back(' ');
  detail += request.target;
  detail += " status=";
  detail += std::to_string(response.status);
  detail += " bytes=";
  detail += std::to_string(response.body.size());
  endpoint->latency->RecordWithExemplar(elapsed, detail);

  if (context.valid()) {
    response.extra_headers.emplace_back("x-hops-trace-id",
                                        telemetry::FormatTraceId(context));
  }

  // Tail-keep: a slow or 5xx request that head-sampling skipped still
  // leaves one root event in the recorder (no child spans — those are
  // gone — but the trace id, endpoint, and wall interval survive), plus a
  // rate-limited warn line correlated by trace id.
  const bool slow = elapsed >= options_.slow_request_seconds;
  const bool failed = response.status >= 500;
  if ((slow || failed) && recorder != nullptr && context.valid() &&
      !context.sampled) {
    telemetry::TraceEvent event;
    event.trace_hi = context.trace_hi;
    event.trace_lo = context.trace_lo;
    event.span_id = telemetry::MintSpanId();
    event.start_nanos = start_nanos;
    event.end_nanos = NowNanos();
    static constexpr char kTailName[] = "Net.TailKeep";
    std::memcpy(event.name, kTailName, sizeof(kTailName));
    const size_t n =
        std::min(detail.size(), sizeof(event.detail) - 1);
    std::memcpy(event.detail, detail.data(), n);
    recorder->Record(event);
  }
  if (slow) {
    HOPS_LOG(telemetry::LogLevel::kWarn, "net", "slow request",
             {"endpoint", endpoint->path}, {"status", response.status},
             {"seconds", elapsed});
  } else if (failed) {
    HOPS_LOG(telemetry::LogLevel::kWarn, "net", "server error",
             {"endpoint", endpoint->path}, {"status", response.status});
  }
  return response;
}

HttpResponse EstimateService::Route(const HttpRequest& request,
                                    Endpoint** endpoint) {
  if (request.target == "/metrics") {
    *endpoint = &metrics_;
    telemetry::TraceSpan span(*metrics_.span);
    if (request.method != "GET") return MakeErrorResponse(405, "use GET");
    return HandleMetrics();
  }
  if (request.target == "/metrics.json") {
    *endpoint = &metrics_json_;
    telemetry::TraceSpan span(*metrics_json_.span);
    if (request.method != "GET") return MakeErrorResponse(405, "use GET");
    return HandleMetricsJson();
  }
  if (request.target == "/healthz") {
    *endpoint = &healthz_;
    telemetry::TraceSpan span(*healthz_.span);
    if (request.method != "GET") return MakeErrorResponse(405, "use GET");
    return HandleHealthz();
  }
  if (request.target == "/debug/tracez") {
    *endpoint = &tracez_;
    telemetry::TraceSpan span(*tracez_.span);
    if (request.method != "GET") return MakeErrorResponse(405, "use GET");
    return HandleTracez(options_.recorder != nullptr
                            ? options_.recorder
                            : telemetry::TraceRecorder::Current());
  }
  if (request.target == "/debug/logz") {
    *endpoint = &logz_;
    telemetry::TraceSpan span(*logz_.span);
    if (request.method != "GET") return MakeErrorResponse(405, "use GET");
    return HandleLogz();
  }
  if (request.target == "/debug/columns") {
    *endpoint = &columns_;
    telemetry::TraceSpan span(*columns_.span);
    if (request.method != "GET") return MakeErrorResponse(405, "use GET");
    return HandleColumns();
  }
  if (request.target == "/debug/snapshots") {
    *endpoint = &snapshots_;
    telemetry::TraceSpan span(*snapshots_.span);
    if (request.method != "GET") return MakeErrorResponse(405, "use GET");
    return HandleSnapshots();
  }
  if (request.target == "/debug/wal") {
    *endpoint = &wal_;
    telemetry::TraceSpan span(*wal_.span);
    if (request.method != "GET") return MakeErrorResponse(405, "use GET");
    return HandleWal();
  }
  if (request.target == "/estimate") {
    *endpoint = &estimate_;
    telemetry::TraceSpan span(*estimate_.span);
    if (span.emitting()) {
      span.SetDetail("bytes=" + std::to_string(request.body.size()));
    }
    if (request.method != "POST") return MakeErrorResponse(405, "use POST");
    return HandleEstimate(request);
  }
  if (request.target == "/feedback") {
    *endpoint = &feedback_;
    telemetry::TraceSpan span(*feedback_.span);
    if (request.method != "POST") return MakeErrorResponse(405, "use POST");
    return HandleFeedback(request);
  }
  if (request.target == "/update") {
    *endpoint = &update_;
    telemetry::TraceSpan span(*update_.span);
    if (request.method != "POST") return MakeErrorResponse(405, "use POST");
    return HandleUpdate(request);
  }
  *endpoint = &other_;
  return MakeErrorResponse(404, "unknown endpoint: " + request.target);
}

HttpResponse EstimateService::HandleMetrics() const {
  telemetry::UpdateProcessMetrics(registry_);  // scrape-fresh /proc gauges
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = telemetry::RenderPrometheus(registry_->Collect());
  return response;
}

HttpResponse EstimateService::HandleMetricsJson() const {
  telemetry::UpdateProcessMetrics(registry_);
  HttpResponse response;
  response.body = telemetry::RenderJson(registry_->Collect());
  response.body.push_back('\n');
  return response;
}

HttpResponse EstimateService::HandleHealthz() const {
  // Readiness gates on the first REAL publication, not on snapshot
  // contents: a load balancer must hold traffic while the process is still
  // replaying its WAL or compiling its first catalog, and an intentionally
  // empty catalog is still "ready" once its owner published it.
  const bool ready = options_.store->publish_count() > 0;
  const std::shared_ptr<const CatalogSnapshot> snapshot =
      options_.store->Current();
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("status");
  writer.String(ready ? "ok" : "starting");
  writer.Key("snapshot_version");
  writer.UInt(snapshot->source_version());
  writer.Key("columns");
  writer.UInt(snapshot->num_columns());
  writer.Key("publish_count");
  writer.UInt(options_.store->publish_count());
  const double age = options_.store->seconds_since_publish();
  writer.Key("snapshot_age_seconds");
  if (age < 0) {
    writer.Null();
  } else {
    writer.Double(age);
  }
  if (options_.storage_debug) {
    const WalDebugInfo info = options_.storage_debug();
    if (info.attached) {
      writer.Key("storage");
      writer.BeginObject();
      writer.Key("durability");
      writer.String(info.durability);
      writer.Key("warm_restart");
      writer.Bool(info.warm_restart);
      writer.Key("recovered_snapshot_seq");
      writer.UInt(info.recovered_snapshot_seq);
      writer.Key("replayed_deltas");
      writer.UInt(info.replayed_deltas);
      writer.EndObject();
    }
  }
  writer.EndObject();
  return JsonResponse(ready ? 200 : 503, writer);
}

HttpResponse EstimateService::HandleTracez(
    telemetry::TraceRecorder* recorder) const {
  if (recorder == nullptr) {
    return MakeErrorResponse(503, "no trace recorder installed");
  }
  HttpResponse response;
  response.body = recorder->ExportChromeTrace();
  response.body.push_back('\n');
  return response;
}

HttpResponse EstimateService::HandleLogz() const {
  const telemetry::LogBuffer& buffer = telemetry::LogBuffer::Global();
  const std::vector<std::string> lines = buffer.Snapshot();
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("total");
  writer.UInt(buffer.total_lines());
  writer.Key("lines");
  writer.BeginArray();
  for (const std::string& line : lines) {
    writer.Raw(line);  // each line is already a rendered JSON object
  }
  writer.EndArray();
  writer.EndObject();
  return JsonResponse(200, writer);
}

HttpResponse EstimateService::HandleColumns() const {
  const std::shared_ptr<const CatalogSnapshot> snapshot =
      options_.store->Current();

  // Staleness verdicts join by name: the refresh manager scores its own
  // registered column set, which may lag (or lead) the published snapshot
  // by a tick.
  std::vector<ColumnStalenessReport> staleness;
  std::unordered_map<std::string, const ColumnStalenessReport*> by_name;
  if (options_.updates != nullptr) {
    staleness = options_.updates->ScoreColumns();
    by_name.reserve(staleness.size());
    for (const ColumnStalenessReport& report : staleness) {
      by_name.emplace(report.table + "." + report.column, &report);
    }
  }

  JsonWriter writer;
  writer.BeginObject();
  writer.Key("snapshot_version");
  writer.UInt(snapshot->source_version());
  if (options_.updates != nullptr) {
    writer.Key("histogram_class");
    writer.String(StatisticsHistogramClassToString(
        options_.updates->options().statistics.histogram_class));
    writer.Key("selftune_enabled");
    writer.Bool(options_.updates->options().tuning.enabled);
  }
  writer.Key("columns");
  writer.BeginArray();
  for (ColumnId id = 0; id < snapshot->num_columns(); ++id) {
    const CompiledColumnStats& stats = snapshot->stats(id);
    writer.BeginObject();
    writer.Key("table");
    writer.String(stats.table);
    writer.Key("column");
    writer.String(stats.column);
    writer.Key("num_tuples");
    writer.Double(stats.num_tuples);
    writer.Key("num_distinct");
    writer.UInt(stats.num_distinct);
    if (stats.histogram != nullptr) {
      writer.Key("explicit_entries");
      writer.UInt(stats.histogram->num_explicit());
      writer.Key("histogram_values");
      writer.UInt(stats.histogram->num_values());
    }
    if (const auto it = by_name.find(stats.table + "." + stats.column);
        it != by_name.end()) {
      const ColumnStalenessReport& report = *it->second;
      writer.Key("staleness");
      writer.BeginObject();
      writer.Key("score");
      writer.Double(report.score.total);
      writer.Key("drift_fraction");
      writer.Double(report.score.signals.drift_fraction);
      writer.Key("self_join_relative");
      writer.Double(report.score.signals.self_join_relative);
      writer.Key("feedback_error");
      writer.Double(report.score.signals.feedback_error);
      writer.Key("rebuild_recommended");
      writer.Bool(report.score.rebuild_recommended);
      // True: the error left is one a rebuild cannot lower (no delta or
      // tuning pass changed the column since its build).
      writer.Key("unchanged_since_build");
      writer.Bool(report.score.signals.unchanged_since_build);
      writer.Key("reason");
      writer.String(RebuildReasonToString(report.score.reason));
      writer.Key("deltas_applied");
      writer.UInt(report.deltas_applied);
      writer.Key("rebuilds");
      writer.UInt(report.rebuilds);
      writer.EndObject();
      if (options_.updates != nullptr &&
          options_.updates->options().tuning.enabled) {
        writer.Key("tuning");
        writer.BeginObject();
        writer.Key("observations");
        writer.UInt(report.tuning_observations);
        writer.Key("adjustments");
        writer.UInt(report.tuning_adjustments);
        writer.Key("promotions");
        writer.UInt(report.tuning_promotions);
        writer.Key("recency");
        writer.Double(report.tuning_recency);
        writer.EndObject();
      }
    }
    if (options_.accuracy != nullptr) {
      Result<telemetry::ColumnAccuracy> accuracy =
          options_.accuracy->ColumnReport(stats.table, stats.column);
      if (accuracy.ok()) {
        writer.Key("accuracy");
        writer.BeginObject();
        writer.Key("reports");
        writer.UInt(accuracy->reports);
        writer.Key("underestimates");
        writer.UInt(accuracy->underestimates);
        writer.Key("overestimates");
        writer.UInt(accuracy->overestimates);
        writer.Key("p50_qerror");
        writer.Double(accuracy->p50_qerror);
        writer.Key("p95_qerror");
        writer.Double(accuracy->p95_qerror);
        writer.Key("p99_qerror");
        writer.Double(accuracy->p99_qerror);
        writer.Key("max_qerror");
        writer.Double(accuracy->max_qerror);
        writer.EndObject();
      }
    }
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  return JsonResponse(200, writer);
}

HttpResponse EstimateService::HandleSnapshots() const {
  const std::shared_ptr<const CatalogSnapshot> snapshot =
      options_.store->Current();
  // The estimate-cache counters live in the process-wide registry (the
  // serving layer's EstimateBatch records there unconditionally); reading
  // them through GetCounter with the exact name+help either finds the live
  // counters or creates zeroed ones — same answer either way.
  telemetry::MetricRegistry& global = telemetry::MetricRegistry::Global();
  const uint64_t hits =
      global
          .GetCounter(
              "hops_estimate_cache_hits_total",
              "EstimateBatch specs served from the snapshot estimate cache.")
          ->Value();
  const uint64_t misses =
      global
          .GetCounter(
              "hops_estimate_cache_misses_total",
              "EstimateBatch cache lookups that fell through to computation.")
          ->Value();

  JsonWriter writer;
  writer.BeginObject();
  writer.Key("snapshot_version");
  writer.UInt(snapshot->source_version());
  writer.Key("columns");
  writer.UInt(snapshot->num_columns());
  writer.Key("publish_count");
  writer.UInt(options_.store->publish_count());
  const double age = options_.store->seconds_since_publish();
  writer.Key("seconds_since_publish");
  if (age < 0) {
    writer.Null();
  } else {
    writer.Double(age);
  }
  writer.Key("estimate_cache");
  writer.BeginObject();
  writer.Key("capacity");
  writer.UInt(snapshot->estimate_cache().capacity());
  writer.Key("hits");
  writer.UInt(hits);
  writer.Key("misses");
  writer.UInt(misses);
  writer.Key("hit_rate");
  writer.Double(hits + misses > 0
                    ? static_cast<double>(hits) /
                          static_cast<double>(hits + misses)
                    : 0.0);
  writer.EndObject();
  writer.EndObject();
  return JsonResponse(200, writer);
}

HttpResponse EstimateService::HandleWal() const {
  JsonWriter writer;
  writer.BeginObject();
  if (!options_.storage_debug) {
    writer.Key("attached");
    writer.Bool(false);
    writer.EndObject();
    return JsonResponse(200, writer);
  }
  const WalDebugInfo info = options_.storage_debug();
  writer.Key("attached");
  writer.Bool(info.attached);
  if (info.attached) {
    writer.Key("durability");
    writer.String(info.durability);
    writer.Key("warm_restart");
    writer.Bool(info.warm_restart);
    writer.Key("recovered_snapshot_seq");
    writer.UInt(info.recovered_snapshot_seq);
    writer.Key("recovered_high_water");
    writer.UInt(info.recovered_high_water);
    writer.Key("replayed_deltas");
    writer.UInt(info.replayed_deltas);
    writer.Key("replayed_registrations");
    writer.UInt(info.replayed_registrations);
    writer.Key("next_lsn");
    writer.UInt(info.next_lsn);
    writer.Key("records_appended");
    writer.UInt(info.records_appended);
    writer.Key("bytes_appended");
    writer.UInt(info.bytes_appended);
    writer.Key("fsyncs");
    writer.UInt(info.fsyncs);
    writer.Key("writeback_kicks");
    writer.UInt(info.writeback_kicks);
    writer.Key("segments_created");
    writer.UInt(info.segments_created);
    writer.Key("segments_retired");
    writer.UInt(info.segments_retired);
  }
  writer.EndObject();
  return JsonResponse(200, writer);
}

Result<EstimateSpec> EstimateService::ParseSpec(
    const JsonValue& value, const CatalogSnapshot& snapshot) const {
  if (!value.is_object()) {
    return Status::InvalidArgument("spec must be an object");
  }
  HOPS_ASSIGN_OR_RETURN(std::string kind, value.GetString("kind"));

  if (kind == "equality" || kind == "not_equals") {
    HOPS_ASSIGN_OR_RETURN(std::string table, value.GetString("table"));
    HOPS_ASSIGN_OR_RETURN(std::string column, value.GetString("column"));
    HOPS_ASSIGN_OR_RETURN(ColumnId id, snapshot.Resolve(table, column));
    const JsonValue* literal = value.Find("value");
    if (literal == nullptr) {
      return Status::InvalidArgument("spec missing key: value");
    }
    HOPS_ASSIGN_OR_RETURN(Value parsed, ParseValueLiteral(*literal));
    return kind == "equality" ? EstimateSpec::Equality(id, std::move(parsed))
                              : EstimateSpec::NotEquals(id, std::move(parsed));
  }

  if (kind == "in") {
    HOPS_ASSIGN_OR_RETURN(std::string table, value.GetString("table"));
    HOPS_ASSIGN_OR_RETURN(std::string column, value.GetString("column"));
    HOPS_ASSIGN_OR_RETURN(ColumnId id, snapshot.Resolve(table, column));
    const JsonValue* values = value.Find("values");
    if (values == nullptr || !values->is_array()) {
      return Status::InvalidArgument("in spec needs a \"values\" array");
    }
    std::vector<Value> in_list;
    in_list.reserve(values->AsArray().size());
    for (const JsonValue& element : values->AsArray()) {
      HOPS_ASSIGN_OR_RETURN(Value parsed, ParseValueLiteral(element));
      in_list.push_back(std::move(parsed));
    }
    return EstimateSpec::In(id, std::move(in_list));
  }

  if (kind == "range") {
    HOPS_ASSIGN_OR_RETURN(std::string table, value.GetString("table"));
    HOPS_ASSIGN_OR_RETURN(std::string column, value.GetString("column"));
    HOPS_ASSIGN_OR_RETURN(ColumnId id, snapshot.Resolve(table, column));
    RangeBounds bounds;
    HOPS_ASSIGN_OR_RETURN(bounds.low, value.GetInt("low"));
    HOPS_ASSIGN_OR_RETURN(bounds.high, value.GetInt("high"));
    if (value.Find("include_low") != nullptr) {
      HOPS_ASSIGN_OR_RETURN(bounds.include_low, value.GetBool("include_low"));
    }
    if (value.Find("include_high") != nullptr) {
      HOPS_ASSIGN_OR_RETURN(bounds.include_high,
                            value.GetBool("include_high"));
    }
    return EstimateSpec::Range(id, bounds);
  }

  if (kind == "join") {
    const JsonValue* left = value.Find("left");
    const JsonValue* right = value.Find("right");
    if (left == nullptr || right == nullptr) {
      return Status::InvalidArgument("join spec needs \"left\" and \"right\"");
    }
    HOPS_ASSIGN_OR_RETURN(ColumnId left_id, ResolveRef(*left, snapshot));
    HOPS_ASSIGN_OR_RETURN(ColumnId right_id, ResolveRef(*right, snapshot));
    return EstimateSpec::Join(left_id, right_id);
  }

  if (kind == "chain") {
    const JsonValue* steps = value.Find("steps");
    if (steps == nullptr || !steps->is_array()) {
      return Status::InvalidArgument("chain spec needs a \"steps\" array");
    }
    std::vector<SnapshotChainStep> chain;
    chain.reserve(steps->AsArray().size());
    for (const JsonValue& step : steps->AsArray()) {
      if (!step.is_object()) {
        return Status::InvalidArgument("chain step must be an object");
      }
      const JsonValue* left = step.Find("left");
      const JsonValue* right = step.Find("right");
      if (left == nullptr || right == nullptr) {
        return Status::InvalidArgument(
            "chain step needs \"left\" and \"right\"");
      }
      SnapshotChainStep resolved;
      HOPS_ASSIGN_OR_RETURN(resolved.left, ResolveRef(*left, snapshot));
      HOPS_ASSIGN_OR_RETURN(resolved.right, ResolveRef(*right, snapshot));
      chain.push_back(resolved);
    }
    return EstimateSpec::Chain(std::move(chain));
  }

  return Status::InvalidArgument("unknown spec kind: " + kind);
}

HttpResponse EstimateService::HandleEstimate(const HttpRequest& request) {
  // Content-Type negotiation: the binary framing shares the endpoint (and
  // its metrics/span identity) with the JSON one.
  const std::string* content_type = request.FindHeader("Content-Type");
  if (content_type != nullptr &&
      std::string_view(*content_type).starts_with(kBatchContentType)) {
    return HandleEstimateBinary(request);
  }
  Result<JsonValue> document = ParseJson(request.body);
  if (!document.ok()) {
    return MakeErrorResponse(400, document.status().message());
  }
  const JsonValue* specs_json = document->Find("specs");
  if (specs_json == nullptr || !specs_json->is_array()) {
    return MakeErrorResponse(400, "body needs a \"specs\" array");
  }
  const JsonValue::Array& entries = specs_json->AsArray();
  if (entries.size() > options_.max_specs_per_request) {
    return MakeErrorResponse(413, "too many specs in one request");
  }

  // One snapshot read covers the whole batch: every estimate (and the
  // reported version) sees a single consistent statistics version even if
  // the refresh daemon republishes mid-request.
  const std::shared_ptr<const CatalogSnapshot> snapshot =
      options_.store->Current();

  // Decode failures keep their slot so results align with request specs.
  std::vector<EstimateSpec> specs;
  specs.reserve(entries.size());
  std::vector<std::pair<size_t, std::string>> decode_errors;
  std::vector<size_t> spec_slot(entries.size(), SIZE_MAX);
  for (size_t i = 0; i < entries.size(); ++i) {
    Result<EstimateSpec> spec = ParseSpec(entries[i], *snapshot);
    if (!spec.ok()) {
      decode_errors.emplace_back(i, std::string(spec.status().message()));
      continue;
    }
    spec_slot[i] = specs.size();
    specs.push_back(std::move(spec).ValueOrDie());
  }

  const std::vector<Result<double>> results =
      EstimateBatch(*snapshot, specs, options_.pool);

  JsonWriter writer;
  writer.BeginObject();
  writer.Key("snapshot_version");
  writer.UInt(snapshot->source_version());
  writer.Key("results");
  writer.BeginArray();
  size_t next_decode_error = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    writer.BeginObject();
    if (spec_slot[i] == SIZE_MAX) {
      writer.Key("error");
      writer.String(decode_errors[next_decode_error++].second);
    } else {
      const Result<double>& result = results[spec_slot[i]];
      if (result.ok()) {
        writer.Key("estimate");
        writer.Double(result.ValueOrDie());  // %.17g: round-trips bit-identically
      } else {
        writer.Key("error");
        writer.String(std::string(result.status().message()));
      }
    }
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  return JsonResponse(200, writer);
}

HttpResponse EstimateService::HandleEstimateBinary(const HttpRequest& request) {
  Result<std::vector<WireSpec>> decoded = DecodeBatchRequest(request.body);
  if (!decoded.ok()) {
    // Structural failures speak JSON: a client broken enough to send a bad
    // frame needs a readable error, and the 400 status already signals the
    // body is not a response frame.
    return MakeErrorResponse(400, decoded.status().message());
  }
  const std::vector<WireSpec>& wire_specs = *decoded;
  if (wire_specs.size() > options_.max_specs_per_request) {
    return MakeErrorResponse(413, "too many specs in one request");
  }

  const std::shared_ptr<const CatalogSnapshot> snapshot =
      options_.store->Current();

  // Same slot-alignment contract as the JSON path: resolution failures keep
  // their result record, flagged kUnknownColumn.
  std::vector<EstimateSpec> specs;
  specs.reserve(wire_specs.size());
  std::vector<WireResult> records(wire_specs.size());
  std::vector<size_t> spec_slot(wire_specs.size(), SIZE_MAX);
  for (size_t i = 0; i < wire_specs.size(); ++i) {
    const WireSpec& wire = wire_specs[i];
    Result<EstimateSpec> resolved = [&]() -> Result<EstimateSpec> {
      switch (wire.kind) {
        case WireSpec::Kind::kEquality:
        case WireSpec::Kind::kNotEquals: {
          HOPS_ASSIGN_OR_RETURN(ColumnId id,
                                snapshot->Resolve(wire.table, wire.column));
          Value literal = wire.value_is_string ? Value(wire.value_string)
                                               : Value(wire.a);
          return wire.kind == WireSpec::Kind::kEquality
                     ? EstimateSpec::Equality(id, std::move(literal))
                     : EstimateSpec::NotEquals(id, std::move(literal));
        }
        case WireSpec::Kind::kRange: {
          HOPS_ASSIGN_OR_RETURN(ColumnId id,
                                snapshot->Resolve(wire.table, wire.column));
          return EstimateSpec::Range(
              id, RangeBounds{wire.a, wire.b, wire.include_low,
                              wire.include_high});
        }
        case WireSpec::Kind::kJoin: {
          HOPS_ASSIGN_OR_RETURN(ColumnId left,
                                snapshot->Resolve(wire.table, wire.column));
          HOPS_ASSIGN_OR_RETURN(
              ColumnId right,
              snapshot->Resolve(wire.right_table, wire.right_column));
          return EstimateSpec::Join(left, right);
        }
      }
      return Status::InvalidArgument("unreachable: decoder rejects the kind");
    }();
    if (!resolved.ok()) {
      records[i].status = WireStatus::kUnknownColumn;
      continue;
    }
    spec_slot[i] = specs.size();
    specs.push_back(std::move(resolved).ValueOrDie());
  }

  const std::vector<Result<double>> results =
      EstimateBatch(*snapshot, specs, options_.pool);
  for (size_t i = 0; i < wire_specs.size(); ++i) {
    if (spec_slot[i] == SIZE_MAX) continue;
    const Result<double>& result = results[spec_slot[i]];
    if (result.ok()) {
      records[i].estimate = result.ValueOrDie();  // raw bits: bit-identical
    } else {
      records[i].status = WireStatus::kEstimateFailed;
    }
  }

  HttpResponse response;
  response.content_type = std::string(kBatchContentType);
  response.body = EncodeBatchResponse(snapshot->source_version(), records);
  return response;
}

HttpResponse EstimateService::HandleFeedback(const HttpRequest& request) {
  if (options_.feedback == nullptr) {
    return MakeErrorResponse(503, "no feedback sink configured");
  }
  Result<JsonValue> document = ParseJson(request.body);
  if (!document.ok()) {
    return MakeErrorResponse(400, document.status().message());
  }
  const JsonValue* reports = document->Find("reports");
  if (reports == nullptr || !reports->is_array()) {
    return MakeErrorResponse(400, "body needs a \"reports\" array");
  }
  if (reports->AsArray().size() > options_.max_specs_per_request) {
    return MakeErrorResponse(413, "too many reports in one request");
  }

  const std::shared_ptr<const CatalogSnapshot> snapshot =
      options_.store->Current();

  // Batch semantics mirror /estimate: each report is its own slot. A bad
  // record (malformed spec, unknown column, non-finite or negative
  // magnitudes) rejects that slot only — every valid record is still
  // applied, and the response reports both aggregate counts and the
  // per-slot status so clients can retry exactly the failed indices.
  size_t accepted = 0;
  const JsonValue::Array& entries = reports->AsArray();
  std::vector<Status> slot_status;
  slot_status.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    const JsonValue& entry = entries[i];
    Status status = [&]() -> Status {
      HOPS_ASSIGN_OR_RETURN(EstimateSpec spec, ParseSpec(entry, *snapshot));
      HOPS_ASSIGN_OR_RETURN(double estimated, entry.GetNumber("estimated"));
      HOPS_ASSIGN_OR_RETURN(double actual, entry.GetNumber("actual"));
      return ReportEstimateOutcome(*snapshot, spec, estimated, actual,
                                   options_.feedback);
    }();
    if (status.ok()) ++accepted;
    slot_status.push_back(std::move(status));
  }

  JsonWriter writer;
  writer.BeginObject();
  writer.Key("accepted");
  writer.UInt(accepted);
  writer.Key("rejected");
  writer.UInt(entries.size() - accepted);
  writer.Key("results");
  writer.BeginArray();
  for (const Status& status : slot_status) {
    writer.BeginObject();
    writer.Key("ok");
    writer.Bool(status.ok());
    if (!status.ok()) {
      writer.Key("error");
      writer.String(std::string(status.message()));
    }
    writer.EndObject();
  }
  writer.EndArray();
  if (accepted < slot_status.size()) {
    writer.Key("errors");
    writer.BeginArray();
    for (size_t i = 0; i < slot_status.size(); ++i) {
      if (slot_status[i].ok()) continue;
      writer.BeginObject();
      writer.Key("index");
      writer.UInt(i);
      writer.Key("error");
      writer.String(std::string(slot_status[i].message()));
      writer.EndObject();
    }
    writer.EndArray();
  }
  writer.EndObject();
  return JsonResponse(200, writer);
}

HttpResponse EstimateService::HandleUpdate(const HttpRequest& request) {
  if (options_.updates == nullptr) {
    return MakeErrorResponse(503, "no refresh manager configured");
  }
  Result<JsonValue> document = ParseJson(request.body);
  if (!document.ok()) {
    return MakeErrorResponse(400, document.status().message());
  }
  const JsonValue* updates = document->Find("updates");
  if (updates == nullptr || !updates->is_array()) {
    return MakeErrorResponse(400, "body needs an \"updates\" array");
  }
  const JsonValue::Array& entries = updates->AsArray();
  if (entries.size() > options_.max_specs_per_request) {
    return MakeErrorResponse(413, "too many updates in one request");
  }

  // Decode the WHOLE request before admitting anything: the batch goes
  // through one RecordBatch call, so either every delta is accepted (and,
  // with durable storage attached, persisted) or none are. A malformed
  // entry therefore 400s without side effects.
  std::vector<UpdateRecord> records;
  records.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    const JsonValue& entry = entries[i];
    Status status = [&]() -> Status {
      if (!entry.is_object()) {
        return Status::InvalidArgument("update must be an object");
      }
      HOPS_ASSIGN_OR_RETURN(std::string table, entry.GetString("table"));
      HOPS_ASSIGN_OR_RETURN(std::string column, entry.GetString("column"));
      HOPS_ASSIGN_OR_RETURN(RefreshColumnId id,
                            options_.updates->Lookup(table, column));
      const JsonValue* value = entry.Find("value");
      if (value == nullptr || !value->is_integer()) {
        return Status::InvalidArgument("update needs an integer \"value\"");
      }
      UpdateRecord record;
      record.column = id;
      record.value = value->AsInt64();
      if (const JsonValue* weight = entry.Find("weight"); weight != nullptr) {
        HOPS_ASSIGN_OR_RETURN(record.weight, entry.GetNumber("weight"));
      }
      records.push_back(record);
      return Status::OK();
    }();
    if (!status.ok()) {
      return MakeErrorResponse(400, "update " + std::to_string(i) + ": " +
                                        std::string(status.message()));
    }
  }

  const Status admitted = options_.updates->RecordBatch(records);
  if (!admitted.ok()) {
    // Refused by the durability hook (e.g. a full disk): nothing from this
    // request was applied, and the client should retry elsewhere.
    return MakeErrorResponse(503, std::string(admitted.message()));
  }

  JsonWriter writer;
  writer.BeginObject();
  writer.Key("accepted");
  writer.UInt(records.size());
  writer.EndObject();
  return JsonResponse(200, writer);
}

}  // namespace hops::net
