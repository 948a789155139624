// Endpoint routing and JSON decoding (net/estimate_service.h).

#include "net/estimate_service.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <span>
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

/// Entries per /estimate, /feedback or /update request; a larger batch is
/// refused with 413 before any work is done.
constexpr size_t kMaxBatchEntries = 4096;

Status CheckBatchSize(size_t entries, std::string_view noun) {
  if (entries <= kMaxBatchEntries) return Status::OK();
  return Status::ResourceExhausted("too many " + std::string(noun) +
                                   " in one request");
}

/// A request refused as a whole: 413 for an oversized batch, 400 for a
/// body that does not decode.
HttpResponse Refusal(const Status& status) {
  return MakeErrorResponse(status.IsResourceExhausted() ? 413 : 400,
                           status.message());
}

/// The head /estimate, /feedback and /update share: parses \p body into
/// \p document and points \p entries at its top-level \p key array.
Status ParseBatch(std::string_view body, std::string_view key,
                  JsonValue* document, std::span<const JsonValue>* entries) {
  HOPS_ASSIGN_OR_RETURN(*document, ParseJson(body));
  const JsonValue* array = document->Find(key);
  if (array == nullptr || !array->is_array()) {
    const bool vowel = std::string_view("aeiou").find(key.front()) !=
                       std::string_view::npos;
    return Status::InvalidArgument("body needs " +
                                   std::string(vowel ? "an" : "a") + " \"" +
                                   std::string(key) + "\" array");
  }
  *entries = array->AsArray();
  return CheckBatchSize(entries->size(), key);
}

/// The binary framing's decode step. Structural failures answer in JSON: a
/// client broken enough to send a bad frame needs a readable error, and
/// the 400 status already says the body is not a response frame.
Status DecodeFrame(std::string_view body, std::vector<WireSpec>* specs) {
  HOPS_ASSIGN_OR_RETURN(*specs, DecodeBatchRequest(body));
  return CheckBatchSize(specs->size(), "specs");
}

/// Decodes one JSON spec object against \p snapshot (names → dense ids).
Result<EstimateSpec> ParseSpec(const JsonValue& value,
                               const CatalogSnapshot& snapshot) {
  if (!value.is_object()) {
    return Status::InvalidArgument("spec must be an object");
  }
  HOPS_ASSIGN_OR_RETURN(std::string kind, value.GetString("kind"));

  if (kind == "equality" || kind == "not_equals") {
    HOPS_ASSIGN_OR_RETURN(ColumnId id, ResolveRef(value, snapshot));
    const JsonValue* literal = value.Find("value");
    if (literal == nullptr) {
      return Status::InvalidArgument("spec missing key: value");
    }
    HOPS_ASSIGN_OR_RETURN(Value parsed, ParseValueLiteral(*literal));
    return kind == "equality" ? EstimateSpec::Equality(id, std::move(parsed))
                              : EstimateSpec::NotEquals(id, std::move(parsed));
  }

  if (kind == "in") {
    HOPS_ASSIGN_OR_RETURN(ColumnId id, ResolveRef(value, snapshot));
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
    HOPS_ASSIGN_OR_RETURN(ColumnId id, ResolveRef(value, snapshot));
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

/// Resolves one binary-framed spec against \p snapshot. The decoder has
/// already rejected malformed records, so only a name can fail here.
Result<EstimateSpec> ResolveWireSpec(const WireSpec& wire,
                                     const CatalogSnapshot& snapshot) {
  HOPS_ASSIGN_OR_RETURN(ColumnId id, snapshot.Resolve(wire.table, wire.column));
  switch (wire.kind) {
    case WireSpec::Kind::kEquality:
    case WireSpec::Kind::kNotEquals: {
      Value literal =
          wire.value_is_string ? Value(wire.value_string) : Value(wire.a);
      return wire.kind == WireSpec::Kind::kEquality
                 ? EstimateSpec::Equality(id, std::move(literal))
                 : EstimateSpec::NotEquals(id, std::move(literal));
    }
    case WireSpec::Kind::kRange:
      return EstimateSpec::Range(
          id, RangeBounds{wire.a, wire.b, wire.include_low, wire.include_high});
    case WireSpec::Kind::kJoin: {
      HOPS_ASSIGN_OR_RETURN(
          ColumnId right,
          snapshot.Resolve(wire.right_table, wire.right_column));
      return EstimateSpec::Join(id, right);
    }
  }
  return Status::InvalidArgument("unreachable: decoder rejects the kind");
}

/// One request entry's place in an /estimate batch: the index of its
/// resolved spec, or the reason it did not resolve.
using Slot = Result<size_t>;

/// {"snapshot_version", "results": [{"estimate" | "error"}]}, one result
/// per slot. Estimates render with %.17g, so they round-trip bit-identically.
HttpResponse EncodeJson(uint64_t snapshot_version, std::span<const Slot> slots,
                        std::span<const Result<double>> results) {
  JsonWriter writer;
  writer.BeginObject();
  writer.Key("snapshot_version");
  writer.UInt(snapshot_version);
  writer.Key("results");
  writer.BeginArray();
  for (const Slot& slot : slots) {
    const Result<double>* result = slot.ok() ? &results[*slot] : nullptr;
    writer.BeginObject();
    if (result != nullptr && result->ok()) {
      writer.Key("estimate");
      writer.Double(**result);
    } else {
      writer.Key("error");
      writer.String((result != nullptr ? result->status() : slot.status())
                        .message());
    }
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  return JsonResponse(200, writer);
}

/// The binary response frame: raw doubles, so estimates are bit-identical
/// by construction. A slot that did not resolve is kUnknownColumn; one the
/// estimator rejected is kEstimateFailed.
HttpResponse EncodeFrame(uint64_t snapshot_version,
                         std::span<const Slot> slots,
                         std::span<const Result<double>> results) {
  std::vector<WireResult> records(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i].ok()) {
      records[i].status = WireStatus::kUnknownColumn;
    } else if (const Result<double>& result = results[*slots[i]];
               result.ok()) {
      records[i].estimate = *result;
    } else {
      records[i].status = WireStatus::kEstimateFailed;
    }
  }
  HttpResponse response;
  response.content_type = std::string(kBatchContentType);
  response.body = EncodeBatchResponse(snapshot_version, records);
  return response;
}

}  // namespace

EstimateService::EstimateService(EstimateServiceOptions options)
    : options_(options),
      registry_(options.registry != nullptr
                    ? options.registry
                    : &telemetry::MetricRegistry::Global()),
      endpoints_{
          MakeEndpoint("/metrics", "GET", &EstimateService::HandleMetrics),
          MakeEndpoint("/metrics.json", "GET",
                       &EstimateService::HandleMetricsJson),
          MakeEndpoint("/healthz", "GET", &EstimateService::HandleHealthz),
          MakeEndpoint("/estimate", "POST", &EstimateService::HandleEstimate),
          MakeEndpoint("/feedback", "POST", &EstimateService::HandleFeedback),
          MakeEndpoint("/update", "POST", &EstimateService::HandleUpdate),
          MakeEndpoint("/debug/tracez", "GET",
                       &EstimateService::HandleTracez),
          MakeEndpoint("/debug/logz", "GET", &EstimateService::HandleLogz),
          MakeEndpoint("/debug/columns", "GET",
                       &EstimateService::HandleColumns),
          MakeEndpoint("/debug/snapshots", "GET",
                       &EstimateService::HandleSnapshots),
          MakeEndpoint("/debug/wal", "GET", &EstimateService::HandleWal),
      },
      other_(MakeEndpoint("other", "", nullptr)) {}

EstimateService::Endpoint EstimateService::MakeEndpoint(std::string path,
                                                        std::string method,
                                                        Handler handler) {
  Endpoint endpoint;
  endpoint.latency = registry_->GetHistogram(
      "hops_http_request_seconds", "Request handling latency by endpoint",
      telemetry::LogBucketSpec::Latency(), {{"endpoint", path}});
  endpoint.span =
      &telemetry::GetSpanSite("Net.Request", {{"endpoint", path}}, registry_);
  endpoint.path = std::move(path);
  endpoint.method = std::move(method);
  endpoint.handler = handler;
  return endpoint;
}

telemetry::TraceRecorder* EstimateService::recorder() const {
  return options_.recorder != nullptr ? options_.recorder
                                      : telemetry::TraceRecorder::Current();
}

void EstimateService::CountRequest(const std::string& endpoint, int status) {
  registry_
      ->GetCounter("hops_http_requests_total",
                   "HTTP requests by endpoint and status code",
                   {{"endpoint", endpoint}, {"code", std::to_string(status)}})
      ->Increment();
}

HttpResponse EstimateService::Handle(const HttpRequest& request) {
  const Endpoint* endpoint = &other_;
  const int64_t start_nanos = NowNanos();

  // Trace ingress (DESIGN.md §14): adopt the client's traceparent or mint
  // a fresh context, decide sampling ONCE (deterministic in the trace id;
  // an explicit incoming sampled flag forces recording), and install the
  // context for the request's dynamic extent so every span below joins
  // this request's tree.
  telemetry::TraceRecorder* recorder = this->recorder();
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
                                    const Endpoint** endpoint) const {
  for (const Endpoint& route : endpoints_) {
    if (request.target != route.path) continue;
    *endpoint = &route;
    telemetry::TraceSpan span(*route.span);
    if (span.emitting() && route.method == "POST") {
      span.SetDetail("bytes=" + std::to_string(request.body.size()));
    }
    if (request.method != route.method) {
      return MakeErrorResponse(405, "use " + route.method);
    }
    return (this->*route.handler)(request);
  }
  return MakeErrorResponse(404, "unknown endpoint: " + request.target);
}

HttpResponse EstimateService::HandleMetrics(const HttpRequest&) const {
  telemetry::UpdateProcessMetrics(registry_);  // scrape-fresh /proc gauges
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = telemetry::RenderPrometheus(registry_->Collect());
  return response;
}

HttpResponse EstimateService::HandleMetricsJson(const HttpRequest&) const {
  telemetry::UpdateProcessMetrics(registry_);
  HttpResponse response;
  response.body = telemetry::RenderJson(registry_->Collect());
  response.body.push_back('\n');
  return response;
}

HttpResponse EstimateService::HandleHealthz(const HttpRequest&) const {
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

HttpResponse EstimateService::HandleTracez(const HttpRequest&) const {
  telemetry::TraceRecorder* recorder = this->recorder();
  if (recorder == nullptr) {
    return MakeErrorResponse(503, "no trace recorder installed");
  }
  HttpResponse response;
  response.body = recorder->ExportChromeTrace();
  response.body.push_back('\n');
  return response;
}

HttpResponse EstimateService::HandleLogz(const HttpRequest&) const {
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

HttpResponse EstimateService::HandleColumns(const HttpRequest&) const {
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

HttpResponse EstimateService::HandleSnapshots(const HttpRequest&) const {
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

HttpResponse EstimateService::HandleWal(const HttpRequest&) const {
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

HttpResponse EstimateService::HandleEstimate(
    const HttpRequest& request) const {
  // Decode: the names each slot carries, from whichever framing the
  // Content-Type names. A body that does not decode, or one past
  // kMaxBatchEntries, is refused as a whole.
  const std::string* content_type = request.FindHeader("Content-Type");
  const bool binary =
      content_type != nullptr &&
      std::string_view(*content_type).starts_with(kBatchContentType);
  JsonValue document;
  std::span<const JsonValue> json_specs;
  std::vector<WireSpec> wire_specs;
  const Status decoded =
      binary ? DecodeFrame(request.body, &wire_specs)
             : ParseBatch(request.body, "specs", &document, &json_specs);
  if (!decoded.ok()) return Refusal(decoded);
  const size_t count = binary ? wire_specs.size() : json_specs.size();

  // One snapshot read covers the whole batch: every estimate (and the
  // reported version) sees a single consistent statistics version even if
  // the refresh daemon republishes mid-request.
  const std::shared_ptr<const CatalogSnapshot> snapshot =
      options_.store->Current();

  // Resolve each slot with its framing's resolver. A slot that fails keeps
  // its place, so results align with the request's entries.
  std::vector<EstimateSpec> specs;
  specs.reserve(count);
  std::vector<Slot> slots;
  slots.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Result<EstimateSpec> spec =
        binary ? ResolveWireSpec(wire_specs[i], *snapshot)
               : ParseSpec(json_specs[i], *snapshot);
    if (!spec.ok()) {
      slots.emplace_back(std::move(spec).status());
      continue;
    }
    slots.emplace_back(specs.size());
    specs.push_back(std::move(spec).ValueOrDie());
  }

  const std::vector<Result<double>> results =
      EstimateBatch(*snapshot, specs);

  return binary ? EncodeFrame(snapshot->source_version(), slots, results)
                : EncodeJson(snapshot->source_version(), slots, results);
}

HttpResponse EstimateService::HandleFeedback(
    const HttpRequest& request) const {
  if (options_.feedback == nullptr) {
    return MakeErrorResponse(503, "no feedback sink configured");
  }
  JsonValue document;
  std::span<const JsonValue> entries;
  if (const Status parsed =
          ParseBatch(request.body, "reports", &document, &entries);
      !parsed.ok()) {
    return Refusal(parsed);
  }

  const std::shared_ptr<const CatalogSnapshot> snapshot =
      options_.store->Current();

  // Batch semantics mirror /estimate: each report is its own slot. A bad
  // record (malformed spec, unknown column, non-finite or negative
  // magnitudes) rejects that slot only — every valid record is still
  // applied, and the response reports both aggregate counts and the
  // per-slot status so clients can retry exactly the failed indices.
  size_t accepted = 0;
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
      writer.String(status.message());
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
      writer.String(slot_status[i].message());
      writer.EndObject();
    }
    writer.EndArray();
  }
  writer.EndObject();
  return JsonResponse(200, writer);
}

HttpResponse EstimateService::HandleUpdate(
    const HttpRequest& request) const {
  if (options_.updates == nullptr) {
    return MakeErrorResponse(503, "no refresh manager configured");
  }
  JsonValue document;
  std::span<const JsonValue> entries;
  if (const Status parsed =
          ParseBatch(request.body, "updates", &document, &entries);
      !parsed.ok()) {
    return Refusal(parsed);
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
      return MakeErrorResponse(
          400, "update " + std::to_string(i) + ": " + status.message());
    }
  }

  const Status admitted = options_.updates->RecordBatch(records);
  if (!admitted.ok()) {
    // Nothing from this request was admitted. A weight outside
    // kMaxDeltaWeight is the client's error ("update <i>: ..."); a refusal
    // by the durability hook (e.g. a full disk) means retry elsewhere.
    return MakeErrorResponse(admitted.IsInvalidArgument() ? 400 : 503,
                             admitted.message());
  }

  JsonWriter writer;
  writer.BeginObject();
  writer.Key("accepted");
  writer.UInt(records.size());
  writer.EndObject();
  return JsonResponse(200, writer);
}

}  // namespace hops::net
