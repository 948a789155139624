// Golden tests for the observability surface (DESIGN.md §14): trace
// ingress/echo over real sockets with the span tree asserted from
// GET /debug/tracez, plus /debug/logz, /debug/columns, /debug/snapshots,
// /debug/wal, tail-keep, and the /healthz readiness gate.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/statistics.h"
#include "net/estimate_service.h"
#include "net/server.h"
#include "refresh/refresh_manager.h"
#include "telemetry/log.h"
#include "telemetry/trace_recorder.h"
#include "util/json.h"

namespace hops::net {
namespace {

// Blocking client that keeps the response headers (the trace-id echo is a
// header; net_server_test's client discards them).
class HeaderClient {
 public:
  explicit HeaderClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }

  ~HeaderClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  /// Writes \p wire, reads one response. \p headers receives everything
  /// between the status line and the blank line.
  bool Request(const std::string& wire, std::string* status_line,
               std::string* headers, std::string* body) {
    size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    std::string buffer;
    size_t header_end = std::string::npos;
    while ((header_end = buffer.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill(&buffer)) return false;
    }
    const std::string head = buffer.substr(0, header_end + 4);
    const size_t line_end = head.find("\r\n");
    *status_line = head.substr(0, line_end);
    *headers = head.substr(line_end + 2, header_end + 2 - (line_end + 2));
    const char* key = "Content-Length: ";
    const size_t pos = head.find(key);
    if (pos == std::string::npos) return false;
    const size_t content_length = static_cast<size_t>(
        std::strtoull(head.c_str() + pos + std::strlen(key), nullptr, 10));
    std::string rest = buffer.substr(header_end + 4);
    while (rest.size() < content_length) {
      if (!Fill(&rest)) return false;
    }
    *body = rest.substr(0, content_length);
    return true;
  }

 private:
  bool Fill(std::string* buffer) {
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
};

std::string Post(const std::string& target, const std::string& body,
                 const std::string& extra_headers = {}) {
  return "POST " + target + " HTTP/1.1\r\nHost: t\r\n" + extra_headers +
         "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string Get(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n";
}

// Serving fixture with tracing wired the way serve_estimates wires it: a
// process-wide recorder (spans capture TraceRecorder::Current()) that
// never head-samples, so ONLY requests carrying an explicit sampled
// traceparent record — each test starts from an empty, deterministic ring.
class DebugEndpointsTest : public ::testing::Test {
 protected:
  DebugEndpointsTest()
      : recorder_(telemetry::TraceRecorder::Options{.ring_capacity = 256,
                                                    .sample_one_in = 0}) {}

  void SetUp() override {
    telemetry::TraceRecorder::Install(&recorder_);
    RefreshOptions options;
    options.statistics.num_buckets = 8;
    manager_ = std::make_unique<RefreshManager>(&catalog_, &store_, options);
    std::vector<int64_t> values;
    std::vector<double> uniform, skewed;
    for (int64_t v = 0; v < 40; ++v) {
      values.push_back(v);
      uniform.push_back(25.0);
      skewed.push_back(static_cast<double>(v + 1));
    }
    manager_->RegisterColumn("orders", "customer_id", values, uniform)
        .status()
        .Check();
    manager_->RegisterColumn("orders", "item_id", values, skewed)
        .status()
        .Check();

    EstimateServiceOptions service_options;
    service_options.store = &store_;
    service_options.updates = manager_.get();
    service_options.registry = &registry_;
    service_options.recorder = &recorder_;
    service_ = std::make_unique<EstimateService>(service_options);

    HttpServerOptions server_options;
    server_options.num_workers = 2;
    server_options.registry = &registry_;
    server_ = std::make_unique<HttpServer>(service_->AsHandler(),
                                           server_options);
    server_->Start().Check();
  }

  void TearDown() override { server_->Shutdown().Check(); }

  uint16_t port() const { return server_->port(); }

  telemetry::TraceRecorder recorder_;  // dtor CAS-uninstalls itself
  Catalog catalog_;
  SnapshotStore store_;
  std::unique_ptr<RefreshManager> manager_;
  telemetry::MetricRegistry registry_;
  std::unique_ptr<EstimateService> service_;
  std::unique_ptr<HttpServer> server_;
};

// --------------------------------------------------- trace ingress + tracez

// The acceptance-criteria proof: a request carrying a W3C traceparent gets
// that trace id echoed in x-hops-trace-id, and /debug/tracez afterwards
// shows the complete span tree — Net.Request parented under the client's
// span, the estimator batch under the request, the probe kernels (with
// their cache detail) under the batch.
TEST_F(DebugEndpointsTest, TraceparentYieldsEchoAndACompleteSpanTree) {
  constexpr char kTraceId[] = "0123456789abcdef0123456789abcdef";
  constexpr char kClientSpan[] = "00f067aa0ba902b7";
  const std::string traceparent = std::string("traceparent: 00-") + kTraceId +
                                  "-" + kClientSpan + "-01\r\n";
  const std::string body = R"({"specs": [
    {"kind":"equality","table":"orders","column":"customer_id","value":5},
    {"kind":"range","table":"orders","column":"item_id",
     "low":3,"high":17,"include_high":false}
  ]})";

  HeaderClient client(port());
  ASSERT_TRUE(client.connected());
  std::string status_line, headers, response_body;
  ASSERT_TRUE(client.Request(Post("/estimate", body, traceparent),
                             &status_line, &headers, &response_body));
  EXPECT_NE(status_line.find("200"), std::string::npos);
  EXPECT_NE(headers.find(std::string("x-hops-trace-id: ") + kTraceId),
            std::string::npos)
      << headers;

  // The whole tree must already be in the ring: spans close before the
  // response is written, and the recorder is this fixture's own.
  ASSERT_TRUE(client.Request(Get("/debug/tracez"), &status_line, &headers,
                             &response_body));
  EXPECT_NE(status_line.find("200"), std::string::npos);
  Result<JsonValue> document = ParseJson(response_body);
  ASSERT_TRUE(document.ok()) << document.status().message();
  const JsonValue* events = document->Find("traceEvents");
  ASSERT_NE(events, nullptr);

  struct Span {
    std::string span_id, parent, detail;
  };
  std::map<std::string, Span> by_name;
  for (const JsonValue& event : events->AsArray()) {
    const JsonValue* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    if (args->GetString("trace_id").ValueOrDie() != kTraceId) continue;
    EXPECT_EQ(event.GetString("ph").ValueOrDie(), "X");
    Span span;
    span.span_id = args->GetString("span_id").ValueOrDie();
    if (const JsonValue* parent = args->Find("parent_span_id")) {
      span.parent = parent->AsString();
    }
    if (const JsonValue* detail = args->Find("detail")) {
      span.detail = detail->AsString();
    }
    by_name.emplace(event.GetString("name").ValueOrDie(), span);
  }

  ASSERT_TRUE(by_name.count("Net.Request")) << response_body;
  ASSERT_TRUE(by_name.count("Serving.EstimateBatch")) << response_body;
  ASSERT_TRUE(by_name.count("Serving.PointKernel")) << response_body;
  ASSERT_TRUE(by_name.count("Serving.RangeKernel")) << response_body;

  // Parentage: client span → Net.Request → EstimateBatch → kernels.
  const Span& request = by_name["Net.Request"];
  const Span& batch = by_name["Serving.EstimateBatch"];
  EXPECT_EQ(request.parent, kClientSpan);
  EXPECT_EQ(batch.parent, request.span_id);
  EXPECT_EQ(by_name["Serving.PointKernel"].parent, batch.span_id);
  EXPECT_EQ(by_name["Serving.RangeKernel"].parent, batch.span_id);

  // The batch span carries the estimate-cache outcome for this request.
  EXPECT_NE(batch.detail.find("specs=2"), std::string::npos) << batch.detail;
  EXPECT_NE(batch.detail.find("cache_hits="), std::string::npos);
  EXPECT_NE(batch.detail.find("cache_misses="), std::string::npos);
  EXPECT_NE(by_name["Net.Request"].detail.find("bytes="), std::string::npos);
  EXPECT_NE(by_name["Serving.PointKernel"].detail.find("probes="),
            std::string::npos);
}

TEST_F(DebugEndpointsTest, UnsampledRequestsLeaveTheRingEmpty) {
  HeaderClient client(port());
  std::string status_line, headers, body;
  // No traceparent, head-sampling disabled: a trace id is still minted and
  // echoed, but nothing records.
  ASSERT_TRUE(client.Request(Get("/healthz"), &status_line, &headers, &body));
  EXPECT_NE(headers.find("x-hops-trace-id: "), std::string::npos);
  EXPECT_EQ(recorder_.Collect().size(), 0u);
}

TEST_F(DebugEndpointsTest, DebugEndpointsAreGetOnly) {
  for (const char* target :
       {"/debug/tracez", "/debug/logz", "/debug/columns", "/debug/snapshots",
        "/debug/wal"}) {
    HeaderClient client(port());
    std::string status_line, headers, body;
    ASSERT_TRUE(client.Request(Post(target, "{}"), &status_line, &headers,
                               &body));
    EXPECT_NE(status_line.find("405"), std::string::npos) << target;
  }
}

TEST(TracezStandaloneTest, Answers503WithoutARecorder) {
  // No recorder installed anywhere: the endpoint says so instead of
  // pretending an empty trace is the truth.
  ASSERT_EQ(telemetry::TraceRecorder::Current(), nullptr);
  telemetry::MetricRegistry registry;
  SnapshotStore store;
  EstimateServiceOptions options;
  options.store = &store;
  options.registry = &registry;
  EstimateService service(options);
  HttpRequest request;
  request.method = "GET";
  request.target = "/debug/tracez";
  const HttpResponse response = service.Handle(request);
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("no trace recorder"), std::string::npos);
}

// ------------------------------------------------------------- tail-keep

// A slow request that head-sampling skipped still leaves one root event
// (trace id + endpoint + wall interval) and a rate-limited warn line.
TEST(TailKeepTest, SlowUnsampledRequestLeavesARootEventAndAWarnLine) {
  telemetry::TraceRecorder recorder(
      telemetry::TraceRecorder::Options{.ring_capacity = 64,
                                        .sample_one_in = 0});
  telemetry::MetricRegistry registry;
  SnapshotStore store;
  EstimateServiceOptions options;
  options.store = &store;
  options.registry = &registry;
  options.recorder = &recorder;
  options.slow_request_seconds = 0.0;  // every request counts as slow
  EstimateService service(options);

  HttpRequest request;
  request.method = "GET";
  request.target = "/healthz";
  const HttpResponse response = service.Handle(request);
  EXPECT_EQ(response.status, 503);  // nothing published yet — also "slow"

  const std::vector<telemetry::TraceEvent> events = recorder.Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "Net.TailKeep");
  EXPECT_NE(std::string(events[0].detail).find("GET /healthz"),
            std::string::npos);
  EXPECT_NE(events[0].trace_lo, 0u);
  EXPECT_GE(events[0].end_nanos, events[0].start_nanos);

  // The warn line is trace-correlated with the event's trace id.
  const std::vector<std::string> lines =
      telemetry::LogBuffer::Global().Snapshot(4);
  bool found = false;
  for (const std::string& line : lines) {
    found = found || line.find("slow request") != std::string::npos;
  }
  EXPECT_TRUE(found) << "no slow-request log line";
}

// ---------------------------------------------------------------- healthz

TEST(HealthzReadinessTest, Is503BeforeTheFirstPublishAnd200After) {
  telemetry::MetricRegistry registry;
  Catalog catalog;
  SnapshotStore store;
  EstimateServiceOptions options;
  options.store = &store;
  options.registry = &registry;
  EstimateService service(options);

  HttpRequest request;
  request.method = "GET";
  request.target = "/healthz";
  {
    const HttpResponse response = service.Handle(request);
    EXPECT_EQ(response.status, 503);
    Result<JsonValue> document = ParseJson(response.body);
    ASSERT_TRUE(document.ok());
    EXPECT_EQ(document->GetString("status").ValueOrDie(), "starting");
    EXPECT_EQ(document->GetInt("publish_count").ValueOrDie(), 0);
    const JsonValue* age = document->Find("snapshot_age_seconds");
    ASSERT_NE(age, nullptr);
    EXPECT_TRUE(age->is_null()) << "no publish yet, so no age";
  }

  // First real publication flips readiness.
  RefreshOptions refresh_options;
  refresh_options.statistics.num_buckets = 4;
  RefreshManager manager(&catalog, &store, refresh_options);
  const std::vector<int64_t> values{1, 2, 3};
  const std::vector<double> frequencies{5.0, 5.0, 5.0};
  manager.RegisterColumn("t", "c", values, frequencies).status().Check();
  {
    const HttpResponse response = service.Handle(request);
    EXPECT_EQ(response.status, 200);
    Result<JsonValue> document = ParseJson(response.body);
    ASSERT_TRUE(document.ok());
    EXPECT_EQ(document->GetString("status").ValueOrDie(), "ok");
    EXPECT_EQ(document->GetInt("columns").ValueOrDie(), 1);
    EXPECT_GE(document->GetInt("publish_count").ValueOrDie(), 1);
    EXPECT_GE(document->GetNumber("snapshot_age_seconds").ValueOrDie(), 0.0);
  }
}

// ------------------------------------------------------------------- logz

TEST_F(DebugEndpointsTest, LogzServesRecentStructuredLines) {
  HOPS_LOG(telemetry::LogLevel::kInfo, "test", "logz golden marker",
           {"k", telemetry::LogValue(int64_t{7})});
  HeaderClient client(port());
  std::string status_line, headers, body;
  ASSERT_TRUE(client.Request(Get("/debug/logz"), &status_line, &headers,
                             &body));
  EXPECT_NE(status_line.find("200"), std::string::npos);
  Result<JsonValue> document = ParseJson(body);
  ASSERT_TRUE(document.ok()) << document.status().message();
  EXPECT_GE(document->GetInt("total").ValueOrDie(), 1);
  const JsonValue* lines = document->Find("lines");
  ASSERT_NE(lines, nullptr);
  ASSERT_TRUE(lines->is_array());
  bool found = false;
  for (const JsonValue& line : lines->AsArray()) {
    ASSERT_TRUE(line.is_object()) << "lines embed as JSON objects, not text";
    if (line.Find("message") != nullptr &&
        line.GetString("message").ValueOrDie() == "logz golden marker") {
      found = true;
      EXPECT_EQ(line.GetString("component").ValueOrDie(), "test");
      EXPECT_EQ(line.GetInt("k").ValueOrDie(), 7);
    }
  }
  EXPECT_TRUE(found) << body;
}

// ---------------------------------------------------------------- columns

TEST_F(DebugEndpointsTest, ColumnsReportsStatisticsAndStalenessVerdicts) {
  HeaderClient client(port());
  std::string status_line, headers, body;
  ASSERT_TRUE(client.Request(Get("/debug/columns"), &status_line, &headers,
                             &body));
  EXPECT_NE(status_line.find("200"), std::string::npos);
  Result<JsonValue> document = ParseJson(body);
  ASSERT_TRUE(document.ok()) << document.status().message();

  EXPECT_EQ(document->GetInt("snapshot_version").ValueOrDie(),
            static_cast<int64_t>(store_.Current()->source_version()));
  EXPECT_EQ(document->GetString("histogram_class").ValueOrDie(),
            StatisticsHistogramClassToString(
                manager_->options().statistics.histogram_class));

  const JsonValue* columns = document->Find("columns");
  ASSERT_NE(columns, nullptr);
  ASSERT_EQ(columns->AsArray().size(), 2u);
  for (const JsonValue& column : columns->AsArray()) {
    EXPECT_EQ(column.GetString("table").ValueOrDie(), "orders");
    EXPECT_EQ(column.GetInt("num_distinct").ValueOrDie(), 40);
    EXPECT_EQ(column.GetNumber("num_tuples").ValueOrDie(),
              column.GetString("column").ValueOrDie() == "customer_id"
                  ? 40 * 25.0
                  : (40.0 * 41.0) / 2.0);
    EXPECT_GE(column.GetInt("explicit_entries").ValueOrDie(), 1);
    EXPECT_GE(column.GetInt("histogram_values").ValueOrDie(), 1);
    const JsonValue* staleness = column.Find("staleness");
    ASSERT_NE(staleness, nullptr) << "refresh manager attached: join holds";
    EXPECT_GE(staleness->GetNumber("score").ValueOrDie(), 0.0);
    EXPECT_NE(staleness->Find("drift_fraction"), nullptr);
    EXPECT_NE(staleness->Find("rebuild_recommended"), nullptr);
    // No deltas reached these columns, so a rebuild cannot change them.
    EXPECT_TRUE(staleness->GetBool("unchanged_since_build").ValueOrDie());
    EXPECT_FALSE(staleness->GetString("reason").ValueOrDie().empty());
    EXPECT_EQ(staleness->GetInt("deltas_applied").ValueOrDie(), 0);
  }
}

// -------------------------------------------------------------- snapshots

TEST_F(DebugEndpointsTest, SnapshotsReportsPublishAndCacheState) {
  HeaderClient client(port());
  std::string status_line, headers, body;
  ASSERT_TRUE(client.Request(Get("/debug/snapshots"), &status_line, &headers,
                             &body));
  EXPECT_NE(status_line.find("200"), std::string::npos);
  Result<JsonValue> document = ParseJson(body);
  ASSERT_TRUE(document.ok()) << document.status().message();
  EXPECT_EQ(document->GetInt("columns").ValueOrDie(), 2);
  EXPECT_GE(document->GetInt("publish_count").ValueOrDie(), 2);
  EXPECT_GE(document->GetNumber("seconds_since_publish").ValueOrDie(), 0.0);
  const JsonValue* cache = document->Find("estimate_cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_GT(cache->GetInt("capacity").ValueOrDie(), 0);
  EXPECT_GE(cache->GetInt("hits").ValueOrDie(), 0);
  EXPECT_GE(cache->GetInt("misses").ValueOrDie(), 0);
  const double hit_rate = cache->GetNumber("hit_rate").ValueOrDie();
  EXPECT_GE(hit_rate, 0.0);
  EXPECT_LE(hit_rate, 1.0);
}

// ------------------------------------------------------------------- wal

TEST_F(DebugEndpointsTest, WalReportsDetachedWithoutDurableStorage) {
  HeaderClient client(port());
  std::string status_line, headers, body;
  ASSERT_TRUE(
      client.Request(Get("/debug/wal"), &status_line, &headers, &body));
  EXPECT_NE(status_line.find("200"), std::string::npos);
  Result<JsonValue> document = ParseJson(body);
  ASSERT_TRUE(document.ok());
  EXPECT_EQ(document->GetBool("attached").ValueOrDie(), false);
  EXPECT_EQ(document->Find("next_lsn"), nullptr);
}

TEST(WalDebugTest, EchoesEveryFieldTheProviderFills) {
  telemetry::MetricRegistry registry;
  SnapshotStore store;
  EstimateServiceOptions options;
  options.store = &store;
  options.registry = &registry;
  options.storage_debug = [] {
    WalDebugInfo info;
    info.attached = true;
    info.durability = "batch";
    info.warm_restart = true;
    info.recovered_snapshot_seq = 7;
    info.recovered_high_water = 41;
    info.replayed_deltas = 12;
    info.replayed_registrations = 2;
    info.next_lsn = 43;
    info.records_appended = 14;
    info.bytes_appended = 2048;
    info.fsyncs = 3;
    info.writeback_kicks = 1;
    info.segments_created = 2;
    info.segments_retired = 1;
    return info;
  };
  EstimateService service(options);
  HttpRequest request;
  request.method = "GET";
  request.target = "/debug/wal";
  const HttpResponse response = service.Handle(request);
  EXPECT_EQ(response.status, 200);
  Result<JsonValue> document = ParseJson(response.body);
  ASSERT_TRUE(document.ok());
  EXPECT_EQ(document->GetBool("attached").ValueOrDie(), true);
  EXPECT_EQ(document->GetString("durability").ValueOrDie(), "batch");
  EXPECT_EQ(document->GetBool("warm_restart").ValueOrDie(), true);
  EXPECT_EQ(document->GetInt("recovered_snapshot_seq").ValueOrDie(), 7);
  EXPECT_EQ(document->GetInt("recovered_high_water").ValueOrDie(), 41);
  EXPECT_EQ(document->GetInt("replayed_deltas").ValueOrDie(), 12);
  EXPECT_EQ(document->GetInt("replayed_registrations").ValueOrDie(), 2);
  EXPECT_EQ(document->GetInt("next_lsn").ValueOrDie(), 43);
  EXPECT_EQ(document->GetInt("records_appended").ValueOrDie(), 14);
  EXPECT_EQ(document->GetInt("bytes_appended").ValueOrDie(), 2048);
  EXPECT_EQ(document->GetInt("fsyncs").ValueOrDie(), 3);
  EXPECT_EQ(document->GetInt("writeback_kicks").ValueOrDie(), 1);
  EXPECT_EQ(document->GetInt("segments_created").ValueOrDie(), 2);
  EXPECT_EQ(document->GetInt("segments_retired").ValueOrDie(), 1);
}

}  // namespace
}  // namespace hops::net
