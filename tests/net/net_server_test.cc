// End-to-end tests of the epoll serving front-end (src/net/): real sockets
// over loopback, the estimate/feedback/metrics endpoints against a live
// RCU snapshot, bit-identical wire-vs-in-process estimates, and the
// graceful-shutdown contract under SIGTERM with clients in flight.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "estimator/serving.h"
#include "net/estimate_service.h"
#include "net/serving_stack.h"
#include "net/wire_format.h"
#include "refresh/refresh_daemon.h"
#include "refresh/refresh_manager.h"
#include "storage/recovery.h"
#include "storage/snapshot_file.h"
#include "util/json.h"

namespace hops::net {
namespace {

// ------------------------------------------------------- blocking client

// Minimal blocking HTTP client for tests: connect, write raw bytes, read
// one response (headers + Content-Length body).
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }

  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  bool SendAll(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads exactly one HTTP response. Returns false on EOF/error before a
  // complete response arrived.
  bool ReadResponse(std::string* status_line, std::string* body) {
    std::string buffer;
    size_t header_end = std::string::npos;
    while (true) {
      header_end = buffer.find("\r\n\r\n");
      if (header_end != std::string::npos) break;
      if (!Fill(&buffer)) return false;
    }
    const std::string headers = buffer.substr(0, header_end + 4);
    *status_line = headers.substr(0, headers.find("\r\n"));
    size_t content_length = 0;
    if (!FindContentLength(headers, &content_length)) return false;
    std::string rest = buffer.substr(header_end + 4);
    while (rest.size() < content_length) {
      if (!Fill(&rest)) return false;
    }
    *body = rest.substr(0, content_length);
    leftover_ = rest.substr(content_length);
    return true;
  }

  std::string Request(const std::string& wire) {
    if (!SendAll(wire)) return "";
    std::string status_line, body;
    if (!ReadResponse(&status_line, &body)) return "";
    return status_line + "\n" + body;
  }

 private:
  bool Fill(std::string* buffer) {
    if (!leftover_.empty()) {
      buffer->append(leftover_);
      leftover_.clear();
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
    return true;
  }

  static bool FindContentLength(const std::string& headers, size_t* out) {
    const char* key = "Content-Length: ";
    const size_t pos = headers.find(key);
    if (pos == std::string::npos) return false;
    *out = static_cast<size_t>(
        std::strtoull(headers.c_str() + pos + std::strlen(key), nullptr, 10));
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
  std::string leftover_;  // pipelined bytes past the current response
};

std::string Post(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: t\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string Get(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n";
}

std::string PostBinary(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: t\r\nContent-Type: " +
         std::string(kBatchContentType) +
         "\r\nContent-Length: " + std::to_string(body.size()) + "\r\n\r\n" +
         body;
}

// ------------------------------------------------------------- fixture

class RecordingSink : public EstimationFeedbackSink {
 public:
  void ReportPredicateOutcome(std::string_view table, std::string_view column,
                              const PredicateOutcome& outcome) override {
    std::lock_guard<std::mutex> lock(mutex_);
    reports_.push_back({std::string(table), std::string(column),
                        outcome.estimated, outcome.actual});
  }

  struct Report {
    std::string table, column;
    double estimated, actual;
  };

  std::vector<Report> reports() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return reports_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Report> reports_;
};

// Serving stack over a two-column catalog: customer_id uniform,
// item_id linearly skewed.
class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
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
    service_options.feedback = &sink_;
    service_options.registry = &registry_;
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

  Catalog catalog_;
  SnapshotStore store_;
  std::unique_ptr<RefreshManager> manager_;
  RecordingSink sink_;
  telemetry::MetricRegistry registry_;
  std::unique_ptr<EstimateService> service_;
  std::unique_ptr<HttpServer> server_;
};

// --------------------------------------------------------------- endpoints

TEST_F(NetServerTest, HealthzReportsSnapshotVersion) {
  TestClient client(port());
  ASSERT_TRUE(client.connected());
  const std::string response = client.Request(Get("/healthz"));
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(response.find("snapshot_version"), std::string::npos);
}

TEST_F(NetServerTest, MetricsExposesPrometheusFamilies) {
  TestClient client(port());
  // A first request populates the per-endpoint counters...
  ASSERT_FALSE(client.Request(Get("/healthz")).empty());
  // ...which the second request's scrape must include.
  const std::string response = client.Request(Get("/metrics"));
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("# TYPE hops_http_requests_total counter"),
            std::string::npos);
  EXPECT_NE(response.find("endpoint=\"/healthz\""), std::string::npos);
  EXPECT_NE(response.find("hops_http_connections_total"), std::string::npos);
  EXPECT_NE(response.find("hops_http_request_seconds"), std::string::npos);
}

TEST_F(NetServerTest, MetricsJsonCarriesExemplars) {
  TestClient client(port());
  ASSERT_FALSE(client.Request(Get("/healthz")).empty());
  const std::string response = client.Request(Get("/metrics.json"));
  // The /healthz request above was recorded with an exemplar naming its
  // method, target, and status.
  EXPECT_NE(response.find("\"exemplars\":["), std::string::npos);
  EXPECT_NE(response.find("GET /healthz status=200"), std::string::npos);
}

// The acceptance-criteria proof: a /estimate response is bit-identical to
// EstimateBatch run in-process on the same snapshot.
TEST_F(NetServerTest, EstimateMatchesInProcessBitIdentically) {
  const std::string body = R"({"specs": [
    {"kind":"equality","table":"orders","column":"customer_id","value":5},
    {"kind":"not_equals","table":"orders","column":"item_id","value":39},
    {"kind":"in","table":"orders","column":"customer_id","values":[1,2,3,2]},
    {"kind":"range","table":"orders","column":"item_id",
     "low":3,"high":17,"include_high":false},
    {"kind":"join","left":{"table":"orders","column":"customer_id"},
     "right":{"table":"orders","column":"item_id"}},
    {"kind":"chain","steps":[
      {"left":{"table":"orders","column":"customer_id"},
       "right":{"table":"orders","column":"item_id"}}]}
  ]})";

  TestClient client(port());
  ASSERT_TRUE(client.SendAll(Post("/estimate", body)));
  std::string status_line, response_body;
  ASSERT_TRUE(client.ReadResponse(&status_line, &response_body));
  EXPECT_NE(status_line.find("200"), std::string::npos);

  Result<JsonValue> document = ParseJson(response_body);
  ASSERT_TRUE(document.ok()) << document.status().ToString();
  const JsonValue* results = document->Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->AsArray().size(), 6u);

  // Re-run the identical batch in-process on the same snapshot.
  const std::shared_ptr<const CatalogSnapshot> snapshot = store_.Current();
  EXPECT_EQ(document->GetInt("snapshot_version").ValueOrDie(),
            static_cast<int64_t>(snapshot->source_version()));
  const ColumnId customer =
      snapshot->Resolve("orders", "customer_id").ValueOrDie();
  const ColumnId item = snapshot->Resolve("orders", "item_id").ValueOrDie();
  std::vector<EstimateSpec> specs;
  specs.push_back(EstimateSpec::Equality(customer, Value(int64_t{5})));
  specs.push_back(EstimateSpec::NotEquals(item, Value(int64_t{39})));
  specs.push_back(EstimateSpec::In(
      customer, {Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{3}),
                 Value(int64_t{2})}));
  RangeBounds bounds;
  bounds.low = 3;
  bounds.high = 17;
  bounds.include_high = false;
  specs.push_back(EstimateSpec::Range(item, bounds));
  specs.push_back(EstimateSpec::Join(customer, item));
  specs.push_back(EstimateSpec::Chain({SnapshotChainStep{customer, item}}));

  const std::vector<Result<double>> expected =
      EstimateBatch(*snapshot, specs);
  ASSERT_EQ(expected.size(), 6u);
  for (size_t i = 0; i < expected.size(); ++i) {
    const JsonValue& slot = results->AsArray()[i];
    if (expected[i].ok()) {
      const JsonValue* estimate = slot.Find("estimate");
      ASSERT_NE(estimate, nullptr)
          << "slot " << i << " missing estimate: " << response_body;
      // Bit-identical: %.17g rendering followed by strtod is lossless.
      EXPECT_EQ(estimate->AsDouble(), expected[i].ValueOrDie())
          << "slot " << i;
    } else {
      EXPECT_NE(slot.Find("error"), nullptr) << "slot " << i;
    }
  }
}

TEST_F(NetServerTest, EstimateReportsPerSpecErrorsWithoutAbortingBatch) {
  const std::string body = R"({"specs": [
    {"kind":"equality","table":"orders","column":"customer_id","value":5},
    {"kind":"equality","table":"nope","column":"missing","value":1},
    {"kind":"wat"},
    {"kind":"equality","table":"orders","column":"item_id","value":0}
  ]})";
  TestClient client(port());
  ASSERT_TRUE(client.SendAll(Post("/estimate", body)));
  std::string status_line, response_body;
  ASSERT_TRUE(client.ReadResponse(&status_line, &response_body));
  EXPECT_NE(status_line.find("200"), std::string::npos);
  Result<JsonValue> document = ParseJson(response_body);
  ASSERT_TRUE(document.ok());
  const JsonValue::Array& results = document->Find("results")->AsArray();
  ASSERT_EQ(results.size(), 4u);
  EXPECT_NE(results[0].Find("estimate"), nullptr);
  EXPECT_NE(results[1].Find("error"), nullptr);
  EXPECT_NE(results[2].Find("error"), nullptr);
  EXPECT_NE(results[3].Find("estimate"), nullptr);
}

TEST_F(NetServerTest, FeedbackRoutesIntoTheSink) {
  const std::string body = R"({"reports": [
    {"kind":"equality","table":"orders","column":"customer_id","value":5,
     "estimated":25.0,"actual":40.0},
    {"kind":"equality","table":"nope","column":"missing","value":1,
     "estimated":1.0,"actual":2.0}
  ]})";
  TestClient client(port());
  const std::string response = client.Request(Post("/feedback", body));
  EXPECT_NE(response.find("\"accepted\": 1"), std::string::npos) << response;
  EXPECT_NE(response.find("\"rejected\": 1"), std::string::npos) << response;
  const std::vector<RecordingSink::Report> reports = sink_.reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].table, "orders");
  EXPECT_EQ(reports[0].column, "customer_id");
  EXPECT_DOUBLE_EQ(reports[0].estimated, 25.0);
  EXPECT_DOUBLE_EQ(reports[0].actual, 40.0);
}

TEST_F(NetServerTest, FeedbackBatchKeepsPerSlotStatus) {
  // A hostile magnitude (NaN) and an unknown column each reject only their
  // own slot; the valid records around them are still applied, and the
  // response carries a per-slot results array so clients can retry exactly
  // the failed indices.
  const std::string body = R"({"reports": [
    {"kind":"equality","table":"orders","column":"customer_id","value":5,
     "estimated":25.0,"actual":40.0},
    {"kind":"equality","table":"orders","column":"customer_id","value":6,
     "estimated":"nan","actual":40.0},
    {"kind":"equality","table":"nope","column":"missing","value":1,
     "estimated":1.0,"actual":2.0},
    {"kind":"equality","table":"orders","column":"item_id","value":7,
     "estimated":8.0,"actual":-3.0},
    {"kind":"equality","table":"orders","column":"item_id","value":9,
     "estimated":10.0,"actual":12.0}
  ]})";
  TestClient client(port());
  ASSERT_TRUE(client.SendAll(Post("/feedback", body)));
  std::string status_line, response_body;
  ASSERT_TRUE(client.ReadResponse(&status_line, &response_body));
  EXPECT_NE(status_line.find("200"), std::string::npos);

  Result<JsonValue> document = ParseJson(response_body);
  ASSERT_TRUE(document.ok()) << response_body;
  EXPECT_EQ(document->Find("accepted")->AsInt64(), 2);
  EXPECT_EQ(document->Find("rejected")->AsInt64(), 3);
  const JsonValue* results = document->Find("results");
  ASSERT_NE(results, nullptr);
  const JsonValue::Array& slots = results->AsArray();
  ASSERT_EQ(slots.size(), 5u);
  const bool expected_ok[] = {true, false, false, false, true};
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_NE(slots[i].Find("ok"), nullptr) << "slot " << i;
    EXPECT_EQ(slots[i].Find("ok")->AsBool(), expected_ok[i]) << "slot " << i;
    // Failing slots say why; passing slots carry no error message.
    EXPECT_EQ(slots[i].Find("error") != nullptr, !expected_ok[i])
        << "slot " << i;
  }

  // Both valid reports reached the sink, in order.
  const std::vector<RecordingSink::Report> reports = sink_.reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].column, "customer_id");
  EXPECT_DOUBLE_EQ(reports[0].actual, 40.0);
  EXPECT_EQ(reports[1].column, "item_id");
  EXPECT_DOUBLE_EQ(reports[1].actual, 12.0);
}

TEST_F(NetServerTest, ErrorStatusesAreClean4xx) {
  {
    TestClient client(port());
    EXPECT_NE(client.Request(Get("/nope")).find("404"), std::string::npos);
  }
  {
    TestClient client(port());
    EXPECT_NE(client.Request(Get("/estimate")).find("405"),
              std::string::npos);
  }
  {
    TestClient client(port());
    const std::string response =
        client.Request(Post("/estimate", "{not json"));
    EXPECT_NE(response.find("400"), std::string::npos);
    EXPECT_NE(response.find("JSON parse error"), std::string::npos);
  }
  {
    // Malformed HTTP: the connection answers 400 and closes.
    TestClient client(port());
    const std::string response = client.Request("BOGUS\r\n\r\n");
    EXPECT_NE(response.find("400"), std::string::npos);
  }
}

TEST_F(NetServerTest, KeepAliveServesPipelinedRequests) {
  TestClient client(port());
  // Both requests written before any response is read.
  ASSERT_TRUE(client.SendAll(Get("/healthz") + Get("/healthz")));
  std::string status_line, body;
  ASSERT_TRUE(client.ReadResponse(&status_line, &body));
  EXPECT_NE(status_line.find("200"), std::string::npos);
  ASSERT_TRUE(client.ReadResponse(&status_line, &body));
  EXPECT_NE(status_line.find("200"), std::string::npos);
  EXPECT_GE(server_->requests_served(), 2u);
}

// ------------------------------------------------------ graceful shutdown

// SIGTERM under load: every response the server generated reaches a client
// completely — the drain flushes before closing, so "accepted" work is
// never lost. Clients whose requests the server never read just see a
// clean close (those were never accepted). A durable store rides along:
// the post-drain hook must leave a loadable shutdown snapshot behind.
TEST_F(NetServerTest, SigtermUnderLoadLosesNoAcceptedResponses) {
  ASSERT_TRUE(ServingStack::InstallSignalHandlers().ok());
  ServingStack stack(server_.get(), /*daemon=*/nullptr, /*sink=*/nullptr);

  // Mount durable storage over an empty directory: nothing to restore, but
  // the shutdown path below must checkpoint the live catalog into it.
  std::string data_dir = ::testing::TempDir() + "hops_sigterm_XXXXXX";
  ASSERT_NE(::mkdtemp(data_dir.data()), nullptr);
  storage::StorageOptions storage_options;
  storage_options.data_dir = data_dir;
  auto durable = storage::RecoveryManager::Open(storage_options);
  ASSERT_TRUE(durable.ok()) << durable.status().message();
  ASSERT_TRUE((*durable)->RecoverAndAttach(manager_.get()).ok());
  stack.SetPostDrainHook(
      [&durable] { return (*durable)->CloseAndSnapshot(); });

  std::atomic<uint64_t> received{0};
  std::atomic<bool> go{true};
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, &received, &go] {
      while (go.load(std::memory_order_acquire)) {
        TestClient client(port());
        if (!client.connected()) return;  // listeners are gone
        // Several keep-alive requests per connection.
        for (int i = 0; i < 8; ++i) {
          if (!client.SendAll(Get("/healthz"))) return;
          std::string status_line, body;
          if (!client.ReadResponse(&status_line, &body)) return;
          received.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Let real load build up, then deliver SIGTERM mid-flight.
  while (received.load(std::memory_order_relaxed) < 50) {
    std::this_thread::yield();
  }
  ASSERT_EQ(::raise(SIGTERM), 0);
  ASSERT_TRUE(ServingStack::WaitForShutdownSignal(/*timeout_millis=*/5000));
  ASSERT_TRUE(stack.ShutdownOrdered().ok());
  go.store(false, std::memory_order_release);
  for (std::thread& thread : clients) thread.join();

  EXPECT_FALSE(server_->running());
  // The invariant: responses generated == responses fully delivered.
  EXPECT_EQ(server_->requests_served(), received.load());
  EXPECT_GE(received.load(), 50u);

  // The post-drain hook ran: a shutdown snapshot exists and loads with the
  // fixture's two columns, so a warm restart could serve immediately.
  auto snapshots = storage::ListSnapshotFiles(data_dir);
  ASSERT_TRUE(snapshots.ok()) << snapshots.status().message();
  ASSERT_FALSE(snapshots->empty()) << "post-drain hook wrote no snapshot";
  auto loaded = storage::ReadSnapshotFile(snapshots->back().path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->columns.size(), 2u);
}

// Requests already received by the server when shutdown starts are
// answered before the connection closes.
TEST_F(NetServerTest, ShutdownAnswersFullyReceivedRequests) {
  TestClient client(port());
  ASSERT_TRUE(client.SendAll(Get("/healthz")));
  // Give the worker a beat to accept the connection and buffer the request;
  // whether it answered already or the drain's final read pass does, the
  // response must be delivered before the close.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(server_->Shutdown().ok());
  std::string status_line, body;
  ASSERT_TRUE(client.ReadResponse(&status_line, &body));
  EXPECT_NE(status_line.find("200"), std::string::npos);
}

TEST_F(NetServerTest, ShutdownIsIdempotent) {
  ASSERT_TRUE(server_->Shutdown().ok());
  ASSERT_TRUE(server_->Shutdown().ok());
  EXPECT_FALSE(server_->running());
}

// ------------------------------------------------- binary batch framing

// The §12 binary fast lane: the same batch sent as application/x-hops-batch
// must return raw doubles bit-identical to an in-process EstimateBatch on
// the same snapshot — no 17-digit text round-trip involved.
TEST_F(NetServerTest, EstimateBinaryIsBitIdenticalToInProcess) {
  std::vector<WireSpec> wire_specs;
  {
    WireSpec s;
    s.kind = WireSpec::Kind::kEquality;
    s.table = "orders";
    s.column = "customer_id";
    s.a = 5;
    wire_specs.push_back(s);
  }
  {
    WireSpec s;
    s.kind = WireSpec::Kind::kNotEquals;
    s.table = "orders";
    s.column = "item_id";
    s.a = 39;
    wire_specs.push_back(s);
  }
  {
    WireSpec s;
    s.kind = WireSpec::Kind::kRange;
    s.table = "orders";
    s.column = "item_id";
    s.a = 3;
    s.b = 17;
    s.include_high = false;
    wire_specs.push_back(s);
  }
  {
    WireSpec s;
    s.kind = WireSpec::Kind::kJoin;
    s.table = "orders";
    s.column = "customer_id";
    s.right_table = "orders";
    s.right_column = "item_id";
    wire_specs.push_back(s);
  }
  {
    // Unknown column: fails its slot without aborting the batch.
    WireSpec s;
    s.kind = WireSpec::Kind::kEquality;
    s.table = "nope";
    s.column = "missing";
    s.a = 1;
    wire_specs.push_back(s);
  }

  TestClient client(port());
  ASSERT_TRUE(
      client.SendAll(PostBinary("/estimate", EncodeBatchRequest(wire_specs))));
  std::string status_line, response_body;
  ASSERT_TRUE(client.ReadResponse(&status_line, &response_body));
  EXPECT_NE(status_line.find("200"), std::string::npos);

  const Result<WireResponse> response = DecodeBatchResponse(response_body);
  ASSERT_TRUE(response.ok()) << response.status().message();
  ASSERT_EQ(response->results.size(), wire_specs.size());

  const std::shared_ptr<const CatalogSnapshot> snapshot = store_.Current();
  EXPECT_EQ(response->snapshot_version, snapshot->source_version());
  const ColumnId customer =
      snapshot->Resolve("orders", "customer_id").ValueOrDie();
  const ColumnId item = snapshot->Resolve("orders", "item_id").ValueOrDie();
  std::vector<EstimateSpec> specs;
  specs.push_back(EstimateSpec::Equality(customer, Value(int64_t{5})));
  specs.push_back(EstimateSpec::NotEquals(item, Value(int64_t{39})));
  specs.push_back(
      EstimateSpec::Range(item, RangeBounds{3, 17, true, false}));
  specs.push_back(EstimateSpec::Join(customer, item));
  const std::vector<Result<double>> expected = EstimateBatch(*snapshot, specs);

  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(expected[i].ok()) << i;
    EXPECT_EQ(response->results[i].status, WireStatus::kOk) << i;
    const double got = response->results[i].estimate;
    const double want = *expected[i];
    EXPECT_EQ(std::memcmp(&got, &want, sizeof(got)), 0) << "slot " << i;
  }
  EXPECT_EQ(response->results[4].status, WireStatus::kUnknownColumn);
  EXPECT_EQ(response->results[4].estimate, 0.0);
}

TEST_F(NetServerTest, MalformedBinaryFrameIsWholeRequest400) {
  TestClient client(port());
  // Not even a magic number: the frame is rejected as a unit with a JSON
  // error body (the one place the binary path answers in JSON).
  const std::string response =
      client.Request(PostBinary("/estimate", "garbage"));
  EXPECT_NE(response.find("400"), std::string::npos);
  EXPECT_NE(response.find("error"), std::string::npos);
  // The connection is still usable afterwards — a 400 is not fatal.
  const std::string ok = client.Request(Get("/healthz"));
  EXPECT_NE(ok.find("200"), std::string::npos);
}

// ------------------------------------------------------ idle-connection reap

HttpResponse TinyOkResponse(const HttpRequest&) {
  HttpResponse response;
  response.body = "{}";
  return response;
}

TEST(IdleReapTest, IdleKeepAliveConnectionIsReaped) {
  telemetry::MetricRegistry registry;
  HttpServerOptions options;
  options.num_workers = 1;
  options.idle_timeout_millis = 50;
  options.registry = &registry;
  HttpServer server(TinyOkResponse, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_FALSE(client.Request(Get("/x")).empty());
  EXPECT_EQ(server.open_connections(), 1u);

  // Go idle past the deadline; the sweep (epoll timeout max(10, 50/4) ms)
  // must close the connection within ~1.25x the deadline — poll with a
  // generous bound for slow CI machines.
  telemetry::Counter* reaped = registry.GetCounter(
      "hops_http_connections_reaped_total",
      "Keep-alive connections closed by the idle-timeout sweep");
  for (int i = 0; i < 300 && reaped->Value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(reaped->Value(), 1u);
  EXPECT_EQ(server.open_connections(), 0u);
  // The client observes the close: no further response arrives.
  std::string status_line, body;
  EXPECT_FALSE(client.SendAll(Get("/x")) &&
               client.ReadResponse(&status_line, &body));
  ASSERT_TRUE(server.Shutdown().ok());
}

TEST(IdleReapTest, ActiveConnectionSurvivesSweeps) {
  telemetry::MetricRegistry registry;
  HttpServerOptions options;
  options.num_workers = 1;
  options.idle_timeout_millis = 400;
  options.registry = &registry;
  HttpServer server(TinyOkResponse, options);
  ASSERT_TRUE(server.Start().ok());

  // Keep one connection alive well past several deadlines' worth of wall
  // clock, but never idle longer than a fraction of the deadline: every
  // request must succeed on the same connection.
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  for (int i = 0; i < 10; ++i) {
    ASSERT_FALSE(client.Request(Get("/x")).empty()) << "request " << i;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  telemetry::Counter* reaped = registry.GetCounter(
      "hops_http_connections_reaped_total",
      "Keep-alive connections closed by the idle-timeout sweep");
  EXPECT_EQ(reaped->Value(), 0u);
  EXPECT_EQ(server.open_connections(), 1u);
  ASSERT_TRUE(server.Shutdown().ok());
}

TEST(IdleReapTest, ZeroTimeoutDisablesReaping) {
  telemetry::MetricRegistry registry;
  HttpServerOptions options;
  options.num_workers = 1;
  options.idle_timeout_millis = 0;
  options.registry = &registry;
  HttpServer server(TinyOkResponse, options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_FALSE(client.Request(Get("/x")).empty());
  // With reaping disabled the event loop blocks indefinitely; the idle
  // connection simply stays.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(server.open_connections(), 1u);
  ASSERT_FALSE(client.Request(Get("/x")).empty());
  ASSERT_TRUE(server.Shutdown().ok());
}

// Full stack ordering: server drains, daemon drains its update log, sink
// writes its final snapshot — in that order, all observable afterwards.
TEST(ServingStackTest, ShutdownOrderedStopsComponentsInOrder) {
  Catalog catalog;
  SnapshotStore store;
  RefreshOptions options;
  options.statistics.num_buckets = 8;
  RefreshManager manager(&catalog, &store, options);
  std::vector<int64_t> values{0, 1, 2, 3};
  std::vector<double> freqs{10.0, 10.0, 10.0, 10.0};
  auto column = manager.RegisterColumn("t", "c", values, freqs);
  column.status().Check();

  telemetry::MetricRegistry registry;
  EstimateServiceOptions service_options;
  service_options.store = &store;
  service_options.registry = &registry;
  EstimateService service(service_options);

  HttpServerOptions server_options;
  server_options.num_workers = 1;
  server_options.registry = &registry;
  HttpServer server(service.AsHandler(), server_options);

  RefreshDaemonOptions daemon_options;
  daemon_options.tick_interval_micros = 2000;
  RefreshDaemon daemon(&manager, daemon_options);

  const std::string sink_path =
      ::testing::TempDir() + "/serving_stack_final.prom";
  telemetry::TelemetrySinkOptions sink_options;
  sink_options.path = sink_path;
  sink_options.registry = &registry;
  telemetry::TelemetrySink sink(sink_options);

  ServingStack stack(&server, &daemon, &sink);
  ASSERT_TRUE(stack.Start().ok());
  ASSERT_TRUE(server.running());
  ASSERT_TRUE(daemon.running());
  ASSERT_TRUE(sink.running());

  // Traffic + pending write-path work the drain must not lose.
  {
    TestClient client(server.port());
    ASSERT_FALSE(client.Request(Get("/healthz")).empty());
  }
  for (int i = 0; i < 100; ++i) {
    manager.RecordInsert(*column, i % 4).Check();
  }

  ASSERT_TRUE(stack.ShutdownOrdered().ok());
  EXPECT_FALSE(server.running());
  EXPECT_FALSE(daemon.running());
  EXPECT_FALSE(sink.running());
  // Idempotent.
  EXPECT_TRUE(stack.ShutdownOrdered().ok());

  // The daemon drained: the deltas were applied, not stranded in the log.
  EXPECT_EQ(manager.stats().log.depth, 0u);

  // The sink's final write captured the request that was served.
  std::ifstream in(sink_path);
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_NE(contents.str().find("hops_http_requests_total"),
            std::string::npos);
}

}  // namespace
}  // namespace hops::net
