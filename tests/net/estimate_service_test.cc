// In-process contract tests of the endpoint layer (net/estimate_service.h):
// EstimateService::Handle is driven directly, without sockets, so the tests
// can pin exact response bytes. They fix what every restructuring of the
// handlers must keep: the 405 method guard per endpoint, the 413 batch
// bound in both /estimate framings and on /feedback and /update, the 400
// for an out-of-range /update weight, and a byte-exact JSON body and binary
// frame for one mixed /estimate batch.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "estimator/serving.h"
#include "net/estimate_service.h"
#include "net/wire_format.h"
#include "refresh/refresh_manager.h"

namespace hops::net {
namespace {

class NullSink : public EstimationFeedbackSink {
 public:
  void ReportPredicateOutcome(std::string_view, std::string_view,
                              const PredicateOutcome&) override {}
};

HttpRequest MakeRequest(std::string method, std::string target,
                        std::string body = {},
                        std::string content_type = {}) {
  HttpRequest request;
  request.method = std::move(method);
  request.target = std::move(target);
  request.body = std::move(body);
  if (!content_type.empty()) {
    request.headers.emplace_back("Content-Type", std::move(content_type));
  }
  return request;
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xF]);
  }
  return out;
}

// `count` copies of `entry`, comma-separated, inside {"<key>":[...]}.
std::string RepeatedBody(const std::string& key, const std::string& entry,
                         size_t count) {
  std::string body = "{\"" + key + "\":[";
  for (size_t i = 0; i < count; ++i) {
    if (i > 0) body.push_back(',');
    body += entry;
  }
  body += "]}";
  return body;
}

std::string RepeatedFrame(size_t count) {
  WireSpec spec;
  spec.table = "orders";
  spec.column = "customer_id";
  spec.a = 5;
  return EncodeBatchRequest(std::vector<WireSpec>(count, spec));
}

// Same two-column catalog as net_server_test: customer_id uniform,
// item_id linearly skewed, every endpoint wired.
class EstimateServiceTest : public ::testing::Test {
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
    service_options.updates = manager_.get();
    service_options.registry = &registry_;
    service_ = std::make_unique<EstimateService>(service_options);
  }

  uint64_t RequestCount(const std::string& endpoint, int code) {
    return registry_
        .GetCounter("hops_http_requests_total",
                    "HTTP requests by endpoint and status code",
                    {{"endpoint", endpoint}, {"code", std::to_string(code)}})
        ->Value();
  }

  Catalog catalog_;
  SnapshotStore store_;
  std::unique_ptr<RefreshManager> manager_;
  NullSink sink_;
  telemetry::MetricRegistry registry_;
  std::unique_ptr<EstimateService> service_;
};

TEST_F(EstimateServiceTest, WrongMethodIs405OnEveryNonDebugEndpoint) {
  struct Case {
    const char* target;
    const char* wrong_method;
    const char* body;
  };
  for (const Case& c : {Case{"/metrics", "POST", "{\"error\": \"use GET\"}\n"},
                        Case{"/metrics.json", "POST",
                             "{\"error\": \"use GET\"}\n"},
                        Case{"/healthz", "POST", "{\"error\": \"use GET\"}\n"},
                        Case{"/feedback", "GET", "{\"error\": \"use POST\"}\n"},
                        Case{"/update", "GET", "{\"error\": \"use POST\"}\n"},
                        Case{"/estimate", "GET",
                             "{\"error\": \"use POST\"}\n"}}) {
    const HttpResponse response =
        service_->Handle(MakeRequest(c.wrong_method, c.target));
    EXPECT_EQ(response.status, 405) << c.target;
    EXPECT_EQ(response.body, c.body) << c.target;
    // The refusal is counted under the endpoint, not under "other".
    EXPECT_EQ(RequestCount(c.target, 405), 1u) << c.target;
  }
  EXPECT_EQ(RequestCount("other", 405), 0u);
}

TEST_F(EstimateServiceTest, UnknownTargetIs404UnderOther) {
  const HttpResponse response = service_->Handle(MakeRequest("GET", "/nope"));
  EXPECT_EQ(response.status, 404);
  EXPECT_EQ(response.body, "{\"error\": \"unknown endpoint: /nope\"}\n");
  EXPECT_EQ(RequestCount("other", 404), 1u);
}

TEST_F(EstimateServiceTest, BatchBoundIs4096EntriesOnEveryBatchEndpoint) {
  const std::string spec =
      R"({"kind":"equality","table":"orders","column":"customer_id","value":5})";
  {
    const HttpResponse at_bound = service_->Handle(
        MakeRequest("POST", "/estimate", RepeatedBody("specs", spec, 4096)));
    EXPECT_EQ(at_bound.status, 200);
    const HttpResponse over = service_->Handle(
        MakeRequest("POST", "/estimate", RepeatedBody("specs", spec, 4097)));
    EXPECT_EQ(over.status, 413);
    EXPECT_EQ(over.body, "{\"error\": \"too many specs in one request\"}\n");
  }
  {
    const std::string binary(kBatchContentType);
    const HttpResponse at_bound = service_->Handle(
        MakeRequest("POST", "/estimate", RepeatedFrame(4096), binary));
    EXPECT_EQ(at_bound.status, 200);
    const Result<WireResponse> decoded = DecodeBatchResponse(at_bound.body);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_EQ(decoded->results.size(), 4096u);
    const HttpResponse over = service_->Handle(
        MakeRequest("POST", "/estimate", RepeatedFrame(4097), binary));
    EXPECT_EQ(over.status, 413);
    EXPECT_EQ(over.body, "{\"error\": \"too many specs in one request\"}\n");
    EXPECT_EQ(over.content_type, "application/json");
  }
  {
    const std::string report =
        R"({"kind":"equality","table":"orders","column":"customer_id","value":5,"estimated":1.0,"actual":2.0})";
    const HttpResponse over = service_->Handle(MakeRequest(
        "POST", "/feedback", RepeatedBody("reports", report, 4097)));
    EXPECT_EQ(over.status, 413);
    EXPECT_EQ(over.body, "{\"error\": \"too many reports in one request\"}\n");
  }
  {
    const std::string update =
        R"({"table":"orders","column":"customer_id","value":5})";
    const HttpResponse over = service_->Handle(
        MakeRequest("POST", "/update", RepeatedBody("updates", update, 4097)));
    EXPECT_EQ(over.status, 413);
    EXPECT_EQ(over.body, "{\"error\": \"too many updates in one request\"}\n");
  }
  EXPECT_EQ(RequestCount("/estimate", 413), 2u);
  EXPECT_EQ(RequestCount("/feedback", 413), 1u);
  EXPECT_EQ(RequestCount("/update", 413), 1u);
}

TEST_F(EstimateServiceTest, MissingBatchArrayIs400PerEndpoint) {
  struct Case {
    const char* target;
    const char* body;
  };
  for (const Case& c :
       {Case{"/estimate", "{\"error\": \"body needs a \\\"specs\\\" array\"}\n"},
        Case{"/feedback",
             "{\"error\": \"body needs a \\\"reports\\\" array\"}\n"},
        Case{"/update",
             "{\"error\": \"body needs an \\\"updates\\\" array\"}\n"}}) {
    const HttpResponse response =
        service_->Handle(MakeRequest("POST", c.target, "{\"x\": []}"));
    EXPECT_EQ(response.status, 400) << c.target;
    EXPECT_EQ(response.body, c.body) << c.target;
  }
}

// A weight past kMaxDeltaWeight, or a number past the double range, is the
// client's error: 400 naming the entry or the byte, and nothing admitted (so
// nothing reaches a WAL). Accepted weights are unchanged.
TEST_F(EstimateServiceTest, UpdateWeightOutOfRangeIs400AndAdmitsNothing) {
  struct Case {
    const char* weight;
    const char* body;
  };
  for (const Case& c :
       {Case{"1e12",
             "{\"error\": \"update 1: weight 1000000000000 is outside "
             "[-1024, 1024]\"}\n"},
        Case{"1e400",
             "{\"error\": \"JSON parse error at byte 134: number overflows "
             "a double\"}\n"}}) {
    const std::string body =
        std::string(R"({"updates":[{"table":"orders","column":"item_id",)") +
        R"("value":3,"weight":2.5},{"table":"orders","column":"item_id",)" +
        R"("value":4,"weight":)" + c.weight + "}]}";
    const HttpResponse response =
        service_->Handle(MakeRequest("POST", "/update", body));
    EXPECT_EQ(response.status, 400) << c.weight;
    EXPECT_EQ(response.body, c.body) << c.weight;
  }
  EXPECT_EQ(RequestCount("/update", 400), 2u);
  EXPECT_EQ(manager_->stats().log.enqueued, 0u);

  for (const char* weight : {"1", "-5", "2.5", "1024", "-1024"}) {
    const HttpResponse accepted = service_->Handle(MakeRequest(
        "POST", "/update",
        std::string(R"({"updates":[{"table":"orders","column":"item_id",)") +
            R"("value":3,"weight":)" + weight + "}]}"));
    EXPECT_EQ(accepted.status, 200) << weight;
    EXPECT_EQ(accepted.body, "{\n  \"accepted\": 1\n}\n") << weight;
  }
  EXPECT_EQ(manager_->stats().log.enqueued, 5u);
}

// One JSON batch covering every slot outcome: estimates of each kind, an
// unknown column, malformed specs (bad kind, missing literal, non-integer
// bound), and a spec that resolves but fails estimation (an empty chain).
TEST_F(EstimateServiceTest, MixedJsonBatchIsByteExact) {
  const std::string body = R"({"specs": [
    {"kind":"equality","table":"orders","column":"customer_id","value":5},
    {"kind":"not_equals","table":"orders","column":"item_id","value":39},
    {"kind":"equality","table":"orders","column":"item_id","value":"abc"},
    {"kind":"in","table":"orders","column":"item_id","values":[1,2,39]},
    {"kind":"range","table":"orders","column":"item_id",
     "low":3,"high":17,"include_high":false},
    {"kind":"equality","table":"nope","column":"missing","value":1},
    {"kind":"wat"},
    {"kind":"equality","table":"orders","column":"item_id"},
    {"kind":"range","table":"orders","column":"item_id","low":1.5,"high":2},
    {"kind":"join","left":{"table":"orders","column":"customer_id"},
     "right":{"table":"orders","column":"item_id"}},
    {"kind":"chain","steps":[]},
    {"kind":"chain","steps":[
      {"left":{"table":"orders","column":"customer_id"},
       "right":{"table":"orders","column":"item_id"}}]},
    7
  ]})";
  const HttpResponse response =
      service_->Handle(MakeRequest("POST", "/estimate", body));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json");
  EXPECT_EQ(response.body, R"({
  "snapshot_version": 2,
  "results": [
    {
      "estimate": 25
    },
    {
      "estimate": 780
    },
    {
      "estimate": 17
    },
    {
      "estimate": 74
    },
    {
      "estimate": 196.35000000000002
    },
    {
      "error": "no statistics for nope.missing"
    },
    {
      "error": "unknown spec kind: wat"
    },
    {
      "error": "spec missing key: value"
    },
    {
      "error": "expected integer member \"low\""
    },
    {
      "estimate": 20500
    },
    {
      "error": "chain join needs at least one join step"
    },
    {
      "estimate": 20500
    },
    {
      "error": "spec must be an object"
    }
  ]
}
)");
}

// The binary framing of the shapes it can carry (IN-lists and chains stay
// JSON-only, and a malformed record fails the whole frame): an unknown
// column in a point spec and on a join's right side, and an empty range.
TEST_F(EstimateServiceTest, MixedBinaryBatchIsByteExact) {
  std::vector<WireSpec> specs(8);
  specs[0].table = "orders";
  specs[0].column = "customer_id";
  specs[0].a = 5;
  specs[1].kind = WireSpec::Kind::kNotEquals;
  specs[1].table = "orders";
  specs[1].column = "item_id";
  specs[1].a = 39;
  specs[2].table = "orders";
  specs[2].column = "item_id";
  specs[2].value_is_string = true;
  specs[2].value_string = "abc";
  specs[3].kind = WireSpec::Kind::kRange;
  specs[3].table = "orders";
  specs[3].column = "item_id";
  specs[3].a = 3;
  specs[3].b = 17;
  specs[3].include_high = false;
  specs[4].table = "nope";
  specs[4].column = "missing";
  specs[4].a = 1;
  specs[5].kind = WireSpec::Kind::kJoin;
  specs[5].table = "orders";
  specs[5].column = "customer_id";
  specs[5].right_table = "orders";
  specs[5].right_column = "item_id";
  specs[6].kind = WireSpec::Kind::kJoin;
  specs[6].table = "orders";
  specs[6].column = "customer_id";
  specs[6].right_table = "orders";
  specs[6].right_column = "missing";
  specs[7].kind = WireSpec::Kind::kRange;
  specs[7].table = "orders";
  specs[7].column = "customer_id";
  specs[7].a = 30;
  specs[7].b = 10;
  const HttpResponse response = service_->Handle(
      MakeRequest("POST", "/estimate", EncodeBatchRequest(specs),
                  std::string(kBatchContentType)));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, kBatchContentType);
  // Header (magic, version, count), snapshot version, then one 16-byte
  // record per slot: u32 status, u32 reserved, f64 estimate.
  EXPECT_EQ(Hex(response.body),
            "484f50520100000008000000"
            "0200000000000000"
            "00000000000000000000000000003940"
            "00000000000000000000000000608840"
            "00000000000000000000000000003140"
            "000000000000000034333333338b6840"
            "01000000000000000000000000000000"
            "0000000000000000000000000005d440"
            "01000000000000000000000000000000"
            "00000000000000000000000000000000");
}

}  // namespace
}  // namespace hops::net
