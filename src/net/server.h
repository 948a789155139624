// Epoll-based HTTP/1.1 serving front-end (DESIGN.md §11): the socket layer
// that turns the §7 "library fast" estimation path into "service fast".
//
// Architecture — N independent event-loop workers, zero shared hot state:
//
//   worker 0..N-1:  SO_REUSEPORT listener ── edge-triggered epoll
//                        │ accept4(NONBLOCK)        │
//                        ▼                          ▼
//                   per-connection state machine (HttpParser)
//                        │ complete request(s)
//                        ▼
//                   HttpHandler (the EstimateService) ── response bytes
//
// Every worker owns its own listening socket bound with SO_REUSEPORT, so
// the kernel load-balances accepts across workers and there is no shared
// accept lock; every connection lives on exactly one worker's epoll for its
// whole life, so connection state needs no synchronization. The handler
// runs on the worker thread, EstimateBatch included: a batch's kernels
// cost tens of nanoseconds per spec, so the event loop blocks on
// estimation for one batch at most, and scales across workers rather than
// across a pool.
//
// Keep-alive hygiene: each worker's epoll_wait runs with a finite timeout
// and periodically reaps connections that produced no socket events for
// idle_timeout_millis, so abandoned keep-alive clients cannot pin
// max_connections_per_worker slots forever (hops_http_connections_reaped_
// total counts the closes).
//
// Graceful shutdown contract (the §11 ordering fix): Shutdown() first
// closes the listeners (no new connections), then each worker drains — it
// performs a final read pass per connection, answers every fully received
// request, flushes every pending response (bounded by drain_deadline), and
// only then closes. A client that finished sending a request before
// Shutdown() was called therefore always receives its response; the callers
// above (ServingStack) stop the refresh daemon and telemetry sink only
// after this returns. tests/net/net_server_test.cc proves the "SIGTERM
// under load loses no accepted responses" property.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/http.h"
#include "telemetry/metrics.h"
#include "util/status.h"

namespace hops::net {

/// \brief Server knobs.
struct HttpServerOptions {
  /// Listen address. Tests and the bench bind loopback; a deployment would
  /// pass "0.0.0.0".
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 lets the kernel choose (read the choice from port()).
  uint16_t port = 0;
  /// Event-loop workers, each with its own SO_REUSEPORT listener and epoll
  /// instance. 0 = min(4, hardware_concurrency).
  size_t num_workers = 0;
  /// Per-connection parser bounds.
  HttpParserLimits limits;
  /// Upper bound on concurrently open connections per worker; accepts
  /// beyond it are answered with 503 and closed.
  size_t max_connections_per_worker = 4096;
  /// Graceful-shutdown bound: after the final read pass, pending responses
  /// get this long to flush before the connection is closed regardless.
  int64_t drain_deadline_millis = 2000;
  /// Keep-alive idle deadline: a connection with no socket events for this
  /// long is closed by its worker's periodic sweep (epoll_wait runs with a
  /// finite timeout of max(10, deadline/4) ms, so reaping needs no extra
  /// timer fd and an idle connection lives at most ~1.25x the deadline).
  /// Counted in hops_http_connections_reaped_total. 0 disables reaping —
  /// the event loop then blocks indefinitely, as before.
  int64_t idle_timeout_millis = 60000;
  /// Registry for the connection/byte metrics; nullptr = Global().
  telemetry::MetricRegistry* registry = nullptr;
};

/// \brief Application layer: one complete request in, one response out.
/// Must be thread-safe — workers invoke it concurrently.
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// \brief Multi-worker epoll server. Start() binds and spawns the workers;
/// Shutdown() drains gracefully (see the file comment). Thread-safe.
class HttpServer {
 public:
  explicit HttpServer(HttpHandler handler, HttpServerOptions options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds num_workers SO_REUSEPORT listeners and spawns the event loops.
  /// AlreadyExists when running; Internal on socket errors.
  Status Start();

  /// Graceful shutdown: stop accepting, answer everything fully received,
  /// flush, close, join. Idempotent; OK when never started.
  Status Shutdown();

  bool running() const;

  /// The bound TCP port (resolves option port == 0). 0 before Start().
  uint16_t port() const { return port_.load(std::memory_order_acquire); }

  /// Currently open connections, summed over workers.
  size_t open_connections() const;

  /// Requests answered since Start (error responses included).
  uint64_t requests_served() const;

 private:
  struct Connection;
  struct Worker;

  Status BindWorker(Worker& worker, uint16_t port, bool reuse_port);
  void WorkerLoop(Worker& worker);
  void HandleReadable(Worker& worker, Connection& conn);
  void ProcessBuffered(Worker& worker, Connection& conn);
  bool FlushWrites(Worker& worker, Connection& conn);
  void AcceptReady(Worker& worker);
  void CloseConnection(Worker& worker, int fd);
  void ReapIdleConnections(Worker& worker, int64_t now_millis);
  void DrainWorker(Worker& worker);

  const HttpHandler handler_;
  const HttpServerOptions options_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<uint16_t> port_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  mutable std::mutex lifecycle_mutex_;

  // Serving metrics (DESIGN.md §9 vocabulary; the per-endpoint request
  // counters live in the EstimateService — these are transport-level).
  telemetry::Gauge* connections_open_ = nullptr;
  telemetry::Counter* connections_total_ = nullptr;
  telemetry::Counter* connections_reaped_ = nullptr;
  telemetry::Counter* requests_served_ = nullptr;
  telemetry::Counter* parse_errors_ = nullptr;
  telemetry::Counter* bytes_read_ = nullptr;
  telemetry::Counter* bytes_written_ = nullptr;
};

}  // namespace hops::net
