// The serving stack under test, assembled in-process from the same public
// classes examples/serve_estimates wires: RefreshManager, SnapshotStore,
// RefreshDaemon at the 10 ms tick, AccuracyTracker, EstimateService and
// HttpServer under one ServingStack, plus RecoveryManager when the workload
// is durable. The benchmark's probes sit at the handler, durability-hook
// and refresh-source seams.

#pragma once

#include <memory>
#include <string>

#include "engine/catalog.h"
#include "engine/catalog_snapshot.h"
#include "net/estimate_service.h"
#include "net/server.h"
#include "net/serving_stack.h"
#include "probes.h"
#include "refresh/refresh_daemon.h"
#include "refresh/refresh_manager.h"
#include "storage/recovery.h"
#include "telemetry/accuracy.h"
#include "util/thread_pool.h"

namespace perfbench {

inline constexpr size_t kServerWorkers = 2;
inline constexpr int64_t kTickMicros = 10'000;

class Stack {
 public:
  explicit Stack(const hops::RefreshOptions& options)
      : manager(&catalog, &store, options) {}
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// RecoveryManager::Open + RecoverAndAttach on \p data_dir (batch fsync).
  hops::Status OpenDurable(const std::string& data_dir);

  /// Interposes the probes, builds the endpoint layer, the server and the
  /// daemon, and starts them in ServingStack order.
  hops::Status Serve(hops::ThreadPool* pool);

  /// ServingStack::ShutdownOrdered: server drain, then daemon drain-and-stop.
  hops::Status Stop();

  uint16_t port() const { return server->port(); }

  // Declaration order is destruction order reversed: the server and daemon
  // go first, the catalog and probes last.
  Probes probes;
  hops::Catalog catalog;
  hops::SnapshotStore store;
  hops::RefreshManager manager;
  std::unique_ptr<hops::storage::RecoveryManager> durable;
  std::unique_ptr<SequencedHook> hook;
  std::unique_ptr<hops::telemetry::AccuracyTracker> tracker;
  std::unique_ptr<hops::net::EstimateService> service;
  std::unique_ptr<hops::net::HttpServer> server;
  std::unique_ptr<TickProbe> ticks;
  std::unique_ptr<hops::RefreshDaemon> daemon;
  std::unique_ptr<hops::net::ServingStack> serving;
};

}  // namespace perfbench
