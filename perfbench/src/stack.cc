#include "stack.h"

#include <utility>

namespace perfbench {

Stack::~Stack() {
  (void)Stop();
  // The hook dies before the manager; nothing may call it after this.
  manager.AttachDurability(nullptr);
}

hops::Status Stack::OpenDurable(const std::string& data_dir) {
  hops::storage::StorageOptions options;
  options.data_dir = data_dir;
  options.durability = hops::storage::WalFsync::kBatch;
  HOPS_ASSIGN_OR_RETURN(durable, hops::storage::RecoveryManager::Open(options));
  return durable->RecoverAndAttach(&manager);
}

hops::Status Stack::Serve(hops::ThreadPool* pool) {
  hook = std::make_unique<SequencedHook>(durable.get(), &probes);
  manager.AttachDurability(hook.get());
  tracker = std::make_unique<hops::telemetry::AccuracyTracker>(
      /*registry=*/nullptr, /*next=*/&manager);

  hops::net::EstimateServiceOptions service_options;
  service_options.store = &store;
  service_options.pool = pool;
  service_options.feedback = tracker.get();
  service_options.updates = &manager;
  service_options.accuracy = tracker.get();
  service = std::make_unique<hops::net::EstimateService>(service_options);

  hops::net::HttpServerOptions server_options;
  server_options.port = 0;
  server_options.num_workers = kServerWorkers;
  server = std::make_unique<hops::net::HttpServer>(
      WrapHandler(service->AsHandler(), &probes), server_options);

  ticks = std::make_unique<TickProbe>(&manager, &store, &probes);
  hops::RefreshDaemonOptions daemon_options;
  daemon_options.tick_interval_micros = kTickMicros;
  daemon = std::make_unique<hops::RefreshDaemon>(ticks.get(), daemon_options);

  serving = std::make_unique<hops::net::ServingStack>(server.get(), daemon.get(),
                                                      /*sink=*/nullptr);
  return serving->Start();
}

hops::Status Stack::Stop() {
  if (serving == nullptr) return hops::Status::OK();
  return serving->ShutdownOrdered();
}

}  // namespace perfbench
