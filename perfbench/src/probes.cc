#include "probes.h"

namespace perfbench {
namespace {

// Set by SequencedHook::PersistDeltas on the server worker thread that runs
// the /update handler, and read back by the handler wrapper on that thread.
thread_local uint64_t tls_admitted_seq = 0;

// A small number per server worker thread, in order of first /healthz.
uint64_t WorkerNumber() {
  static std::atomic<uint64_t> next{0};
  thread_local const uint64_t number = next.fetch_add(1);
  return number;
}

}  // namespace

void SnapshotRing::Remember(
    std::shared_ptr<const hops::CatalogSnapshot> snapshot) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return;
  if (!ring_.empty() &&
      ring_.back()->source_version() == snapshot->source_version()) {
    return;
  }
  ring_.push_back(std::move(snapshot));
  if (ring_.size() > kCapacity) ring_.pop_front();
}

void SnapshotRing::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  ring_.clear();
}

std::shared_ptr<const hops::CatalogSnapshot> SnapshotRing::Find(
    uint64_t version, const hops::SnapshotStore& store) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& snapshot : ring_) {
      if (snapshot->source_version() == version) return snapshot;
    }
  }
  // Published by a tick that has not returned to its probe yet.
  std::shared_ptr<const hops::CatalogSnapshot> current = store.Current();
  return current->source_version() == version ? current : nullptr;
}

hops::net::HttpHandler WrapHandler(hops::net::HttpHandler inner,
                                   Probes* probes) {
  return [inner = std::move(inner), probes](const hops::net::HttpRequest& request) {
    const bool traced = probes->tracing.load(std::memory_order_relaxed);
    const bool is_update = request.target == "/update";
    tls_admitted_seq = 0;
    const int64_t start = traced ? NowNs() : 0;
    hops::net::HttpResponse response = inner(request);
    if (traced) {
      const int64_t elapsed = NowNs() - start;
      if (is_update) {
        probes->update_handle_us.Add(static_cast<double>(elapsed) / 1e3);
      } else if (request.target == "/estimate") {
        probes->estimate_handle_us.Add(static_cast<double>(elapsed) / 1e3);
      }
      response.extra_headers.emplace_back("x-bench-handle-ns",
                                          std::to_string(elapsed));
    }
    if (request.target == "/healthz") {
      response.extra_headers.emplace_back("x-bench-worker",
                                          std::to_string(WorkerNumber()));
    }
    if (is_update && tls_admitted_seq != 0) {
      response.extra_headers.emplace_back("x-bench-seq",
                                          std::to_string(tls_admitted_seq));
    }
    return response;
  };
}

hops::Status SequencedHook::PersistDeltas(std::span<hops::UpdateRecord> records) {
  if (next_ != nullptr) {
    const bool traced = probes_->tracing.load(std::memory_order_relaxed);
    const int64_t start = traced ? NowNs() : 0;
    hops::Status status = next_->PersistDeltas(records);
    if (traced) {
      probes_->wal_append_us.Add(static_cast<double>(NowNs() - start) / 1e3);
    }
    if (!status.ok()) return status;
  }
  admitted_ += records.size();
  tls_admitted_seq = admitted_;
  return hops::Status::OK();
}

hops::Status SequencedHook::PersistRegistration(
    hops::RefreshColumnId id, const std::string& table,
    const std::string& column, std::span<const int64_t> value_ids,
    std::span<const double> frequencies, uint64_t* lsn_out) {
  if (next_ == nullptr) {
    *lsn_out = 0;
    return hops::Status::OK();
  }
  return next_->PersistRegistration(id, table, column, value_ids, frequencies,
                                    lsn_out);
}

hops::Result<hops::RefreshTickReport> TickProbe::Tick() {
  const bool traced = probes_->tracing.load(std::memory_order_relaxed);
  if (traced) {
    const uint64_t depth = manager_->pending_update_records();
    uint64_t seen = probes_->queue_depth_max.load(std::memory_order_relaxed);
    while (depth > seen && !probes_->queue_depth_max.compare_exchange_weak(
                               seen, depth, std::memory_order_relaxed)) {
    }
  }
  const int64_t start = NowNs();
  hops::Result<hops::RefreshTickReport> report = manager_->Tick();
  const int64_t end = NowNs();
  const uint64_t drained = manager_->update_log().stats().drained;
  if (traced) probes_->tick_ms.Add(static_cast<double>(end - start) / 1e6);
  if (report.ok() && report->republished) {
    probes_->published.Remember(store_->Current());
  }
  std::lock_guard<std::mutex> lock(probes_->tick_mutex);
  probes_->tick_log.push_back(TickRecord{end, drained});
  return report;
}

}  // namespace perfbench
