#include "refresh/update_log.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "refresh/durability.h"
#include "telemetry/trace.h"

namespace hops {

Status CheckDeltaWeight(double weight) {
  if (std::fabs(weight) <= kMaxDeltaWeight) return Status::OK();  // not NaN
  char message[96];
  std::snprintf(message, sizeof(message), "weight %.17g is outside [-%g, %g]",
                weight, kMaxDeltaWeight, kMaxDeltaWeight);
  return Status::InvalidArgument(message);
}

UpdateLog::UpdateLog(size_t capacity) : capacity_(std::max<size_t>(1, capacity)) {}

Status UpdateLog::WaitForSpaceLocked(std::unique_lock<std::mutex>& lock,
                                     size_t needed) {
  auto have_space = [&] { return capacity_ - records_.size() >= needed; };
  if (!closed_ && !have_space()) {
    // Count the *blocked interval*, not wake-ups or records: one increment
    // and one span per actual wait, even when the wait spans several
    // consumer drains before enough space frees up.
    producer_waits_.Increment();
    // Span the actual blocked interval (backpressure is one of the §9
    // instrumented hot-path waits); the span records at destruction with
    // relaxed atomics only, so doing it under the log mutex is harmless.
    static telemetry::SpanSite& wait_site =
        telemetry::GetSpanSite("UpdateLog.BackpressureWait");
    telemetry::TraceSpan span(wait_site);
    not_full_.wait(lock, [&] { return closed_ || have_space(); });
  }
  if (closed_) {
    return Status::ResourceExhausted("update log is closed");
  }
  return Status::OK();
}

void UpdateLog::CommitLocked(std::span<const UpdateRecord> records) {
  records_.insert(records_.end(), records.begin(), records.end());
  enqueued_.Increment(records.size());
  high_water_ = std::max(high_water_, records_.size());
}

Status UpdateLog::AdmitLocked(std::span<const UpdateRecord> records) {
  if (durability_ == nullptr) {
    CommitLocked(records);
    return Status::OK();
  }
  // Write-ahead: the hook stamps LSNs into copies and persists them before
  // the queue (and therefore the producer's ack) ever sees the records.
  scratch_.assign(records.begin(), records.end());
  HOPS_RETURN_NOT_OK(durability_->PersistDeltas(std::span<UpdateRecord>(scratch_)));
  CommitLocked(std::span<const UpdateRecord>(scratch_.data(), scratch_.size()));
  return Status::OK();
}

Status UpdateLog::Record(const UpdateRecord& record) {
  HOPS_RETURN_NOT_OK(CheckDeltaWeight(record.weight));
  std::unique_lock<std::mutex> lock(mutex_);
  HOPS_RETURN_NOT_OK(WaitForSpaceLocked(lock, 1));
  return AdmitLocked(std::span<const UpdateRecord>(&record, 1));
}

Status UpdateLog::RecordBatch(std::span<const UpdateRecord> records) {
  for (size_t i = 0; i < records.size(); ++i) {
    if (Status weight = CheckDeltaWeight(records[i].weight); !weight.ok()) {
      return Status::InvalidArgument("update " + std::to_string(i) + ": " +
                                     weight.message());
    }
  }
  if (records.empty()) return Status::OK();
  // Single lock acquisition for the whole batch: reserve-then-commit in
  // capacity-sized chunks. A close racing the batch can interrupt only at
  // a chunk boundary, so a batch <= capacity is all-or-nothing and the
  // failure Status reports exactly how many records were applied.
  std::unique_lock<std::mutex> lock(mutex_);
  size_t applied = 0;
  while (applied < records.size()) {
    const size_t chunk = std::min(records.size() - applied, capacity_);
    Status wait = WaitForSpaceLocked(lock, chunk);
    if (!wait.ok()) {
      return Status::ResourceExhausted(
          "update log closed; applied " + std::to_string(applied) + " of " +
          std::to_string(records.size()) + " batch records");
    }
    Status admitted = AdmitLocked(records.subspan(applied, chunk));
    if (!admitted.ok()) {
      return Status::Internal(
          "durability hook refused batch (applied " + std::to_string(applied) +
          " of " + std::to_string(records.size()) +
          " records): " + admitted.message());
    }
    applied += chunk;
  }
  return Status::OK();
}

bool UpdateLog::TryRecord(const UpdateRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!CheckDeltaWeight(record.weight).ok() || closed_ ||
      records_.size() >= capacity_ ||
      !AdmitLocked(std::span<const UpdateRecord>(&record, 1)).ok()) {
    rejected_.Increment();
    return false;
  }
  return true;
}

size_t UpdateLog::Drain(std::vector<UpdateRecord>* out, size_t max_records) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = records_.size();
  if (max_records > 0) n = std::min(n, max_records);
  if (n == 0) return 0;
  if (out != nullptr) {
    out->insert(out->end(), records_.begin(),
                records_.begin() + static_cast<ptrdiff_t>(n));
  }
  records_.erase(records_.begin(), records_.begin() + static_cast<ptrdiff_t>(n));
  drained_.Increment(n);
  // Space freed: wake every producer blocked on a full log.
  not_full_.notify_all();
  return n;
}

void UpdateLog::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  closed_ = true;
  not_full_.notify_all();
}

void UpdateLog::SetDurabilityHook(DurabilityHook* hook) {
  std::lock_guard<std::mutex> lock(mutex_);
  durability_ = hook;
}

size_t UpdateLog::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

bool UpdateLog::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

UpdateLogStats UpdateLog::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  UpdateLogStats s;
  s.enqueued = enqueued_.Value();
  s.drained = drained_.Value();
  s.rejected = rejected_.Value();
  s.producer_waits = producer_waits_.Value();
  s.depth = records_.size();
  s.high_water = high_water_;
  s.capacity = capacity_;
  s.closed = closed_;
  return s;
}

}  // namespace hops
