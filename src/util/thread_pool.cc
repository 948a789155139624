#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>

namespace hops {

namespace {

/// Which pool (if any) the current thread belongs to, and its worker index.
struct WorkerIdentity {
  ThreadPool* pool = nullptr;
  size_t index = 0;
};
thread_local WorkerIdentity t_identity;

/// Nesting depth of ScopedSerial regions on this thread.
thread_local int t_serial_depth = 0;

}  // namespace

// ---------------------------------------------------------------------------
// Latch

void Latch::CountDown(size_t n) {
  if (n == 0) return;
  // The decrement and the wake both happen under the mutex, and waiters
  // only return while holding it. This is what makes the latch safe to
  // destroy the moment a Wait() returns: the zero-crossing CountDown can
  // touch no member after it releases the mutex, and it cannot release the
  // mutex while a waiter is between wake-up and return. A lock-free
  // decrement + notify-after-unlock is faster but lets a woken waiter
  // destroy the latch under the notifier (a real race, found by TSan).
  std::lock_guard<std::mutex> lock(mutex_);
  const size_t old = remaining_.fetch_sub(n, std::memory_order_acq_rel);
  if (old == n) cv_.notify_all();
}

void Latch::Wait() {
  // No lock-free fast path: returning without taking the mutex would let
  // the caller destroy the latch while the final CountDown still holds it.
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return Ready(); });
}

bool Latch::WaitFor(int64_t micros) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait_for(lock, std::chrono::microseconds(micros),
               [&] { return Ready(); });
  return Ready();
}

// ---------------------------------------------------------------------------
// ThreadPool

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  queues_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  sleep_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ThreadPool& ThreadPool::Global() {
  // Deliberately leaked: outlives every static destructor that might still
  // want to run a parallel region at process exit.
  static ThreadPool* pool = new ThreadPool(DefaultThreadCount());
  return *pool;
}

size_t ThreadPool::DefaultThreadCount() {
  if (const char* env = std::getenv("HOPS_THREADS")) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && parsed > 0) return static_cast<size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

void ThreadPool::Push(std::function<void()> task) {
  size_t qi;
  if (t_identity.pool == this) {
    qi = t_identity.index;  // LIFO locality for fork-join recursion.
  } else {
    qi = next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  }
  {
    std::lock_guard<std::mutex> lock(queues_[qi]->mutex);
    queues_[qi]->tasks.push_back(std::move(task));
  }
  pending_.fetch_add(1, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  sleep_cv_.notify_one();
}

void ThreadPool::Submit(std::function<void()> task) { Push(std::move(task)); }

bool ThreadPool::PopTask(std::function<void()>* task) {
  const size_t n = queues_.size();
  const bool is_worker = t_identity.pool == this;
  const size_t start = is_worker ? t_identity.index : 0;
  for (size_t offset = 0; offset < n; ++offset) {
    WorkerQueue& q = *queues_[(start + offset) % n];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (q.tasks.empty()) continue;
    if (is_worker && offset == 0) {
      // Own deque: newest first (the subtree just forked).
      *task = std::move(q.tasks.back());
      q.tasks.pop_back();
    } else {
      // Steal the oldest task — typically the largest pending subtree.
      *task = std::move(q.tasks.front());
      q.tasks.pop_front();
    }
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    return true;
  }
  return false;
}

bool ThreadPool::Help() {
  std::function<void()> task;
  if (!PopTask(&task)) return false;
  task();
  return true;
}

void ThreadPool::HelpWhileWaiting(Latch& latch) {
  while (!latch.Ready()) {
    if (!Help()) {
      latch.WaitFor(/*micros=*/200);
    }
  }
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  t_identity = WorkerIdentity{this, worker_index};
  std::function<void()> task;
  while (true) {
    if (PopTask(&task)) {
      task();
      task = nullptr;
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    sleep_cv_.wait(lock, [&] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
  }
}

bool ThreadPool::SerialRegionActive() { return t_serial_depth > 0; }

// ---------------------------------------------------------------------------
// Fork-join helpers

namespace {

/// Shared state of one ParallelFor region. Kept alive by shared_ptr so a
/// straggler helper task that wakes after the region completed only touches
/// the atomic chunk counter.
struct ParallelForControl {
  ParallelForControl(size_t begin_in, size_t end_in, size_t grain_in,
                     size_t num_chunks_in,
                     std::function<void(size_t, size_t)> body_in)
      : begin(begin_in),
        end(end_in),
        grain(grain_in),
        num_chunks(num_chunks_in),
        body(std::move(body_in)),
        latch(num_chunks_in) {}

  const size_t begin;
  const size_t end;
  const size_t grain;
  const size_t num_chunks;
  const std::function<void(size_t, size_t)> body;
  Latch latch;
  std::atomic<size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;

  void RecordError() {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (!error) error = std::current_exception();
  }

  /// Claims and runs chunks until none remain. Chunk boundaries are fixed
  /// by (begin, end, grain) alone, so the work decomposition — and any
  /// result written to disjoint per-chunk outputs — is independent of the
  /// number of threads and of scheduling order.
  void RunChunks() {
    for (;;) {
      const size_t chunk = next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) return;
      const size_t b = begin + chunk * grain;
      const size_t e = std::min(end, b + grain);
      try {
        body(b, e);
      } catch (...) {
        RecordError();
      }
      latch.CountDown();
    }
  }
};

}  // namespace

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t, size_t)>& body) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const size_t n = end - begin;
  const size_t num_chunks = (n + grain - 1) / grain;
  if (num_chunks <= 1 || num_threads() <= 1 || SerialRegionActive()) {
    body(begin, end);
    return;
  }
  auto control = std::make_shared<ParallelForControl>(begin, end, grain,
                                                      num_chunks, body);
  const size_t helpers = std::min(num_threads(), num_chunks - 1);
  for (size_t i = 0; i < helpers; ++i) {
    Submit([control] { control->RunChunks(); });
  }
  control->RunChunks();  // The caller participates.
  HelpWhileWaiting(control->latch);
  if (control->error) std::rethrow_exception(control->error);
}

void ThreadPool::ParallelInvoke(const std::function<void()>& left,
                                const std::function<void()>& right) {
  if (num_threads() <= 1 || SerialRegionActive()) {
    left();
    right();
    return;
  }
  struct InvokeControl {
    Latch latch{1};
    std::mutex error_mutex;
    std::exception_ptr error;
  };
  auto control = std::make_shared<InvokeControl>();
  Submit([control, right] {
    try {
      right();
    } catch (...) {
      std::lock_guard<std::mutex> lock(control->error_mutex);
      if (!control->error) control->error = std::current_exception();
    }
    control->latch.CountDown();
  });
  std::exception_ptr left_error;
  try {
    left();
  } catch (...) {
    left_error = std::current_exception();
  }
  HelpWhileWaiting(control->latch);
  if (left_error) std::rethrow_exception(left_error);
  if (control->error) std::rethrow_exception(control->error);
}

// ---------------------------------------------------------------------------
// ScopedSerial

ScopedSerial::ScopedSerial() { ++t_serial_depth; }
ScopedSerial::~ScopedSerial() { --t_serial_depth; }

}  // namespace hops
