// A fixed-size thread pool with per-worker work-stealing deques, a
// count-down Latch, fork-join helpers (ParallelFor / ParallelInvoke), and
// cooperative help-waiting so nested parallel regions cannot deadlock.
//
// Design notes (see DESIGN.md §6 "Concurrency model"):
//
//  * Each worker owns a deque. A worker pushes/pops at the back of its own
//    deque (LIFO, cache-friendly for fork-join recursion) and steals from the
//    front of a victim's deque (FIFO, steals the oldest = biggest subtree).
//    External submissions round-robin across the deques.
//  * Blocking waits "help": a thread waiting on a Latch drains pending pool
//    tasks while it waits, so a saturated pool full of waiting parents still
//    makes progress — the classic nested fork-join deadlock cannot occur.
//  * Determinism contract: the fork-join helpers assign work by *index
//    ranges fixed by the problem size and grain, never by thread count or
//    scheduling order*. Parallel callers that (a) write disjoint output
//    ranges and (b) combine results with order-insensitive reductions get
//    results bit-identical to a serial run at any pool size (including 1).
//  * ScopedSerial disables parallel execution on the current thread (the
//    fork-join helpers then run inline); used by benches to time the serial
//    baseline inside the same process.
//
// The pool is exception-aware: an exception thrown by a ParallelFor /
// ParallelInvoke body is captured and rethrown on the calling thread (first
// one wins; the remaining work still runs to completion so the latch
// accounting stays sound).

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hops {

/// \brief Single-use count-down latch (C++20 std::latch with a peek and a
/// timed wait, which the pool's help-waiting loop needs). Safe to destroy
/// as soon as a Wait()/WaitFor() observed readiness: the zero-crossing
/// CountDown finishes all member access before any waiter can return.
class Latch {
 public:
  explicit Latch(size_t count) : remaining_(count) {}

  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  /// Decrements the counter by \p n; wakes waiters at zero.
  void CountDown(size_t n = 1);

  /// True once the counter reached zero.
  bool Ready() const { return remaining_.load(std::memory_order_acquire) == 0; }

  /// Blocks until the counter reaches zero.
  void Wait();

  /// Blocks until the counter reaches zero or ~\p micros elapsed. Returns
  /// Ready().
  bool WaitFor(int64_t micros);

 private:
  std::atomic<size_t> remaining_;
  std::mutex mutex_;
  std::condition_variable cv_;
};

/// \brief Fixed-size work-stealing thread pool.
class ThreadPool {
 public:
  /// Spawns \p num_threads workers (0 is clamped to 1).
  explicit ThreadPool(size_t num_threads);

  /// Joins all workers; pending tasks are drained first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool, created on first use with DefaultThreadCount()
  /// workers. Never destroyed before process exit.
  static ThreadPool& Global();

  /// HOPS_THREADS environment override if set and positive, otherwise
  /// std::thread::hardware_concurrency() (min 1).
  static size_t DefaultThreadCount();

  size_t num_threads() const { return workers_.size(); }

  /// Schedules \p task for execution. Fire-and-forget: the task must not
  /// throw (fork-join helpers below wrap bodies and capture exceptions).
  /// When called from a worker thread the task goes to that worker's own
  /// deque (LIFO), otherwise to a round-robin victim.
  void Submit(std::function<void()> task);

  /// Runs one pending task on the calling thread if any is available.
  /// Returns false when every deque was empty.
  bool Help();

  /// Blocks until \p latch is ready, draining pool tasks while waiting.
  void HelpWhileWaiting(Latch& latch);

  /// Parallel loop over [begin, end): the range is split into fixed
  /// ceil(n/grain) chunks and \p body is invoked as body(chunk_begin,
  /// chunk_end), concurrently, on the pool plus the calling thread. Chunk
  /// boundaries depend only on (begin, end, grain) — see the determinism
  /// contract above. Runs inline when the range fits one grain, the pool is
  /// size 1, or a ScopedSerial region is active. Exceptions from \p body are
  /// rethrown here (first one wins).
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& body);

  /// Fork-join pair: runs \p left inline and \p right on the pool, returns
  /// when both finished. Serial inline under ScopedSerial.
  void ParallelInvoke(const std::function<void()>& left,
                      const std::function<void()>& right);

  /// True while a ScopedSerial region is active on this thread.
  static bool SerialRegionActive();

 private:
  friend class ScopedSerial;

  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(size_t worker_index);
  bool PopTask(std::function<void()>* task);
  void Push(std::function<void()> task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> next_queue_{0};
  std::atomic<size_t> pending_{0};
};

/// \brief RAII guard: while alive on a thread, the pool's fork-join helpers
/// run inline on that thread (the serial baseline). Nestable.
class ScopedSerial {
 public:
  ScopedSerial();
  ~ScopedSerial();
  ScopedSerial(const ScopedSerial&) = delete;
  ScopedSerial& operator=(const ScopedSerial&) = delete;
};

}  // namespace hops
