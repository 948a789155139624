// CPU time the serving stack spends while the generator holds a load fixed:
// the process's CPU time minus the load-generator thread's, sampled at the
// edges of each measured window.
//
// Thread CPU clocks leave out time the hypervisor runs other guests on the
// vCPU (steal). On a shared host, wall-clock latency and throughput follow
// how much of the machine the neighbours take; the CPU the stack spends on
// a fixed load follows only the work the stack does.

#pragma once

#include <pthread.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "sample_stats.h"

namespace perfbench {

class CpuSampler {
 public:
  /// Samples at the start and end of each of \p windows (sorted, disjoint)
  /// from its own thread. The calling thread is taken to be the generator
  /// and its CPU time is left out.
  explicit CpuSampler(std::vector<Window> windows);
  /// Joins the sampling thread.
  ~CpuSampler();
  CpuSampler(const CpuSampler&) = delete;
  CpuSampler& operator=(const CpuSampler&) = delete;

  struct Spent {
    double cpu_ms = 0;  ///< stack CPU time
    double wall_s = 0;  ///< between the times the edges were sampled at
  };
  /// What the stack spent in each window. Call after the last window ended.
  std::vector<Spent> PerWindow();

 private:
  struct Edge {
    int64_t wall_ns = 0;
    int64_t cpu_ns = 0;
  };
  int64_t StackCpuNs() const;

  const std::vector<Window> windows_;
  clockid_t generator_clock_{};
  std::vector<Edge> edges_;  // written by thread_ only, two per window
  std::thread thread_;
};

}  // namespace perfbench
