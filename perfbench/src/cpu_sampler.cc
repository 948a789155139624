#include "cpu_sampler.h"

#include <time.h>

#include <chrono>

#include "probes.h"

namespace perfbench {
namespace {

int64_t ClockNs(clockid_t clock) {
  timespec now{};
  clock_gettime(clock, &now);
  return static_cast<int64_t>(now.tv_sec) * 1'000'000'000 + now.tv_nsec;
}

}  // namespace

CpuSampler::CpuSampler(std::vector<Window> windows) : windows_(std::move(windows)) {
  pthread_getcpuclockid(pthread_self(), &generator_clock_);
  edges_.reserve(2 * windows_.size());
  thread_ = std::thread([this] {
    for (const Window& window : windows_) {
      for (int64_t at : {window.start_ns, window.end_ns}) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(at)));
        edges_.push_back({NowNs(), StackCpuNs()});
      }
    }
  });
}

CpuSampler::~CpuSampler() {
  if (thread_.joinable()) thread_.join();
}

int64_t CpuSampler::StackCpuNs() const {
  return ClockNs(CLOCK_PROCESS_CPUTIME_ID) - ClockNs(generator_clock_);
}

std::vector<CpuSampler::Spent> CpuSampler::PerWindow() {
  if (thread_.joinable()) thread_.join();
  std::vector<Spent> spent;
  for (size_t i = 0; i + 1 < edges_.size(); i += 2) {
    spent.push_back(
        {static_cast<double>(edges_[i + 1].cpu_ns - edges_[i].cpu_ns) / 1e6,
         static_cast<double>(edges_[i + 1].wall_ns - edges_[i].wall_ns) / 1e9});
  }
  return spent;
}

}  // namespace perfbench
