// The one sample-statistics helper every timing in the benchmark goes
// through: a median, the highest percentile that still has at least ten
// samples beyond it, and n. There is no best-of-N and no clamping; failed
// operations enter the sample as +infinity so they count as missing every
// latency limit.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kFailedSample = std::numeric_limits<double>::infinity();

/// Nearest-rank quantile of an ascending sample; 0 for an empty one.
inline double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

struct SampleStats {
  size_t n = 0;
  double median = 0.0;
  /// Highest of p99.9, p99, p95, p90, p75 with >= 10 samples above it;
  /// 0.5 (the median) when n is below 20.
  double tail_quantile = 0.5;
  double tail = 0.0;
  /// p99 itself, and whether the sample supports it (n >= 1000).
  double p99 = 0.0;
  bool p99_supported = false;
};

inline SampleStats Summarize(std::vector<double> samples) {
  SampleStats stats;
  stats.n = samples.size();
  if (samples.empty()) return stats;
  std::sort(samples.begin(), samples.end());
  stats.median = Quantile(samples, 0.5);
  stats.tail = stats.median;
  const double n = static_cast<double>(samples.size());
  for (double q : {0.999, 0.99, 0.95, 0.90, 0.75}) {
    if (n * (1.0 - q) >= 10.0) {
      stats.tail_quantile = q;
      stats.tail = Quantile(samples, q);
      break;
    }
  }
  stats.p99 = Quantile(samples, 0.99);
  stats.p99_supported = n * 0.01 >= 10.0;
  return stats;
}

/// Median of a small set of repeated measurements (set-up times, replays).
inline double Median(std::vector<double> samples) {
  return Summarize(std::move(samples)).median;
}

/// A sample with the steady-clock time it belongs to.
struct TimedSample {
  int64_t at_ns = 0;
  double value = 0.0;
};

/// A measured stretch of time, [start_ns, end_ns).
struct Window {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Whether \p at_ns falls in one of the (sorted, disjoint) \p windows.
inline bool InWindows(const std::vector<Window>& windows, int64_t at_ns) {
  const auto after = std::upper_bound(
      windows.begin(), windows.end(), at_ns,
      [](int64_t at, const Window& w) { return at < w.start_ns; });
  return after != windows.begin() && at_ns < std::prev(after)->end_ns;
}

/// Groups \p samples by the (sorted, disjoint) \p windows they fall in.
inline std::vector<std::vector<double>> Bucket(
    const std::vector<TimedSample>& samples, const std::vector<Window>& windows) {
  std::vector<std::vector<double>> buckets(windows.size());
  for (const TimedSample& s : samples) {
    const auto after = std::upper_bound(
        windows.begin(), windows.end(), s.at_ns,
        [](int64_t at, const Window& w) { return at < w.start_ns; });
    if (after == windows.begin()) continue;
    const size_t w = static_cast<size_t>(after - windows.begin()) - 1;
    if (s.at_ns < windows[w].end_ns) buckets[w].push_back(s.value);
  }
  return buckets;
}

/// The median, over \p windows, of each window's quantile \p q. Windows
/// with fewer than ten samples beyond q are left out; when none is left, q
/// of all samples in the windows. A stall on the host then moves one
/// window, not the reported figure.
inline double WindowedQuantile(const std::vector<TimedSample>& samples,
                               const std::vector<Window>& windows, double q) {
  std::vector<std::vector<double>> buckets = Bucket(samples, windows);
  const size_t needed = static_cast<size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
  std::vector<double> per_window;
  std::vector<double> all;
  for (std::vector<double>& bucket : buckets) {
    all.insert(all.end(), bucket.begin(), bucket.end());
    if (bucket.size() < needed) continue;
    std::sort(bucket.begin(), bucket.end());
    per_window.push_back(Quantile(bucket, q));
  }
  if (per_window.empty()) {
    std::sort(all.begin(), all.end());
    return Quantile(all, q);
  }
  return Median(std::move(per_window));
}

/// The median, over \p windows, of the window's summed values per second.
inline double WindowedRate(const std::vector<TimedSample>& amounts,
                           const std::vector<Window>& windows) {
  const std::vector<std::vector<double>> buckets = Bucket(amounts, windows);
  std::vector<double> rates;
  for (size_t w = 0; w < windows.size(); ++w) {
    double sum = 0;
    for (double v : buckets[w]) sum += v;
    rates.push_back(sum / (static_cast<double>(windows[w].end_ns - windows[w].start_ns) / 1e9));
  }
  return Median(std::move(rates));
}

}  // namespace perfbench
