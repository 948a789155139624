// JSON perf harness for the parallel statistics-construction pipeline.
//
// Times serial vs parallel batched histogram construction across
// M ∈ {1e3 .. 1e6} and β ∈ {5 .. 500} (each combo: several Zipf "columns"
// × every feasible builder kind, fanned through BuildHistogramBatch), checks
// the parallel results are bit-identical to the serial baseline, and writes
// BENCH_histograms.json so the perf trajectory is tracked across PRs.
//
// The headline cell (M = 100000, beta = 100) is timed kHeadlineReps times,
// alternating serial-first and parallel-first, and its 2x gate reads the
// 25th percentile of the per-rep speedups, so a noise band that straddles
// 2x fails the gate instead of passing on a lucky run.
//
// Usage: bench_json [output.json] [--quick]
//   --quick restricts the sweep (CI smoke). Exit code is non-zero when any
//   parallel result deviates from its serial counterpart.

#include "bench_json.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "histogram/parallel_build.h"
#include "stats/zipf.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace hops {

// JsonWriter lives in json_writer.cc (shared with bench_estimation).

namespace {

// ---------------------------------------------------------------------------
// Harness

/// Byte-level fingerprint of a histogram: label, bucket count, and the raw
/// bucket assignment of every set entry. Two histograms with equal
/// fingerprints are identical partitions with identical construction labels.
std::string Fingerprint(const Histogram& h) {
  std::string fp = h.label();
  fp.push_back('\0');
  fp += std::to_string(h.num_buckets());
  fp.push_back('\0');
  const auto assignments = h.bucketization().assignments();
  fp.append(reinterpret_cast<const char*>(assignments.data()),
            assignments.size_bytes());
  return fp;
}

/// Builder kinds worth running at (m, beta): the asymptotically heavy
/// builders are dropped once their estimated evaluation count exceeds a
/// wall-time budget (the JSON records which kinds each combo ran).
std::vector<HistogramBuilderKind> FeasibleKinds(size_t m, size_t beta) {
  std::vector<HistogramBuilderKind> kinds = {
      HistogramBuilderKind::kTrivial,
      HistogramBuilderKind::kEquiWidth,
      HistogramBuilderKind::kEquiDepth,
      HistogramBuilderKind::kVOptEndBiased,
      HistogramBuilderKind::kVOptEndBiasedGrouped,
  };
  const double md = static_cast<double>(m);
  const double bd = static_cast<double>(beta);
  if (md * md * bd <= 6e8) {
    kinds.push_back(HistogramBuilderKind::kVOptSerialDP);
  }
  if (md * bd * std::log2(md) <= 1.2e9) {
    kinds.push_back(HistogramBuilderKind::kVOptSerialDPFast);
  }
  return kinds;
}

struct ComboResult {
  size_t m = 0;
  size_t beta = 0;
  size_t num_requests = 0;
  std::vector<HistogramBuilderKind> kinds;
  double serial_seconds = 0;    // median over reps
  double parallel_seconds = 0;  // median over reps
  double speedup = 0;           // median over reps
  std::vector<double> speedups;  // one per rep, ascending
  uint64_t evaluations = 0;
  bool identical = true;
};

constexpr size_t kReplicas = 4;  // distinct Zipf "columns" per builder kind
constexpr size_t kHeadlineM = 100000;
constexpr size_t kHeadlineBeta = 100;
constexpr size_t kHeadlineReps = 5;

/// Linear-interpolated quantile \p q of an ascending, non-empty sample.
double Quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Quantile(values, 0.5);
}

/// One (m, beta) cell: \p reps times, build the request batch twice (same
/// inputs), run the serial baseline and the parallel pipeline — serial
/// first on even reps, parallel first on odd ones — and compare
/// fingerprints.
ComboResult RunCombo(size_t m, size_t beta, size_t reps) {
  ComboResult r;
  r.m = m;
  r.beta = beta;
  r.kinds = FeasibleKinds(m, beta);

  std::vector<FrequencySet> columns;
  columns.reserve(kReplicas);
  for (size_t c = 0; c < kReplicas; ++c) {
    ZipfParams params;
    params.total = 10.0 * static_cast<double>(m);
    params.num_values = m;
    params.skew = 0.5 + 0.25 * static_cast<double>(c);
    auto set = ZipfFrequencySet(params, /*integer_valued=*/true);
    set.status().Check();
    columns.push_back(*std::move(set));
  }

  auto make_requests = [&](std::vector<VOptDiagnostics>* diags) {
    std::vector<HistogramBuildRequest> requests;
    requests.reserve(r.kinds.size() * kReplicas);
    size_t d = 0;
    for (HistogramBuilderKind kind : r.kinds) {
      for (size_t c = 0; c < kReplicas; ++c) {
        HistogramBuildRequest req;
        req.set = columns[c];
        req.num_buckets = std::min(beta, columns[c].size());
        req.kind = kind;
        req.diagnostics = diags ? &(*diags)[d++] : nullptr;
        requests.push_back(std::move(req));
      }
    }
    return requests;
  };

  r.num_requests = r.kinds.size() * kReplicas;

  std::vector<double> serial_seconds, parallel_seconds;
  for (size_t rep = 0; rep < reps; ++rep) {
    std::vector<Result<Histogram>> serial_results, parallel_results;
    std::vector<VOptDiagnostics> diags(r.num_requests);
    auto run_serial = [&] {
      // The baseline: the batch loop and every nested parallel region run
      // inline on this thread.
      ScopedSerial serial_region;
      Stopwatch sw;
      serial_results = BuildHistogramBatch(make_requests(nullptr));
      serial_seconds.push_back(sw.ElapsedSeconds());
    };
    auto run_parallel = [&] {
      Stopwatch sw;
      parallel_results = BuildHistogramBatch(make_requests(&diags), {});
      parallel_seconds.push_back(sw.ElapsedSeconds());
    };
    if (rep % 2 == 0) {
      run_serial();
      run_parallel();
    } else {
      run_parallel();
      run_serial();
    }
    r.speedups.push_back(parallel_seconds.back() > 0
                             ? serial_seconds.back() / parallel_seconds.back()
                             : 0);
    r.evaluations = 0;
    for (const VOptDiagnostics& d : diags) {
      r.evaluations += d.candidates_examined;
    }
    for (size_t i = 0; i < serial_results.size(); ++i) {
      serial_results[i].status().Check();
      parallel_results[i].status().Check();
      if (Fingerprint(*serial_results[i]) !=
          Fingerprint(*parallel_results[i])) {
        r.identical = false;
      }
    }
  }
  std::sort(r.speedups.begin(), r.speedups.end());
  r.serial_seconds = Median(serial_seconds);
  r.parallel_seconds = Median(parallel_seconds);
  r.speedup = Quantile(r.speedups, 0.5);
  return r;
}

void WriteCombo(JsonWriter* w, const ComboResult& r) {
  w->BeginObject();
  w->Key("m");
  w->UInt(r.m);
  w->Key("beta");
  w->UInt(r.beta);
  w->Key("replicas");
  w->UInt(kReplicas);
  w->Key("requests");
  w->UInt(r.num_requests);
  w->Key("builders");
  w->BeginArray();
  for (HistogramBuilderKind k : r.kinds) {
    w->String(HistogramBuilderKindToString(k));
  }
  w->EndArray();
  w->Key("serial_seconds");
  w->Double(r.serial_seconds);
  w->Key("parallel_seconds");
  w->Double(r.parallel_seconds);
  w->Key("speedup");
  w->Double(r.speedup);
  w->Key("evaluations");
  w->UInt(r.evaluations);
  w->Key("identical");
  w->Bool(r.identical);
  w->EndObject();
}

int Run(int argc, char** argv) {
  std::string output = "BENCH_histograms.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      output = argv[i];
    }
  }

  const size_t threads = ThreadPool::Global().num_threads();
  std::vector<size_t> ms = quick ? std::vector<size_t>{1000, 10000, 100000}
                                 : std::vector<size_t>{1000, 10000, 100000,
                                                       1000000};
  std::vector<size_t> betas =
      quick ? std::vector<size_t>{5, 100} : std::vector<size_t>{5, 20, 100,
                                                                500};

  std::cout << "bench_json: " << threads << " pool threads, "
            << (quick ? "quick" : "full") << " sweep\n";

  JsonWriter w;
  w.BeginObject();
  w.Key("bench");
  w.String("histogram_construction");
  WriteBenchProvenance(&w);
  w.Key("threads");
  w.UInt(threads);
  w.Key("hardware_concurrency");
  w.UInt(std::thread::hardware_concurrency());
  w.Key("quick");
  w.Bool(quick);
  w.Key("runs");
  w.BeginArray();

  bool all_identical = true;
  ComboResult headline;
  bool have_headline = false;
  for (size_t m : ms) {
    for (size_t beta : betas) {
      const bool is_headline = m == kHeadlineM && beta == kHeadlineBeta;
      ComboResult r = RunCombo(m, beta, is_headline ? kHeadlineReps : 1);
      WriteCombo(&w, r);
      all_identical = all_identical && r.identical;
      if (is_headline) {
        headline = r;
        have_headline = true;
      }
      std::cout << "  M=" << m << " beta=" << beta << ": serial "
                << r.serial_seconds << "s, parallel " << r.parallel_seconds
                << "s, speedup " << r.speedup << "x";
      if (r.speedups.size() > 1) {
        std::cout << " (median of " << r.speedups.size() << ", p25 "
                  << Quantile(r.speedups, 0.25) << "x, p75 "
                  << Quantile(r.speedups, 0.75) << "x)";
      }
      std::cout << ", identical " << (r.identical ? "yes" : "NO") << "\n";
    }
  }
  w.EndArray();

  // The acceptance headline: batched construction at M=100k, beta=100 over
  // every feasible builder must be >= 2x faster than serial and
  // byte-identical. The gate takes the 25th percentile of the per-rep
  // speedups, so it fails when the noise band reaches below 2x; with fewer
  // than 4 pool threads the target is not measured (null).
  w.Key("headline");
  if (have_headline) {
    w.BeginObject();
    w.Key("m");
    w.UInt(headline.m);
    w.Key("beta");
    w.UInt(headline.beta);
    w.Key("n");
    w.UInt(headline.speedups.size());
    w.Key("speedup_median");
    w.Double(headline.speedup);
    w.Key("speedup_p25");
    w.Double(Quantile(headline.speedups, 0.25));
    w.Key("speedup_p75");
    w.Double(Quantile(headline.speedups, 0.75));
    w.Key("identical");
    w.Bool(headline.identical);
    w.Key("meets_2x_target");
    if (threads < 4) {
      w.Null();
    } else {
      w.Bool(Quantile(headline.speedups, 0.25) >= 2.0);
    }
    w.EndObject();
  } else {
    w.Null();
  }
  w.EndObject();

  std::ofstream out(output);
  if (!out) {
    std::cerr << "bench_json: cannot open " << output << "\n";
    return 2;
  }
  out << w.str() << "\n";
  out.close();
  std::cout << "wrote " << output << "\n";
  if (!all_identical) {
    std::cerr << "bench_json: PARALLEL RESULTS DEVIATE FROM SERIAL\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hops

int main(int argc, char** argv) { return hops::Run(argc, argv); }
