// Bench-harness JSON helpers. The JsonWriter itself was promoted into the
// library (util/json.h) when the network serving layer (src/net/) started
// rendering responses with it; what remains here is the provenance header
// every BENCH_*.json carries, and the nearest-rank quantile the latency and
// q-error figures report.

#pragma once

#include <string>
#include <vector>

#include "util/json.h"

namespace hops {

/// \brief ISO-8601 UTC timestamp ("2026-08-06T12:34:56Z") for bench
/// provenance headers.
std::string BenchTimestampUtc();

/// \brief Source revision for bench provenance: $HOPS_GIT_REV when set
/// (CI passes it), otherwise `git rev-parse --short=12 HEAD`, otherwise
/// "unknown". Never fails.
std::string BenchGitRev();

/// \brief Emits the shared provenance fields every BENCH_*.json carries:
///   "timestamp_utc": when the run happened,
///   "git_rev":       what code produced it.
/// Call right after the top-level BeginObject().
void WriteBenchProvenance(JsonWriter* writer);

/// \brief Nearest-rank quantile \p q in [0, 1] of an ascending sample: the
/// element at index round(q * (n - 1)), or 0 for an empty sample.
double NearestRankQuantile(const std::vector<double>& sorted, double q);

}  // namespace hops
