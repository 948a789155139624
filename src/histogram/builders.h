// Histogram construction algorithms.
//
// - Trivial / equi-width / equi-depth: the classical baselines
//   (Piatetsky-Shapiro & Connell 1984), built over the *value order* of the
//   set (its stored entry order).
// - End-biased with an explicit high/low split (Definition 2.2).
// - V-OptHist (Section 4.1): exhaustive enumeration of all contiguous
//   partitions of the sorted frequency set; finds the v-optimal *serial*
//   histogram. O(M log M + C(M-1, beta-1)) — exponential in beta.
// - V-OptHistDP (extension, see DESIGN.md): dynamic program over prefixes of
//   the sorted set; provably the same optimum in O(M^2 * beta).
// - V-OptBiasHist (Section 4.2): near-linear selection-based search for the
//   v-optimal *end-biased* histogram, O(M + (beta-1) log M). The
//   explicit-split end-biased builder and the grouped variant still sort
//   all M entries, O(M log M).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "histogram/histogram.h"
#include "stats/frequency_set.h"
#include "util/status.h"

namespace hops {

// ---------------------------------------------------------------------------
// Grain sizes shared by the serial and parallel construction paths.
//
// The concurrency layer's determinism contract (util/thread_pool.h) requires
// work decompositions that depend only on the problem size — never on the
// thread count. These constants fix those decompositions, so a 1-thread and
// a 64-thread build of the same input produce bit-identical histograms.

/// Below this many entries, frequency-set index sorts stay on std::sort.
inline constexpr size_t kParallelSortGrain = 1u << 15;

/// Block length of the deterministic blocked prefix-sum construction. The
/// blocked association is used whenever M exceeds one block, whether the
/// blocks run serially or in parallel.
inline constexpr size_t kPrefixSumGrain = 1u << 16;

/// Minimum j-range (divide-and-conquer DP) or layer-chunk length (quadratic
/// DP) worth forking a task for.
inline constexpr size_t kVOptLayerGrain = 1u << 10;

/// \brief The ascending (frequency, index) sort order shared by every
/// v-optimal builder: index permutation sorting the set ascending with ties
/// broken by index (a strict total order, so the result is unique).
/// Parallelized above kParallelSortGrain; identical at any thread count.
std::vector<size_t> SortedFrequencyOrder(const FrequencySet& set);

/// \brief One bucket holding everything — the uniform-distribution
/// assumption.
Result<Histogram> BuildTrivialHistogram(FrequencySet set);

/// \brief Equal numbers of attribute values per bucket, contiguous in the
/// set's stored (value) order. Fails if num_buckets is 0 or > M.
Result<Histogram> BuildEquiWidthHistogram(FrequencySet set,
                                          size_t num_buckets);

/// \brief Contiguous value-order buckets with (approximately) equal total
/// tuple counts per bucket.
Result<Histogram> BuildEquiDepthHistogram(FrequencySet set,
                                          size_t num_buckets);

/// \brief End-biased histogram with the \p num_high highest and \p num_low
/// lowest frequencies in singleton univalued buckets; the remaining values
/// share one multivalued bucket. Requires num_high + num_low <= M, with the
/// multivalued bucket allowed to be absent when num_high + num_low == M.
/// Sorts all M entries by (frequency, index): O(M log M).
Result<Histogram> BuildEndBiasedHistogram(FrequencySet set, size_t num_high,
                                          size_t num_low);

/// \brief Options bounding the exhaustive search.
struct VOptSerialOptions {
  /// Refuse (ResourceExhausted) if the number of candidate partitions
  /// C(M-1, beta-1) exceeds this bound.
  uint64_t max_candidates = 500'000'000ULL;
};

/// \brief Outcome diagnostics shared by the v-optimal builders.
struct VOptDiagnostics {
  uint64_t candidates_examined = 0;
  double best_error = 0.0;  ///< S - S' of the returned histogram.
};

/// \brief Algorithm V-OptHist: the v-optimal serial histogram, by exhaustive
/// enumeration (Theorem 4.1).
Result<Histogram> BuildVOptSerialExhaustive(
    FrequencySet set, size_t num_buckets,
    const VOptSerialOptions& options = {},
    VOptDiagnostics* diagnostics = nullptr);

/// \brief The same optimum via dynamic programming, O(M^2 * beta).
Result<Histogram> BuildVOptSerialDP(FrequencySet set, size_t num_buckets,
                                    VOptDiagnostics* diagnostics = nullptr);

/// \brief The same optimum in O(M * beta * log M) by divide-and-conquer DP
/// optimization: the range error cost(i, j) satisfies the quadrangle
/// inequality, so each layer's optimal split index is monotone in j and the
/// layer can be filled by recursive halving. Property tests assert exact
/// agreement with the quadratic DP and the exhaustive search.
Result<Histogram> BuildVOptSerialDPFast(
    FrequencySet set, size_t num_buckets,
    VOptDiagnostics* diagnostics = nullptr);

/// \brief The (num_high, num_low) split chosen by V-OptBiasHist.
struct EndBiasedChoice {
  size_t num_high = 0;
  size_t num_low = 0;
  double error = 0.0;  ///< S - S' = P_mid * V_mid of the multivalued bucket.
};

/// \brief Algorithm V-OptBiasHist: the v-optimal end-biased histogram
/// (Theorem 4.2) in O(M + (beta-1) log M): std::nth_element selects the
/// beta-1 lowest and beta-1 highest entries in (frequency, index) order
/// and only those are sorted (the paper selects with a heap). Univalued
/// buckets are singletons — one stored value each, the DB2-style practice
/// the paper's storage discussion assumes. The result, bucket ids
/// included, equals BuildEndBiasedHistogram for the chosen split, apart
/// from the "v-opt-end-biased" label.
Result<Histogram> BuildVOptEndBiased(FrequencySet set, size_t num_buckets,
                                     EndBiasedChoice* choice = nullptr);

/// \brief Variant exploiting the full freedom of Definition 2.2: a
/// univalued bucket may hold EVERY value sharing one frequency, so each of
/// the beta-1 univalued buckets covers a whole run of tied extreme
/// frequencies. On tie-free data this equals BuildVOptEndBiased; with ties
/// (integer frequency sets) it is never worse and can be dramatically
/// better (e.g. a long run of frequency-1 values costs one bucket). The
/// price is storage: the bucket still lists all its member values in the
/// catalog. `choice` reports the number of high/low runs selected.
Result<Histogram> BuildVOptEndBiasedGrouped(
    FrequencySet set, size_t num_buckets,
    EndBiasedChoice* choice = nullptr);

}  // namespace hops
