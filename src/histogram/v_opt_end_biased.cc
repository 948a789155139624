// Algorithm V-OptBiasHist (Section 4.2): the v-optimal end-biased histogram.
//
// Since univalued buckets have zero variance, the best end-biased histogram
// with beta buckets is the (h highest, l lowest) split with h + l = beta - 1
// whose *multivalued* bucket has the least P*V (Proposition 3.1). Only the
// beta-1 largest and beta-1 smallest frequencies can ever be selected, so
// selecting those two ends (std::nth_element, O(M)) and sorting only them
// suffices: O(M + (beta-1) log M), the bound of Theorem 4.2.

#include <algorithm>
#include <cstddef>
#include <numeric>

#include "histogram/builders.h"
#include "util/math.h"

namespace hops {

Result<Histogram> BuildVOptEndBiased(FrequencySet set, size_t num_buckets,
                                     EndBiasedChoice* choice) {
  const size_t m = set.size();
  if (m == 0) {
    return Status::InvalidArgument("cannot bucketize an empty set");
  }
  if (num_buckets == 0 || num_buckets > m) {
    return Status::InvalidArgument(
        "num_buckets must be in [1, M]; got " + std::to_string(num_buckets) +
        " for M=" + std::to_string(m));
  }
  const size_t u = num_buckets - 1;  // univalued singleton buckets
  if (u == 0) {
    if (choice != nullptr) {
      HOPS_ASSIGN_OR_RETURN(Histogram triv, BuildTrivialHistogram(set));
      choice->num_high = choice->num_low = 0;
      choice->error = triv.bucket_stats()[0].error_contribution();
      return triv;
    }
    return BuildTrivialHistogram(std::move(set));
  }

  // Bring the u smallest entries to the front of `order` and the u largest
  // to its back, each end sorted, in the strict (frequency, index) order
  // BuildEndBiasedHistogram sorts by — so both ends, and with them every
  // bucket id below, are exactly those of the full sort. When the ends
  // overlap (2u >= M) one full sort is cheaper than two selections.
  auto less = [&](size_t a, size_t b) {
    if (set[a] != set[b]) return set[a] < set[b];
    return a < b;
  };
  std::vector<size_t> order(m);
  std::iota(order.begin(), order.end(), size_t{0});
  const auto low_end = order.begin() + static_cast<std::ptrdiff_t>(u);
  const auto high_begin = order.end() - static_cast<std::ptrdiff_t>(u);
  if (2 * u >= m) {
    std::sort(order.begin(), order.end(), less);
  } else {
    std::nth_element(order.begin(), low_end, order.end(), less);
    std::nth_element(low_end, high_begin, order.end(), less);
    std::sort(order.begin(), low_end, less);
    std::sort(high_begin, order.end(), less);
  }
  // The i-th lowest entry is order[i]; the j-th highest is order[m-1-j].
  auto lowest = [&](size_t i) { return order[i]; };
  auto highest = [&](size_t j) { return order[m - 1 - j]; };

  // Prefix sums over the selected extremes, lowest ascending and highest
  // descending.
  auto prefixes = [&](auto item) {
    std::vector<double> s(u + 1, 0.0), ss(u + 1, 0.0);
    KahanSum as, ass;
    for (size_t i = 0; i < u; ++i) {
      double f = set[item(i)];
      as.Add(f);
      ass.Add(f * f);
      s[i + 1] = as.Value();
      ss[i + 1] = ass.Value();
    }
    return std::pair(std::move(s), std::move(ss));
  };
  auto [low_sum, low_sum_sq] = prefixes(lowest);
  auto [high_sum, high_sum_sq] = prefixes(highest);

  KahanSum total_s, total_ss;
  for (size_t i = 0; i < m; ++i) {
    total_s.Add(set[i]);
    total_ss.Add(set[i] * set[i]);
  }

  // Evaluate every (h highest, l lowest) split with h + l = u. Because
  // u <= m - 1, the l lowest and h highest positions never cross, and the
  // multivalued bucket keeps m - u >= 1 entries. Iterate h from high to low
  // so that ties favor storing the *highest* frequencies explicitly (what
  // DB2-style catalogs do, and what the sampling-based construction of
  // Section 4.2 can actually find).
  const double mid_count = static_cast<double>(m - u);
  double best_error = 0.0;
  size_t best_h = 0;
  bool first = true;
  for (size_t h = u + 1; h-- > 0;) {
    const size_t l = u - h;
    double mid_sum = total_s.Value() - high_sum[h] - low_sum[l];
    double mid_sum_sq =
        total_ss.Value() - high_sum_sq[h] - low_sum_sq[l];
    double err = mid_sum_sq - mid_sum * mid_sum / mid_count;
    if (err < 0) err = 0.0;
    if (first || err < best_error) {
      first = false;
      best_error = err;
      best_h = h;
    }
  }

  const size_t best_l = u - best_h;
  if (choice != nullptr) {
    choice->num_high = best_h;
    choice->num_low = best_l;
    choice->error = best_error;
  }
  // Bucket ids as BuildEndBiasedHistogram numbers them along the sorted
  // order: the l lowest get 0..l-1, the multivalued bucket l, and the h
  // highest l+1..u ascending (so the j-th highest gets u - j).
  std::vector<uint32_t> bucket_of(m, static_cast<uint32_t>(best_l));
  for (size_t i = 0; i < best_l; ++i) {
    bucket_of[lowest(i)] = static_cast<uint32_t>(i);
  }
  for (size_t j = 0; j < best_h; ++j) {
    bucket_of[highest(j)] = static_cast<uint32_t>(u - j);
  }
  HOPS_ASSIGN_OR_RETURN(
      Bucketization bz,
      Bucketization::FromAssignments(std::move(bucket_of), num_buckets));
  return Histogram::Make(std::move(set), std::move(bz), "v-opt-end-biased");
}

}  // namespace hops
