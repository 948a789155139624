// Run-time sampling-based join-size estimation — the third technique family
// of Section 1 (Haas & Swami; Lipton, Naughton & Schneider). "Sampling is
// quite expensive and, therefore, its practicality is questionable ...
// Nevertheless, it often results in highly accurate estimates even in a
// high-update environment and avoids storing any statistical information."
// Implemented so the experiments can put numbers on that trade-off against
// catalog histograms.

#pragma once

#include <cstdint>
#include <string>

#include "engine/relation.h"
#include "util/status.h"

namespace hops {

/// \brief Controls for cross-sample join estimation.
struct SamplingJoinOptions {
  size_t left_sample = 200;
  size_t right_sample = 200;
  uint64_t seed = 0x5a31;
};

/// \brief Estimate and its precision statistics.
struct SamplingJoinEstimate {
  double estimate = 0.0;      ///< Scaled cross-sample join count.
  double sample_matches = 0;  ///< Raw matches between the two samples.
  size_t left_sampled = 0;
  size_t right_sampled = 0;
};

/// \brief Estimates |R ⋈ S| on R.column_left = S.column_right by joining
/// uniform samples of both sides and scaling by the inverse sampling
/// fractions (unbiased: every matching tuple pair survives into the sample
/// join with probability (n_l/N_l)(n_r/N_r)).
Result<SamplingJoinEstimate> EstimateJoinSizeBySampling(
    const Relation& left, const std::string& column_left,
    const Relation& right, const std::string& column_right,
    const SamplingJoinOptions& options = {});

}  // namespace hops
