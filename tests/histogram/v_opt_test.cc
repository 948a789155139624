#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "histogram/builders.h"
#include "histogram/self_join.h"
#include "histogram/serialization.h"
#include "stats/zipf.h"
#include "util/random.h"

namespace hops {
namespace {

FrequencySet MustSet(std::vector<Frequency> f) {
  auto r = FrequencySet::Make(std::move(f));
  EXPECT_TRUE(r.ok());
  return *std::move(r);
}

TEST(VOptSerialTest, GroupsByFrequencyProximity) {
  // {1, 2, 100, 101}: with 2 buckets the optimum is {1,2} | {100,101}
  // regardless of value positions.
  auto h = BuildVOptSerialExhaustive(MustSet({100, 1, 101, 2}), 2);
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(h->IsSerial());
  const auto& bz = h->bucketization();
  EXPECT_EQ(bz.bucket_of(1), bz.bucket_of(3));  // 1 with 2
  EXPECT_EQ(bz.bucket_of(0), bz.bucket_of(2));  // 100 with 101
  EXPECT_NE(bz.bucket_of(0), bz.bucket_of(1));
  EXPECT_DOUBLE_EQ(SelfJoinError(*h), 0.5 + 0.5);  // 2*0.25 per bucket
}

TEST(VOptSerialTest, BetaOneIsTrivialBucketization) {
  auto h = BuildVOptSerialExhaustive(MustSet({3, 1, 4}), 1);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->num_buckets(), 1u);
}

TEST(VOptSerialTest, BetaEqualsMGivesZeroError) {
  auto h = BuildVOptSerialExhaustive(MustSet({3, 1, 4, 1, 5}), 5);
  ASSERT_TRUE(h.ok());
  EXPECT_DOUBLE_EQ(SelfJoinError(*h), 0.0);
}

TEST(VOptSerialTest, BeatsOrMatchesEveryOtherBucketization) {
  // Exhaustive cross-check on a small set: the v-opt serial error must be
  // <= the error of every possible 2-bucket assignment (serial or not),
  // since self-join optimality is attained within serial histograms
  // (Theorem 3.1 applied to self-joins).
  std::vector<Frequency> freqs = {7, 1, 9, 4, 4, 12};
  auto best = BuildVOptSerialExhaustive(MustSet(freqs), 2);
  ASSERT_TRUE(best.ok());
  double best_err = SelfJoinError(*best);
  const size_t m = freqs.size();
  for (uint32_t mask = 1; mask + 1 < (1u << m); ++mask) {
    std::vector<uint32_t> assign(m);
    for (size_t i = 0; i < m; ++i) assign[i] = (mask >> i) & 1;
    auto b = Bucketization::FromAssignments(assign, 2);
    if (!b.ok()) continue;  // empty bucket
    auto h = Histogram::Make(MustSet(freqs), *b);
    ASSERT_TRUE(h.ok());
    EXPECT_LE(best_err, SelfJoinError(*h) + 1e-9)
        << "mask=" << mask;
  }
}

TEST(VOptSerialTest, DiagnosticsCountCandidates) {
  VOptDiagnostics diag;
  auto h =
      BuildVOptSerialExhaustive(MustSet({1, 2, 3, 4, 5}), 3, {}, &diag);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(diag.candidates_examined, 6u);  // C(4, 2)
  EXPECT_DOUBLE_EQ(diag.best_error, SelfJoinError(*h));
}

TEST(VOptSerialTest, ResourceLimitTriggers) {
  VOptSerialOptions options;
  options.max_candidates = 10;
  std::vector<Frequency> many(40);
  for (size_t i = 0; i < many.size(); ++i) {
    many[i] = static_cast<double>(i);
  }
  auto h = BuildVOptSerialExhaustive(MustSet(many), 5, options);
  EXPECT_TRUE(h.status().IsResourceExhausted());
}

TEST(VOptSerialTest, InvalidBeta) {
  EXPECT_FALSE(BuildVOptSerialExhaustive(MustSet({1, 2}), 0).ok());
  EXPECT_FALSE(BuildVOptSerialExhaustive(MustSet({1, 2}), 3).ok());
}

TEST(VOptSerialDPTest, MatchesExhaustiveOnRandomSets) {
  Rng rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    size_t m = 4 + static_cast<size_t>(rng.NextBounded(9));  // 4..12
    std::vector<Frequency> freqs(m);
    for (auto& f : freqs) {
      f = static_cast<double>(rng.NextBounded(50));
    }
    for (size_t beta = 1; beta <= std::min<size_t>(m, 5); ++beta) {
      VOptDiagnostics de, dd;
      auto he = BuildVOptSerialExhaustive(MustSet(freqs), beta, {}, &de);
      auto hd = BuildVOptSerialDP(MustSet(freqs), beta, &dd);
      ASSERT_TRUE(he.ok()) << he.status();
      ASSERT_TRUE(hd.ok()) << hd.status();
      EXPECT_NEAR(de.best_error, dd.best_error, 1e-9 + 1e-9 * de.best_error)
          << "trial=" << trial << " m=" << m << " beta=" << beta;
      EXPECT_NEAR(SelfJoinError(*he), SelfJoinError(*hd),
                  1e-9 + 1e-9 * de.best_error);
    }
  }
}

TEST(VOptSerialDPTest, HandlesLargerSetsThanExhaustive) {
  auto set = ZipfFrequencySet({1000.0, 200, 1.0});
  ASSERT_TRUE(set.ok());
  auto h = BuildVOptSerialDP(*set, 20);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->num_buckets(), 20u);
  EXPECT_TRUE(h->IsSerial());
}

TEST(VOptSerialDPTest, ErrorDecreasesMonotonicallyInBeta) {
  auto set = ZipfFrequencySet({1000.0, 60, 1.5});
  ASSERT_TRUE(set.ok());
  double prev = -1;
  for (size_t beta = 1; beta <= 12; ++beta) {
    auto h = BuildVOptSerialDP(*set, beta);
    ASSERT_TRUE(h.ok());
    double err = SelfJoinError(*h);
    if (prev >= 0) {
      EXPECT_LE(err, prev + 1e-9);
    }
    prev = err;
  }
}

TEST(VOptSerialDPFastTest, MatchesQuadraticDPOnRandomSets) {
  Rng rng(31337);
  for (int trial = 0; trial < 30; ++trial) {
    size_t m = 3 + static_cast<size_t>(rng.NextBounded(40));
    std::vector<Frequency> freqs(m);
    for (auto& f : freqs) {
      f = static_cast<double>(rng.NextBounded(100));
    }
    for (size_t beta : {1u, 2u, 3u, 5u, 8u}) {
      if (beta > m) continue;
      VOptDiagnostics slow, fast;
      auto hs = BuildVOptSerialDP(MustSet(freqs), beta, &slow);
      auto hf = BuildVOptSerialDPFast(MustSet(freqs), beta, &fast);
      ASSERT_TRUE(hs.ok() && hf.ok());
      EXPECT_NEAR(slow.best_error, fast.best_error,
                  1e-9 + 1e-9 * slow.best_error)
          << "trial=" << trial << " m=" << m << " beta=" << beta;
      // The D&C layer evaluates strictly fewer candidates on larger inputs.
      if (m >= 30 && beta >= 5) {
        EXPECT_LT(fast.candidates_examined, slow.candidates_examined);
      }
    }
  }
}

TEST(VOptSerialDPFastTest, MatchesExhaustiveOptimum) {
  Rng rng(515151);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Frequency> freqs(9);
    for (auto& f : freqs) {
      f = static_cast<double>(rng.NextBounded(40));
    }
    for (size_t beta = 1; beta <= 4; ++beta) {
      VOptDiagnostics de, df;
      auto he = BuildVOptSerialExhaustive(MustSet(freqs), beta, {}, &de);
      auto hf = BuildVOptSerialDPFast(MustSet(freqs), beta, &df);
      ASSERT_TRUE(he.ok() && hf.ok());
      EXPECT_NEAR(de.best_error, df.best_error,
                  1e-9 + 1e-9 * de.best_error);
    }
  }
}

TEST(VOptSerialDPFastTest, LargeInputStaysSerialAndOptimalShaped) {
  auto set = ZipfFrequencySet({10000.0, 2000, 1.2});
  ASSERT_TRUE(set.ok());
  auto h = BuildVOptSerialDPFast(*set, 24);
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(h->IsSerial());
  EXPECT_EQ(h->num_buckets(), 24u);
}

TEST(VOptEndBiasedTest, PicksExtremesNotMiddles) {
  // {100, 50, 10, 10, 10, 1}: with beta=3 (two singletons), the optimal
  // end-biased histogram stores 100 and 50 exactly (high variance there).
  EndBiasedChoice choice;
  auto h =
      BuildVOptEndBiased(MustSet({100, 50, 10, 10, 10, 1}), 3, &choice);
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(h->IsEndBiased());
  EXPECT_EQ(choice.num_high + choice.num_low, 2u);
  EXPECT_DOUBLE_EQ(h->ApproxFrequency(0), 100.0);
  EXPECT_DOUBLE_EQ(h->ApproxFrequency(1), 50.0);
}

TEST(VOptEndBiasedTest, ChoosesLowSingletonsWhenLowsSpread) {
  // Reverse-Zipf-like: many equal highs, two stray lows.
  EndBiasedChoice choice;
  auto h = BuildVOptEndBiased(MustSet({50, 50, 50, 50, 3, 1}), 3, &choice);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(choice.num_low, 2u);
  EXPECT_EQ(choice.num_high, 0u);
  EXPECT_DOUBLE_EQ(SelfJoinError(*h), 0.0);  // remaining bucket univalued
}

TEST(VOptEndBiasedTest, OptimalWithinEndBiasedClass) {
  // Brute force over all (h, l) splits must not beat the builder.
  std::vector<Frequency> freqs = {23, 17, 17, 9, 4, 4, 2, 1};
  const size_t beta = 4;
  EndBiasedChoice choice;
  auto best = BuildVOptEndBiased(MustSet(freqs), beta, &choice);
  ASSERT_TRUE(best.ok());
  double best_err = SelfJoinError(*best);
  for (size_t high = 0; high + 1 <= beta; ++high) {
    size_t low = beta - 1 - high;
    auto h = BuildEndBiasedHistogram(MustSet(freqs), high, low);
    ASSERT_TRUE(h.ok());
    EXPECT_GE(SelfJoinError(*h) + 1e-9, best_err)
        << "high=" << high << " low=" << low;
  }
  EXPECT_DOUBLE_EQ(choice.error, best_err);
}

TEST(VOptEndBiasedTest, BetaOneFallsBackToTrivial) {
  EndBiasedChoice choice;
  auto h = BuildVOptEndBiased(MustSet({1, 2, 3}), 1, &choice);
  ASSERT_TRUE(h.ok());
  EXPECT_TRUE(h->IsTrivial());
  EXPECT_EQ(choice.num_high, 0u);
  EXPECT_EQ(choice.num_low, 0u);
}

TEST(VOptEndBiasedTest, BetaEqualsMZeroError) {
  auto h = BuildVOptEndBiased(MustSet({9, 7, 5, 3}), 4);
  ASSERT_TRUE(h.ok());
  EXPECT_DOUBLE_EQ(SelfJoinError(*h), 0.0);
}

TEST(VOptEndBiasedTest, NeverBeatsVOptSerial) {
  // End-biased is a subclass of serial: its optimum cannot be better.
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Frequency> freqs(10);
    for (auto& f : freqs) {
      f = static_cast<double>(rng.NextBounded(100));
    }
    for (size_t beta = 2; beta <= 4; ++beta) {
      auto serial = BuildVOptSerialExhaustive(MustSet(freqs), beta);
      auto biased = BuildVOptEndBiased(MustSet(freqs), beta);
      ASSERT_TRUE(serial.ok());
      ASSERT_TRUE(biased.ok());
      EXPECT_LE(SelfJoinError(*serial), SelfJoinError(*biased) + 1e-9);
    }
  }
}

TEST(VOptEndBiasedGroupedTest, TiedExtremesShareBuckets) {
  // {9, 9, 5, 5, 5, 1} with beta = 3: grouping puts {9, 9} in one univalued
  // bucket and {1} in another, leaving {5, 5, 5} univalued too — zero
  // error. The singleton variant cannot do this.
  EndBiasedChoice grouped_choice, singleton_choice;
  auto grouped = BuildVOptEndBiasedGrouped(MustSet({9, 9, 5, 5, 5, 1}), 3,
                                           &grouped_choice);
  auto singleton =
      BuildVOptEndBiased(MustSet({9, 9, 5, 5, 5, 1}), 3, &singleton_choice);
  ASSERT_TRUE(grouped.ok() && singleton.ok());
  EXPECT_DOUBLE_EQ(SelfJoinError(*grouped), 0.0);
  EXPECT_GT(SelfJoinError(*singleton), 0.0);
  EXPECT_TRUE(grouped->IsEndBiased());
  EXPECT_TRUE(grouped->IsSerial());
}

TEST(VOptEndBiasedGroupedTest, NeverWorseThanSingletonVariant) {
  Rng rng(2468);
  for (int trial = 0; trial < 30; ++trial) {
    size_t m = 4 + rng.NextBounded(30);
    std::vector<Frequency> freqs(m);
    for (auto& f : freqs) {
      f = static_cast<double>(rng.NextBounded(8));  // many ties
    }
    for (size_t beta = 1; beta <= std::min<size_t>(m, 6); ++beta) {
      auto grouped = BuildVOptEndBiasedGrouped(MustSet(freqs), beta);
      auto singleton = BuildVOptEndBiased(MustSet(freqs), beta);
      ASSERT_TRUE(grouped.ok() && singleton.ok());
      EXPECT_LE(SelfJoinError(*grouped), SelfJoinError(*singleton) + 1e-9)
          << "trial " << trial << " beta " << beta;
    }
  }
}

TEST(VOptEndBiasedGroupedTest, EqualsSingletonVariantWithoutTies) {
  // Distinct frequencies: runs are singletons, both variants coincide.
  std::vector<Frequency> freqs = {1, 3, 7, 15, 31, 63, 127};
  for (size_t beta = 1; beta <= 5; ++beta) {
    auto grouped = BuildVOptEndBiasedGrouped(MustSet(freqs), beta);
    auto singleton = BuildVOptEndBiased(MustSet(freqs), beta);
    ASSERT_TRUE(grouped.ok() && singleton.ok());
    EXPECT_DOUBLE_EQ(SelfJoinError(*grouped), SelfJoinError(*singleton));
  }
}

TEST(VOptEndBiasedGroupedTest, AllValuesEqualCollapsesToOneBucket) {
  auto h = BuildVOptEndBiasedGrouped(MustSet({4, 4, 4, 4}), 3);
  ASSERT_TRUE(h.ok());
  EXPECT_DOUBLE_EQ(SelfJoinError(*h), 0.0);
  EXPECT_LE(h->num_buckets(), 3u);
}

TEST(VOptEndBiasedTest, LabelsReflectConstruction) {
  auto h = BuildVOptEndBiased(MustSet({5, 1, 9}), 2);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->label(), "v-opt-end-biased");
}

// A random integer frequency set of size m: few distinct counts (heavy
// ties, zeros included), Zipf-like counts (distinct heads, tied tails), or
// a tie-free shuffled sequence.
std::vector<Frequency> RandomEndBiasedInput(Rng* rng, size_t m, int kind) {
  std::vector<Frequency> freqs(m);
  if (kind == 0) {
    const uint64_t distinct = 1 + rng->NextBounded(6);
    for (auto& f : freqs) f = static_cast<double>(rng->NextBounded(distinct));
  } else if (kind == 1) {
    for (size_t i = 0; i < m; ++i) {
      freqs[i] = std::floor(1000.0 / static_cast<double>(i + 1));
    }
    rng->Shuffle(&freqs);
  } else {
    for (size_t i = 0; i < m; ++i) {
      freqs[i] = static_cast<double>(3 * i + rng->NextBounded(3));
    }
    rng->Shuffle(&freqs);
  }
  return freqs;
}

TEST(VOptEndBiasedTest, IdenticalToTheExplicitSplitBuilder) {
  // The selection-based builder must produce exactly what the explicit
  // (num_high, num_low) builder produces for the split it chose: the same
  // bucket ids, the same BucketStats bits, and the same catalog bytes. The
  // beta sweep runs both the partial-selection and the full-sort paths.
  auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  Rng rng(19);
  for (int trial = 0; trial < 150; ++trial) {
    const size_t m = 1 + rng.NextBounded(300);
    const std::vector<Frequency> freqs =
        RandomEndBiasedInput(&rng, m, trial % 3);
    std::vector<int64_t> ids(m);
    for (size_t i = 0; i < m; ++i) ids[i] = 7 * static_cast<int64_t>(i) - 100;
    for (size_t beta : {size_t{1}, size_t{2}, m / 2, (m + 1) / 2 + 1, m}) {
      if (beta < 1 || beta > m) continue;
      SCOPED_TRACE("trial " + std::to_string(trial) + " m " +
                   std::to_string(m) + " beta " + std::to_string(beta));
      EndBiasedChoice choice;
      auto got = BuildVOptEndBiased(MustSet(freqs), beta, &choice);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(choice.num_high + choice.num_low, beta - 1);
      auto want =
          BuildEndBiasedHistogram(MustSet(freqs), choice.num_high,
                                  choice.num_low);
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(got->label(), beta == 1 ? "trivial" : "v-opt-end-biased");
      EXPECT_EQ(got->bucketization(), want->bucketization());
      ASSERT_EQ(got->bucket_stats().size(), want->bucket_stats().size());
      for (size_t b = 0; b < got->bucket_stats().size(); ++b) {
        const BucketStats& g = got->bucket_stats()[b];
        const BucketStats& w = want->bucket_stats()[b];
        EXPECT_EQ(g.count, w.count) << "bucket " << b;
        EXPECT_EQ(bits(g.sum), bits(w.sum)) << "bucket " << b;
        EXPECT_EQ(bits(g.sum_squares), bits(w.sum_squares)) << "bucket " << b;
        EXPECT_EQ(bits(g.mean), bits(w.mean)) << "bucket " << b;
        EXPECT_EQ(bits(g.variance), bits(w.variance)) << "bucket " << b;
        EXPECT_EQ(bits(g.min), bits(w.min)) << "bucket " << b;
        EXPECT_EQ(bits(g.max), bits(w.max)) << "bucket " << b;
      }
      auto got_compact = CatalogHistogram::FromHistogram(*got, ids);
      auto want_compact = CatalogHistogram::FromHistogram(*want, ids);
      ASSERT_TRUE(got_compact.ok() && want_compact.ok());
      EXPECT_EQ(got_compact->Encode(), want_compact->Encode());
    }
  }
}

}  // namespace
}  // namespace hops
