// Equivalence tests for the batched, pool-parallel histogram pipeline: for
// every builder kind the parallel batch result must be bit-identical to the
// serial baseline (the determinism contract of histogram/parallel_build.h).

#include "histogram/parallel_build.h"

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "histogram/builders.h"
#include "stats/frequency_set.h"
#include "stats/zipf.h"
#include "util/thread_pool.h"

namespace hops {
namespace {

FrequencySet MustZipf(size_t m, double skew, double total_factor = 10.0) {
  ZipfParams params;
  params.total = total_factor * static_cast<double>(m);
  params.num_values = m;
  params.skew = skew;
  auto set = ZipfFrequencySet(params, /*integer_valued=*/true);
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  return *std::move(set);
}

FrequencySet MustRandomSet(size_t m, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(1.0, 1000.0);
  std::vector<Frequency> freqs(m);
  for (auto& f : freqs) f = dist(rng);
  auto set = FrequencySet::Make(std::move(freqs));
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  return *std::move(set);
}

/// True when the two histograms are indistinguishable: same construction
/// label, same bucket count, and the exact same bucket assignment for every
/// set entry.
void ExpectIdentical(const Histogram& a, const Histogram& b,
                     const std::string& context) {
  EXPECT_EQ(a.label(), b.label()) << context;
  ASSERT_EQ(a.num_buckets(), b.num_buckets()) << context;
  const auto aa = a.bucketization().assignments();
  const auto ba = b.bucketization().assignments();
  ASSERT_EQ(aa.size(), ba.size()) << context;
  for (size_t i = 0; i < aa.size(); ++i) {
    ASSERT_EQ(aa[i], ba[i]) << context << " at entry " << i;
  }
}

std::vector<HistogramBuildRequest> MakeRequests(
    const std::vector<FrequencySet>& sets,
    const std::vector<HistogramBuilderKind>& kinds, size_t num_buckets) {
  std::vector<HistogramBuildRequest> requests;
  for (HistogramBuilderKind kind : kinds) {
    for (const FrequencySet& set : sets) {
      HistogramBuildRequest req;
      req.set = set;
      req.num_buckets = std::min(num_buckets, set.size());
      req.kind = kind;
      requests.push_back(std::move(req));
    }
  }
  return requests;
}

void CheckParallelMatchesSerial(const std::vector<FrequencySet>& sets,
                                const std::vector<HistogramBuilderKind>& kinds,
                                size_t num_buckets) {
  std::vector<Result<Histogram>> serial;
  {
    ScopedSerial serial_region;
    serial = BuildHistogramBatch(MakeRequests(sets, kinds, num_buckets));
  }
  auto parallel = BuildHistogramBatch(MakeRequests(sets, kinds, num_buckets));
  ASSERT_EQ(serial.size(), parallel.size());
  size_t r = 0;
  for (HistogramBuilderKind kind : kinds) {
    for (size_t s = 0; s < sets.size(); ++s, ++r) {
      const std::string context =
          std::string(HistogramBuilderKindToString(kind)) + " set " +
          std::to_string(s) + " beta " + std::to_string(num_buckets);
      ASSERT_TRUE(serial[r].ok()) << context << ": "
                                  << serial[r].status().ToString();
      ASSERT_TRUE(parallel[r].ok()) << context << ": "
                                    << parallel[r].status().ToString();
      ExpectIdentical(*serial[r], *parallel[r], context);
    }
  }
}

/// Builder kinds that are feasible on small/medium sets (the exhaustive
/// builder is exponential; it gets its own tiny-set test).
std::vector<HistogramBuilderKind> PolynomialKinds() {
  return {
      HistogramBuilderKind::kTrivial,
      HistogramBuilderKind::kEquiWidth,
      HistogramBuilderKind::kEquiDepth,
      HistogramBuilderKind::kVOptEndBiased,
      HistogramBuilderKind::kVOptEndBiasedGrouped,
      HistogramBuilderKind::kVOptSerialDP,
      HistogramBuilderKind::kVOptSerialDPFast,
  };
}

TEST(ParallelBuildTest, ParallelMatchesSerialOnZipfColumns) {
  std::vector<FrequencySet> sets;
  for (double skew : {0.0, 0.5, 1.0, 2.0}) {
    sets.push_back(MustZipf(/*m=*/503, skew));
  }
  CheckParallelMatchesSerial(sets, PolynomialKinds(), /*num_buckets=*/20);
}

TEST(ParallelBuildTest, ParallelMatchesSerialOnRandomSets) {
  std::vector<FrequencySet> sets;
  for (uint32_t seed = 1; seed <= 6; ++seed) {
    sets.push_back(MustRandomSet(/*m=*/241 + 37 * seed, seed));
  }
  for (size_t beta : {size_t{1}, size_t{7}, size_t{64}}) {
    CheckParallelMatchesSerial(sets, PolynomialKinds(), beta);
  }
}

TEST(ParallelBuildTest, BetaOneAndBetaMEdgeCases) {
  std::vector<FrequencySet> sets = {MustZipf(/*m=*/97, /*skew=*/1.0),
                                    MustRandomSet(/*m=*/97, /*seed=*/11)};
  // beta = 1: every builder degenerates to the trivial single bucket.
  CheckParallelMatchesSerial(sets, PolynomialKinds(), /*num_buckets=*/1);
  // beta = M: every entry can get its own bucket (zero error partition).
  CheckParallelMatchesSerial(sets, PolynomialKinds(), /*num_buckets=*/97);
}

TEST(ParallelBuildTest, LargeSetExercisesIntraBuildParallelism) {
  // Big enough that SortedFrequencyOrder and BuildPrefixSums take their
  // parallel paths (m > kParallelSortGrain and m > kPrefixSumGrain).
  std::vector<FrequencySet> sets = {MustZipf(/*m=*/100000, /*skew=*/1.0)};
  std::vector<HistogramBuilderKind> kinds = {
      HistogramBuilderKind::kEquiDepth,
      HistogramBuilderKind::kVOptEndBiased,
      HistogramBuilderKind::kVOptSerialDPFast,
  };
  CheckParallelMatchesSerial(sets, kinds, /*num_buckets=*/50);
}

TEST(ParallelBuildTest, ExhaustiveBuilderMatchesOnTinySets) {
  std::vector<FrequencySet> sets = {MustRandomSet(/*m=*/9, /*seed=*/3),
                                    MustRandomSet(/*m=*/10, /*seed=*/4)};
  CheckParallelMatchesSerial(
      sets, {HistogramBuilderKind::kVOptSerialExhaustive}, /*num_buckets=*/3);
}

TEST(ParallelBuildTest, ResultsAlignWithRequestsAndMixKinds) {
  // A deliberately heterogeneous batch: results must align index-for-index.
  std::vector<HistogramBuildRequest> requests;
  FrequencySet zipf = MustZipf(/*m=*/128, /*skew=*/1.0);
  for (size_t beta : {size_t{2}, size_t{5}, size_t{16}}) {
    for (HistogramBuilderKind kind : PolynomialKinds()) {
      HistogramBuildRequest req;
      req.set = zipf;
      req.num_buckets = beta;
      req.kind = kind;
      requests.push_back(std::move(req));
    }
  }
  auto results = BuildHistogramBatch(std::move(requests));
  ASSERT_EQ(results.size(), 3 * PolynomialKinds().size());
  size_t r = 0;
  for (size_t beta : {size_t{2}, size_t{5}, size_t{16}}) {
    for (HistogramBuilderKind kind : PolynomialKinds()) {
      ASSERT_TRUE(results[r].ok()) << HistogramBuilderKindToString(kind);
      // The trivial builder always produces one bucket; the others may merge
      // ties, so they respect the beta budget without necessarily using it.
      if (kind == HistogramBuilderKind::kTrivial) {
        EXPECT_EQ(results[r]->num_buckets(), 1u);
      } else {
        EXPECT_LE(results[r]->num_buckets(), beta)
            << HistogramBuilderKindToString(kind);
        EXPECT_GE(results[r]->num_buckets(), 1u);
      }
      EXPECT_EQ(results[r]->label(), HistogramBuilderKindToString(kind));
      ++r;
    }
  }
}

TEST(ParallelBuildTest, PerRequestFailuresDoNotAbortTheBatch) {
  // An invalid request (empty frequency set) fails alone; its neighbors
  // still build.
  std::vector<HistogramBuildRequest> requests(3);
  requests[0].set = MustZipf(/*m=*/50, /*skew=*/1.0);
  requests[0].num_buckets = 5;
  // requests[1].set stays empty -> the builder must report an error.
  requests[1].num_buckets = 5;
  requests[2].set = MustZipf(/*m=*/50, /*skew=*/0.5);
  requests[2].num_buckets = 5;
  auto results = BuildHistogramBatch(std::move(requests));
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
}

TEST(ParallelBuildTest, DiagnosticsAreFilledPerRequest) {
  std::vector<VOptDiagnostics> diags(2);
  std::vector<HistogramBuildRequest> requests(2);
  requests[0].set = MustZipf(/*m=*/200, /*skew=*/1.0);
  requests[0].num_buckets = 10;
  requests[0].kind = HistogramBuilderKind::kVOptSerialDP;
  requests[0].diagnostics = &diags[0];
  requests[1].set = MustZipf(/*m=*/200, /*skew=*/1.0);
  requests[1].num_buckets = 10;
  requests[1].kind = HistogramBuilderKind::kVOptSerialDPFast;
  requests[1].diagnostics = &diags[1];
  auto results = BuildHistogramBatch(std::move(requests));
  ASSERT_TRUE(results[0].ok());
  ASSERT_TRUE(results[1].ok());
  EXPECT_GT(diags[0].candidates_examined, 0u);
  EXPECT_GT(diags[1].candidates_examined, 0u);
  // The divide-and-conquer variant must not examine more candidates than the
  // quadratic DP on the same problem.
  EXPECT_LE(diags[1].candidates_examined, diags[0].candidates_examined);
  EXPECT_EQ(results[0]->num_buckets(), 10u);
  EXPECT_EQ(results[1]->num_buckets(), 10u);
}

TEST(ParallelBuildTest, ExplicitPoolAndDefaultPoolAgree) {
  ThreadPool pool(2);
  std::vector<FrequencySet> sets = {MustZipf(/*m=*/300, /*skew=*/1.5)};
  ParallelBuildOptions with_pool;
  with_pool.pool = &pool;
  auto a = BuildHistogramBatch(
      MakeRequests(sets, PolynomialKinds(), /*num_buckets=*/12), with_pool);
  auto b = BuildHistogramBatch(
      MakeRequests(sets, PolynomialKinds(), /*num_buckets=*/12));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok());
    ASSERT_TRUE(b[i].ok());
    ExpectIdentical(*a[i], *b[i], "pool size 2 vs global pool");
  }
}

}  // namespace
}  // namespace hops
