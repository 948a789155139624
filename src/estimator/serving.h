// Snapshot-based estimation serving (DESIGN.md §7 "Serving path").
//
// These are the entry points an optimizer hits thousands of times per
// workload. They operate on a CatalogSnapshot (engine/catalog_snapshot.h):
// statistics are already decoded and compiled, columns are addressed by
// dense interned ids, and the whole snapshot is immutable — so estimates
// are lock-free, allocation-light, and safe to fan across threads.
//
// Determinism contract: every function here is bit-identical to its
// Catalog/ColumnStatistics counterpart in selectivity.h / join_estimator.h
// on the same statistics. The serving layer changes the data layout and the
// asymptotics (O(log n) range lookups via compiled prefix sums), never the
// estimate. bench/bench_estimation.cc enforces this with a fingerprint
// check against the frozen linear-scan reference.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "engine/catalog_snapshot.h"
#include "engine/value.h"
#include "estimator/join_estimator.h"
#include "estimator/selectivity.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace hops {

/// \brief Estimated |sigma_{col = value}(R)| — binary search on the dense
/// compiled key array.
double EstimateEqualitySelection(const CompiledColumnStats& stats,
                                 const Value& value);

/// \brief Estimated |sigma_{col != value}(R)|.
double EstimateNotEqualsSelection(const CompiledColumnStats& stats,
                                  const Value& value);

/// \brief Estimated disjunctive selection (col IN (...)); duplicates are
/// counted once (stack-friendly sort-unique, first-occurrence order).
double EstimateDisjunctiveSelection(const CompiledColumnStats& stats,
                                    std::span<const Value> values);

/// \brief Estimated range selection: two binary searches bound the explicit
/// span; its mass is a prefix-sum difference when the histogram's
/// prefix_exact() fast path is valid (O(log n) total), and a Kahan scan of
/// just the in-range entries otherwise (O(log n + k)).
Result<double> EstimateRangeSelection(const CompiledColumnStats& stats,
                                      const RangeBounds& bounds);

/// \brief Estimated |R ⋈ S| from both sides' compiled histograms — the same
/// sorted-merge as the CatalogHistogram version over the denser
/// struct-of-arrays layout.
double EstimateEquiJoinSize(const CompiledColumnStats& left,
                            const CompiledColumnStats& right);

/// \brief What a single batched estimate computes.
enum class EstimateKind {
  kEquality,     ///< column = literal
  kNotEquals,    ///< column != literal
  kDisjunctive,  ///< column IN (in_list)
  kRange,        ///< bounds.low (<|<=) column (<|<=) bounds.high
  kJoin,         ///< join_left ⋈ join_right (single equi-join)
  kChain,        ///< chain of equi-joins over `chain`
};

/// \brief One estimate of a mixed batch, fully resolved against a snapshot
/// (ids, not names — resolve once per plan with CatalogSnapshot::Resolve /
/// ResolveChain).
struct EstimateSpec {
  EstimateKind kind = EstimateKind::kEquality;
  ColumnId column = 0;                   ///< equality / not-equals / in / range
  Value literal;                         ///< equality / not-equals
  std::vector<Value> in_list;            ///< disjunctive
  RangeBounds bounds;                    ///< range
  ColumnId join_left = 0;                ///< join
  ColumnId join_right = 0;               ///< join
  std::vector<SnapshotChainStep> chain;  ///< chain

  static EstimateSpec Equality(ColumnId column, Value literal);
  static EstimateSpec NotEquals(ColumnId column, Value literal);
  static EstimateSpec In(ColumnId column, std::vector<Value> in_list);
  static EstimateSpec Range(ColumnId column, RangeBounds bounds);
  static EstimateSpec Join(ColumnId left, ColumnId right);
  static EstimateSpec Chain(std::vector<SnapshotChainStep> steps);
};

namespace internal {

/// Multi-probe Eytzinger search kernels — the heart of the §12 batched fast
/// lane. Compute out[i] = h.LowerBound(needles[i]) (resp. UpperBound) by
/// walking kProbeLanes interleaved fixed-depth Eytzinger descents per loop
/// iteration with a per-level prefetch, so independent probes hide each
/// other's cache misses (one lone branchy search per probe cannot: its
/// loads are a serialized dependency chain). Bit-identical indices by
/// construction; exposed for tests and bench_estimation's
/// eytzinger_vs_lower_bound sweep.
void MultiProbeLowerBounds(const CompiledHistogram& histogram,
                           std::span<const int64_t> needles, size_t* out);
void MultiProbeUpperBounds(const CompiledHistogram& histogram,
                           std::span<const int64_t> needles, size_t* out);

}  // namespace internal

/// \brief Runs one spec against \p snapshot. InvalidArgument on ids outside
/// the snapshot or malformed specs. Always computes from the compiled
/// statistics — the memoized fast lane (snapshot.estimate_cache()) is
/// consulted only by EstimateBatch, keeping this the uncached reference.
Result<double> EstimateOne(const CatalogSnapshot& snapshot,
                           const EstimateSpec& spec);

/// \brief Batched estimation: runs every spec against the (immutable)
/// snapshot, fanning independent estimates across \p pool (nullptr = the
/// global pool). Results align with specs; per-spec failures do not abort
/// the batch. Bit-identical to a serial EstimateOne loop at any pool size
/// (each index is computed independently — the thread pool's determinism
/// contract, DESIGN.md §6).
///
/// This is the batched probe fast lane (DESIGN.md §12): point and range
/// specs are grouped by column and routed through the interleaved Eytzinger
/// multi-probe kernel; exactly-keyable specs are memoized in the snapshot's
/// EstimateCache (hits return the exact bits the miss path computed, so the
/// determinism contract is unaffected); identical chain specs within one
/// batch are estimated once. Telemetry: hops_estimate_cache_{hits,misses}_
/// total, aggregated per batch.
std::vector<Result<double>> EstimateBatch(const CatalogSnapshot& snapshot,
                                          std::span<const EstimateSpec> specs,
                                          ThreadPool* pool = nullptr);

/// \brief One column's share of an observed estimation outcome, carrying
/// enough predicate shape for the self-tuning layer (refresh/self_tuner.h)
/// to know *where* in the value domain the error happened — an ST-histogram
/// update needs the probed point or range, not just the error magnitude.
struct PredicateOutcome {
  EstimateKind kind = EstimateKind::kEquality;
  /// Closed value interval the predicate touched on this column, when the
  /// spec pins one down (equality/not-equals: lo == hi == the literal's
  /// catalog key; range: the normalized closed bounds). Joins, IN-lists and
  /// chains report has_range == false — their error is not attributable to
  /// one interval.
  bool has_range = false;
  int64_t lo = 0;
  int64_t hi = 0;
  double estimated = 0.0;
  double actual = 0.0;
};

/// \brief Receiver of observed estimation outcomes — the serving layer's
/// feedback hook into the adaptive refresh subsystem (src/refresh/,
/// DESIGN.md §8). Callers that later learn a query's true result size
/// report (estimated, actual) per column; the refresh subsystem's
/// StalenessAdvisor folds an EWMA of the relative error into its rebuild
/// priority, and the SelfTuner folds the predicate-shaped form into
/// in-place histogram adjustments, closing the query-feedback loop of
/// self-tuning histograms. Implementations must be thread-safe: estimates
/// (and therefore reports) fan across threads.
class EstimationFeedbackSink {
 public:
  virtual ~EstimationFeedbackSink() = default;

  /// Reports one observed outcome for (table, column): \p outcome carries
  /// the served estimate, the true result size once known, and the probed
  /// interval when the spec pins one down. Sinks that only care about the
  /// error magnitude read estimated/actual; the self-tuning refresh manager
  /// also routes the interval into its tuner.
  virtual void ReportPredicateOutcome(std::string_view table,
                                      std::string_view column,
                                      const PredicateOutcome& outcome) = 0;
};

/// \brief Maps \p spec back to the columns it consulted (selection column,
/// both join sides, every chain step) via the snapshot's interned names and
/// reports the outcome to \p sink once per distinct column (through
/// ReportPredicateOutcome, so predicate-aware sinks see the probed
/// interval). InvalidArgument on a null sink, ids outside the snapshot, or
/// non-finite / negative estimated/actual — invalid magnitudes must be
/// rejected at this boundary, before they can poison any sink's q-error
/// EWMA.
Status ReportEstimateOutcome(const CatalogSnapshot& snapshot,
                             const EstimateSpec& spec, double estimated,
                             double actual, EstimationFeedbackSink* sink);

}  // namespace hops
