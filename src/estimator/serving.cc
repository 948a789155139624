#include "estimator/serving.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "engine/catalog.h"
#include "engine/estimate_cache.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/math.h"

namespace hops {

double EstimateEqualitySelection(const CompiledColumnStats& stats,
                                 const Value& value) {
  return stats.histogram->LookupFrequency(CatalogKeyFor(value));
}

double EstimateNotEqualsSelection(const CompiledColumnStats& stats,
                                  const Value& value) {
  double eq = EstimateEqualitySelection(stats, value);
  return std::max(0.0, stats.num_tuples - eq);
}

double EstimateDisjunctiveSelection(const CompiledColumnStats& stats,
                                    std::span<const Value> values) {
  // Same dedupe + summation association as the Catalog path
  // (estimator/selectivity.cc) so both produce identical bits.
  constexpr size_t kInline = 64;
  int64_t inline_keys[kInline];
  std::vector<int64_t> heap_keys;
  int64_t* keys = inline_keys;
  if (values.size() > kInline) {
    heap_keys.resize(values.size());
    keys = heap_keys.data();
  }
  const size_t unique = UniqueCatalogKeysFirstOccurrence(values, keys);
  KahanSum total;
  for (size_t i = 0; i < unique; ++i) {
    total.Add(stats.histogram->LookupFrequency(keys[i]));
  }
  return total.Value();
}

Result<double> EstimateRangeSelection(const CompiledColumnStats& stats,
                                      const RangeBounds& bounds) {
  // Normalize to a closed interval [lo, hi] — same as the Catalog path.
  int64_t lo = bounds.low + (bounds.include_low ? 0 : 1);
  int64_t hi = bounds.high - (bounds.include_high ? 0 : 1);
  if (lo > hi) return 0.0;

  const CompiledHistogram& h = *stats.histogram;
  const auto [begin, end] = h.ExplicitRange(lo, hi);
  KahanSum total;
  if (h.prefix_exact()) {
    // Exact-integer regime: the prefix difference is the same bits as a
    // fresh Kahan scan of the subrange, and adding it to a fresh KahanSum
    // leaves the accumulator in the same (sum, compensation) state the
    // legacy scan reaches. O(log n) total.
    if (end > begin) total.Add(h.ExplicitMass(begin, end));
  } else {
    // Fallback: element-wise Kahan over just the in-range entries, same
    // ascending order and accumulator as the linear reference. O(log n + k).
    const std::span<const double> freqs = h.frequencies();
    for (size_t i = begin; i < end; ++i) total.Add(freqs[i]);
  }
  return internal::FinishRangeEstimate(
      stats.num_tuples, stats.min_value, stats.max_value,
      h.default_frequency(), h.num_default_values(), lo, hi,
      static_cast<int64_t>(end - begin), total, h.refinement());
}

double EstimateEquiJoinSize(const CompiledColumnStats& left,
                            const CompiledColumnStats& right) {
  const CompiledHistogram& hl = *left.histogram;
  const CompiledHistogram& hr = *right.histogram;
  KahanSum total;
  // Merge the two sorted key streams — operation for operation the same as
  // the CatalogHistogram version, over the denser struct-of-arrays layout.
  const std::span<const int64_t> kl = hl.keys();
  const std::span<const int64_t> kr = hr.keys();
  const std::span<const double> fl = hl.frequencies();
  const std::span<const double> fr = hr.frequencies();
  size_t i = 0, j = 0;
  size_t matched_explicit = 0;
  while (i < kl.size() && j < kr.size()) {
    if (kl[i] < kr[j]) {
      total.Add(fl[i] * hr.default_frequency());
      ++i;
    } else if (kr[j] < kl[i]) {
      total.Add(fr[j] * hl.default_frequency());
      ++j;
    } else {
      total.Add(fl[i] * fr[j]);
      ++matched_explicit;
      ++i;
      ++j;
    }
  }
  for (; i < kl.size(); ++i) total.Add(fl[i] * hr.default_frequency());
  for (; j < kr.size(); ++j) total.Add(fr[j] * hl.default_frequency());

  const double universe =
      static_cast<double>(std::max(hl.num_values(), hr.num_values()));
  const double consumed =
      static_cast<double>(kl.size() + kr.size() - matched_explicit);
  const double default_common = std::max(0.0, universe - consumed);
  total.Add(default_common * hl.default_frequency() * hr.default_frequency());
  return total.Value();
}

EstimateSpec EstimateSpec::Equality(ColumnId column, Value literal) {
  EstimateSpec spec;
  spec.kind = EstimateKind::kEquality;
  spec.column = column;
  spec.literal = std::move(literal);
  return spec;
}

EstimateSpec EstimateSpec::NotEquals(ColumnId column, Value literal) {
  EstimateSpec spec;
  spec.kind = EstimateKind::kNotEquals;
  spec.column = column;
  spec.literal = std::move(literal);
  return spec;
}

EstimateSpec EstimateSpec::In(ColumnId column, std::vector<Value> in_list) {
  EstimateSpec spec;
  spec.kind = EstimateKind::kDisjunctive;
  spec.column = column;
  spec.in_list = std::move(in_list);
  return spec;
}

EstimateSpec EstimateSpec::Range(ColumnId column, RangeBounds bounds) {
  EstimateSpec spec;
  spec.kind = EstimateKind::kRange;
  spec.column = column;
  spec.bounds = bounds;
  return spec;
}

EstimateSpec EstimateSpec::Join(ColumnId left, ColumnId right) {
  EstimateSpec spec;
  spec.kind = EstimateKind::kJoin;
  spec.join_left = left;
  spec.join_right = right;
  return spec;
}

EstimateSpec EstimateSpec::Chain(std::vector<SnapshotChainStep> steps) {
  EstimateSpec spec;
  spec.kind = EstimateKind::kChain;
  spec.chain = std::move(steps);
  return spec;
}

namespace {

Status CheckColumn(const CatalogSnapshot& snapshot, ColumnId id,
                   const char* role) {
  if (id >= snapshot.num_columns()) {
    return Status::InvalidArgument(
        std::string(role) + " column id " + std::to_string(id) +
        " is outside the snapshot (" +
        std::to_string(snapshot.num_columns()) + " columns)");
  }
  return Status::OK();
}

// ---------- Batched probe fast lane (DESIGN.md §12) ----------

// Interleaved searches per kernel iteration. Eight lanes keep the cursors
// and needles in registers while giving the memory system eight independent
// in-flight misses per level — enough to cover DRAM latency on the deep
// levels that fall out of cache.
constexpr size_t kProbeLanes = 8;

// How many specs ahead the cache-lookup and kernel-finish passes prefetch:
// slot lines, and the keys/freqs/prefix entries the probe indices landed
// on. Without this the finish loop is a serial chain of random accesses —
// exactly the latency wall the kernel exists to avoid.
constexpr size_t kCacheLookahead = 16;

// Batch-local chain dedupe is O(unique x chains) pairwise compares; past
// this many distinct chains in one batch, later ones skip the memo.
constexpr size_t kMaxChainDedupe = 512;

template <bool kUpper>
void MultiProbeBoundsImpl(const CompiledHistogram& h,
                          std::span<const int64_t> needles, size_t* out) {
  const size_t n = h.num_explicit();
  const uint32_t depth = h.eytzinger_depth();
  if (depth == 0) {
    std::fill(out, out + needles.size(), size_t{0});
    return;
  }
  const int64_t* e = h.eytzinger_keys().data();
  const uint32_t* ranks = h.eytzinger_ranks().data();
  size_t i = 0;
  for (; i + kProbeLanes <= needles.size(); i += kProbeLanes) {
    size_t k[kProbeLanes];
    int64_t x[kProbeLanes];
    for (size_t lane = 0; lane < kProbeLanes; ++lane) {
      k[lane] = 1;
      x[lane] = needles[i + lane];
    }
    // All lanes descend in lockstep: every level issues kProbeLanes
    // independent loads, so one lane's cache miss overlaps the others'
    // instead of serializing the way a lone search's dependency chain does.
    // The prefetch pulls the line holding nodes 8k..8k+7 — every possible
    // descendant THREE levels below the lane's next node — so a deep
    // level's miss is issued ~3*kProbeLanes lane-steps before its use
    // (Khuong & Morin's B-ahead trick). The mask keeps the hint in bounds
    // on the last levels, where the 3-below generation doesn't exist.
    const size_t node_mask = (size_t{1} << depth) - 1;
    for (uint32_t level = 0; level + 1 < depth; ++level) {
      for (size_t lane = 0; lane < kProbeLanes; ++lane) {
        const bool right =
            kUpper ? (e[k[lane]] <= x[lane]) : (e[k[lane]] < x[lane]);
        k[lane] = 2 * k[lane] + static_cast<size_t>(right);
        __builtin_prefetch(e + ((8 * k[lane]) & node_mask));
      }
    }
    for (size_t lane = 0; lane < kProbeLanes; ++lane) {
      const bool right =
          kUpper ? (e[k[lane]] <= x[lane]) : (e[k[lane]] < x[lane]);
      k[lane] = 2 * k[lane] + static_cast<size_t>(right);
    }
    for (size_t lane = 0; lane < kProbeLanes; ++lane) {
      const size_t node = k[lane] >> (std::countr_one(k[lane]) + 1);
      out[i + lane] = node == 0 ? n : static_cast<size_t>(ranks[node]);
    }
  }
  for (; i < needles.size(); ++i) {
    out[i] = kUpper ? h.EytzingerUpperBound(needles[i])
                    : h.EytzingerLowerBound(needles[i]);
  }
}

// Exact cache keys (engine/estimate_cache.h): kind_col packs the estimate
// kind with the primary column id; a/b carry the literal payload. Only
// fixed-size predicates are keyed — chains and IN-lists are variable-length
// and stay uncached (a hashed key could collide, and the serving layer's
// contract is bit-identical, never probably-identical).
EstimateCache::Key PointCacheKey(EstimateKind kind, ColumnId column,
                                 int64_t catalog_key) {
  return {(static_cast<uint64_t>(kind) << 32) | column,
          static_cast<uint64_t>(catalog_key), 0};
}

EstimateCache::Key RangeCacheKey(ColumnId column, int64_t lo, int64_t hi) {
  return {(static_cast<uint64_t>(EstimateKind::kRange) << 32) | column,
          static_cast<uint64_t>(lo), static_cast<uint64_t>(hi)};
}

EstimateCache::Key JoinCacheKey(ColumnId left, ColumnId right) {
  return {(static_cast<uint64_t>(EstimateKind::kJoin) << 32) | left, right, 0};
}

// What the classification pass decided for one spec.
enum class LaneClass : uint8_t {
  kDone,        // result already written (error, empty range, or cache hit)
  kPoint,       // equality / not-equals -> one lower-bound probe
  kRangeProbe,  // non-empty range -> lower(lo) + upper(hi) probes
  kCachedMisc,  // EstimateOne, but cacheable (join)
  kMisc,        // EstimateOne, uncached (IN-list, overflow chains)
  kChainRep,    // chain, first occurrence in this batch (EstimateOne)
  kChainAlias,  // chain, identical to an earlier one -> copy its result
};

// Kept to 32 bytes — the classify pass streams one of these per spec, and a
// fat plan would evict the very cache lines the probe kernel wants hot.
// Cache keys are recomputed from the payload at lookup/insert time (pure
// ALU) instead of being stored.
struct SpecPlan {
  int64_t a = 0;       // kPoint: catalog key; kRangeProbe: lo; kCachedMisc:
                       // join left. For kChainAlias: representative index.
  int64_t b = 0;       // kRangeProbe: hi; kCachedMisc: join right
  ColumnId column = 0;
  LaneClass cls = LaneClass::kMisc;
  bool negate = false;  // kPoint: not-equals
  bool cacheable = false;
};

EstimateCache::Key PlanCacheKey(const SpecPlan& plan) {
  switch (plan.cls) {
    case LaneClass::kPoint:
      return PointCacheKey(
          plan.negate ? EstimateKind::kNotEquals : EstimateKind::kEquality,
          plan.column, plan.a);
    case LaneClass::kRangeProbe:
      return RangeCacheKey(plan.column, plan.a, plan.b);
    default:  // kCachedMisc (join)
      return JoinCacheKey(static_cast<ColumnId>(plan.a),
                          static_cast<ColumnId>(plan.b));
  }
}

}  // namespace

namespace internal {

void MultiProbeLowerBounds(const CompiledHistogram& histogram,
                           std::span<const int64_t> needles, size_t* out) {
  MultiProbeBoundsImpl<false>(histogram, needles, out);
}

void MultiProbeUpperBounds(const CompiledHistogram& histogram,
                           std::span<const int64_t> needles, size_t* out) {
  MultiProbeBoundsImpl<true>(histogram, needles, out);
}

}  // namespace internal

Result<double> EstimateOne(const CatalogSnapshot& snapshot,
                           const EstimateSpec& spec) {
  switch (spec.kind) {
    case EstimateKind::kEquality:
      HOPS_RETURN_NOT_OK(CheckColumn(snapshot, spec.column, "equality"));
      return EstimateEqualitySelection(snapshot.stats(spec.column),
                                       spec.literal);
    case EstimateKind::kNotEquals:
      HOPS_RETURN_NOT_OK(CheckColumn(snapshot, spec.column, "not-equals"));
      return EstimateNotEqualsSelection(snapshot.stats(spec.column),
                                        spec.literal);
    case EstimateKind::kDisjunctive:
      HOPS_RETURN_NOT_OK(CheckColumn(snapshot, spec.column, "disjunctive"));
      return EstimateDisjunctiveSelection(snapshot.stats(spec.column),
                                          spec.in_list);
    case EstimateKind::kRange:
      HOPS_RETURN_NOT_OK(CheckColumn(snapshot, spec.column, "range"));
      return EstimateRangeSelection(snapshot.stats(spec.column), spec.bounds);
    case EstimateKind::kJoin:
      HOPS_RETURN_NOT_OK(CheckColumn(snapshot, spec.join_left, "join left"));
      HOPS_RETURN_NOT_OK(CheckColumn(snapshot, spec.join_right, "join right"));
      return EstimateEquiJoinSize(snapshot.stats(spec.join_left),
                                  snapshot.stats(spec.join_right));
    case EstimateKind::kChain:
      return EstimateChainJoinSize(snapshot, spec.chain);
  }
  return Status::InvalidArgument("unknown estimate kind");
}

std::vector<Result<double>> EstimateBatch(const CatalogSnapshot& snapshot,
                                          std::span<const EstimateSpec> specs,
                                          ThreadPool*) {
  std::vector<Result<double>> results(
      specs.size(), Result<double>(Status::Internal("not estimated")));
  if (specs.empty()) return results;
  // Telemetry (DESIGN.md §9): one span + one sharded counter add per
  // *batch*, never per spec — the per-estimate fast path stays untouched,
  // keeping instrumented overhead within the ≤2% contract measured by
  // bench_estimation's telemetry_overhead block.
  static telemetry::SpanSite& span_site =
      telemetry::GetSpanSite("Serving.EstimateBatch");
  telemetry::TraceSpan span(span_site);
  if (span.recording()) {
    static telemetry::Counter* estimates_total =
        telemetry::MetricRegistry::Global().GetCounter(
            "hops_estimates_total",
            "Estimate specs served through EstimateBatch.");
    static telemetry::Counter* batches_total =
        telemetry::MetricRegistry::Global().GetCounter(
            "hops_estimate_batches_total",
            "EstimateBatch invocations against a catalog snapshot.");
    estimates_total->Increment(specs.size());
    batches_total->Increment();
  }
  const EstimateCache& cache = snapshot.estimate_cache();

  // Pass 1 — classify (serial, pure ALU): resolve each spec to a lane and
  // precompute its cache key. Identical chain specs are deduped here with
  // exact (not hashed) comparison; the first occurrence becomes the
  // representative, later ones copy its result after execution.
  std::vector<SpecPlan> plans(specs.size());
  std::vector<size_t> chain_reps;
  for (size_t i = 0; i < specs.size(); ++i) {
    const EstimateSpec& spec = specs[i];
    SpecPlan& plan = plans[i];
    switch (spec.kind) {
      case EstimateKind::kEquality:
      case EstimateKind::kNotEquals: {
        Status check = CheckColumn(snapshot, spec.column,
                                   spec.kind == EstimateKind::kEquality
                                       ? "equality"
                                       : "not-equals");
        if (!check.ok()) {
          results[i] = std::move(check);
          plan.cls = LaneClass::kDone;
          break;
        }
        plan.cls = LaneClass::kPoint;
        plan.negate = spec.kind == EstimateKind::kNotEquals;
        plan.column = spec.column;
        plan.a = CatalogKeyFor(spec.literal);
        plan.cacheable = true;
        break;
      }
      case EstimateKind::kRange: {
        Status check = CheckColumn(snapshot, spec.column, "range");
        if (!check.ok()) {
          results[i] = std::move(check);
          plan.cls = LaneClass::kDone;
          break;
        }
        // Same closed-interval normalization as EstimateRangeSelection;
        // empty ranges short-circuit to 0.0 without probing.
        const int64_t lo = spec.bounds.low + (spec.bounds.include_low ? 0 : 1);
        const int64_t hi =
            spec.bounds.high - (spec.bounds.include_high ? 0 : 1);
        if (lo > hi) {
          results[i] = 0.0;
          plan.cls = LaneClass::kDone;
          break;
        }
        plan.cls = LaneClass::kRangeProbe;
        plan.column = spec.column;
        plan.a = lo;
        plan.b = hi;
        plan.cacheable = true;
        break;
      }
      case EstimateKind::kJoin:
        plan.cls = LaneClass::kCachedMisc;
        plan.a = spec.join_left;
        plan.b = spec.join_right;
        plan.cacheable = true;
        break;
      case EstimateKind::kDisjunctive:
        plan.cls = LaneClass::kMisc;
        break;
      case EstimateKind::kChain: {
        plan.cls = LaneClass::kChainRep;
        for (size_t rep : chain_reps) {
          const auto& mine = spec.chain;
          const auto& theirs = specs[rep].chain;
          if (mine.size() != theirs.size()) continue;
          bool equal = true;
          for (size_t s = 0; s < mine.size(); ++s) {
            if (mine[s].left != theirs[s].left ||
                mine[s].right != theirs[s].right) {
              equal = false;
              break;
            }
          }
          if (equal) {
            plan.cls = LaneClass::kChainAlias;
            plan.a = static_cast<int64_t>(rep);
            break;
          }
        }
        if (plan.cls == LaneClass::kChainRep) {
          if (chain_reps.size() < kMaxChainDedupe) {
            chain_reps.push_back(i);
          } else {
            plan.cls = LaneClass::kMisc;  // memo full: estimate it directly
          }
        }
        break;
      }
    }
  }

  // Pass 2 — memo lookup (serial): probe the snapshot's estimate cache for
  // every exactly-keyed spec, prefetching slot lines a few specs ahead so
  // the random-access table doesn't serialize the pass on memory latency.
  // Misses fall through to the probe/misc lanes below.
  std::vector<size_t> point_idx, range_idx, misc_idx;
  point_idx.reserve(specs.size());
  size_t cache_lookups = 0, cache_hits = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    const size_t ahead = i + kCacheLookahead;
    if (ahead < specs.size() && plans[ahead].cacheable) {
      cache.Prefetch(PlanCacheKey(plans[ahead]));
    }
    SpecPlan& plan = plans[i];
    if (plan.cacheable) {
      ++cache_lookups;
      double value;
      if (cache.Lookup(PlanCacheKey(plan), &value)) {
        ++cache_hits;
        results[i] = value;  // exact bits the miss path computed (purity)
        plan.cls = LaneClass::kDone;
        continue;
      }
    }
    switch (plan.cls) {
      case LaneClass::kPoint:
        point_idx.push_back(i);
        break;
      case LaneClass::kRangeProbe:
        range_idx.push_back(i);
        break;
      case LaneClass::kCachedMisc:
      case LaneClass::kMisc:
      case LaneClass::kChainRep:
        misc_idx.push_back(i);
        break;
      case LaneClass::kDone:
      case LaneClass::kChainAlias:
        break;
    }
  }
  if (span.recording() && cache_lookups > 0) {
    static telemetry::Counter* cache_hits_total =
        telemetry::MetricRegistry::Global().GetCounter(
            "hops_estimate_cache_hits_total",
            "EstimateBatch specs served from the snapshot estimate cache.");
    static telemetry::Counter* cache_misses_total =
        telemetry::MetricRegistry::Global().GetCounter(
            "hops_estimate_cache_misses_total",
            "EstimateBatch cache lookups that fell through to computation.");
    if (cache_hits > 0) cache_hits_total->Increment(cache_hits);
    if (cache_lookups > cache_hits) {
      cache_misses_total->Increment(cache_lookups - cache_hits);
    }
  }
  if (span.emitting()) {
    span.SetDetail("specs=" + std::to_string(specs.size()) +
                   " cache_hits=" + std::to_string(cache_hits) +
                   " cache_misses=" +
                   std::to_string(cache_lookups - cache_hits));
  }
  // Pass 3 — group the kernel-eligible probes by column with a stable
  // counting bucket (comparison sort is O(n log n) indirections through the
  // plans array and degenerates exactly on the common one-hot-column batch).
  struct Segment {
    size_t begin;
    size_t end;
  };
  std::vector<uint32_t> column_counts;
  auto bucket_by_column = [&](std::vector<size_t>& idx,
                              std::vector<Segment>* segments) {
    if (idx.empty()) return;
    column_counts.assign(snapshot.num_columns(), 0);
    for (size_t i : idx) ++column_counts[plans[i].column];
    std::vector<size_t> offsets(snapshot.num_columns());
    size_t running = 0;
    for (size_t c = 0; c < column_counts.size(); ++c) {
      offsets[c] = running;
      if (column_counts[c] > 0) {
        segments->push_back(Segment{running, running + column_counts[c]});
      }
      running += column_counts[c];
    }
    std::vector<size_t> bucketed(idx.size());
    for (size_t i : idx) bucketed[offsets[plans[i].column]++] = i;
    idx.swap(bucketed);
  };
  std::vector<Segment> point_segments, range_segments;
  bucket_by_column(point_idx, &point_segments);
  bucket_by_column(range_idx, &range_segments);

  // Pass 4 — execute, one lane after another on the calling thread: a
  // kernel costs tens of nanoseconds per spec, less than waking a pool
  // worker would. Same-column probes run through the multi-probe Eytzinger
  // kernel; everything else goes through EstimateOne. Each lane finishes
  // with arithmetic operation-for-operation identical to the scalar path,
  // then publishes exactly-keyed results to the memo. Each lane's span
  // nests under the batch span.
  if (!misc_idx.empty()) {
    static telemetry::SpanSite& misc_site =
        telemetry::GetSpanSite("Serving.MiscLane");
    telemetry::TraceSpan lane_span(misc_site);
    if (lane_span.emitting()) {
      lane_span.SetDetail("specs=" + std::to_string(misc_idx.size()));
    }
    for (size_t i : misc_idx) {
      results[i] = EstimateOne(snapshot, specs[i]);
      if (plans[i].cacheable && results[i].ok()) {
        cache.Insert(PlanCacheKey(plans[i]), *results[i]);
      }
    }
  }
  auto run_point_segment = [&](const Segment& segment) {
    const ColumnId column = plans[point_idx[segment.begin]].column;
    const CompiledColumnStats& stats = snapshot.stats(column);
    const CompiledHistogram& h = *stats.histogram;
    const size_t count = segment.end - segment.begin;
    std::vector<int64_t> needles(count);
    std::vector<size_t> found(count);
    for (size_t j = 0; j < count; ++j) {
      needles[j] = plans[point_idx[segment.begin + j]].a;
    }
    internal::MultiProbeLowerBounds(h, needles, found.data());
    const std::span<const int64_t> keys = h.keys();
    const std::span<const double> freqs = h.frequencies();
    for (size_t j = 0; j < count; ++j) {
      const size_t look = j + kCacheLookahead;
      if (look < count) {
        const size_t look_at = found[look];
        if (look_at < keys.size()) {
          __builtin_prefetch(&keys[look_at]);
          __builtin_prefetch(&freqs[look_at]);
        }
        cache.Prefetch(PlanCacheKey(plans[point_idx[segment.begin + look]]));
      }
      const size_t i = point_idx[segment.begin + j];
      const size_t at = found[j];
      // Same association as LookupFrequency + EstimateNotEqualsSelection.
      const double eq = (at < keys.size() && keys[at] == needles[j])
                            ? freqs[at]
                            : h.default_frequency();
      const double value =
          plans[i].negate ? std::max(0.0, stats.num_tuples - eq) : eq;
      results[i] = value;
      cache.Insert(PlanCacheKey(plans[i]), value);
    }
  };
  auto run_range_segment = [&](const Segment& segment) {
    const ColumnId column = plans[range_idx[segment.begin]].column;
    const CompiledColumnStats& stats = snapshot.stats(column);
    const CompiledHistogram& h = *stats.histogram;
    const size_t count = segment.end - segment.begin;
    std::vector<int64_t> lo_needles(count), hi_needles(count);
    std::vector<size_t> lower(count), upper(count);
    for (size_t j = 0; j < count; ++j) {
      const SpecPlan& plan = plans[range_idx[segment.begin + j]];
      lo_needles[j] = plan.a;
      hi_needles[j] = plan.b;
    }
    internal::MultiProbeLowerBounds(h, lo_needles, lower.data());
    internal::MultiProbeUpperBounds(h, hi_needles, upper.data());
    const std::span<const double> freqs = h.frequencies();
    const std::span<const double> prefix = h.prefix_sums();
    for (size_t j = 0; j < count; ++j) {
      const size_t look = j + kCacheLookahead;
      if (look < count) {
        __builtin_prefetch(&prefix[lower[look]]);
        __builtin_prefetch(&prefix[upper[look]]);
        cache.Prefetch(PlanCacheKey(plans[range_idx[segment.begin + look]]));
      }
      const size_t i = range_idx[segment.begin + j];
      const SpecPlan& plan = plans[i];
      // Mirrors EstimateRangeSelection after normalization (which pass 1
      // already applied): ExplicitRange's clamp, then the exact-prefix or
      // Kahan-subrange accumulation, then the shared FinishRangeEstimate.
      const size_t begin = lower[j];
      const size_t end = upper[j] < begin ? begin : upper[j];
      KahanSum total;
      if (h.prefix_exact()) {
        if (end > begin) total.Add(h.ExplicitMass(begin, end));
      } else {
        for (size_t at = begin; at < end; ++at) total.Add(freqs[at]);
      }
      const double value = internal::FinishRangeEstimate(
          stats.num_tuples, stats.min_value, stats.max_value,
          h.default_frequency(), h.num_default_values(), plan.a, plan.b,
          static_cast<int64_t>(end - begin), total, h.refinement());
      results[i] = value;
      cache.Insert(PlanCacheKey(plan), value);
    }
  };
  if (!point_segments.empty()) {
    static telemetry::SpanSite& point_site =
        telemetry::GetSpanSite("Serving.PointKernel");
    telemetry::TraceSpan lane_span(point_site);
    if (lane_span.emitting()) {
      lane_span.SetDetail("segments=" + std::to_string(point_segments.size()) +
                          " probes=" + std::to_string(point_idx.size()));
    }
    for (const Segment& segment : point_segments) run_point_segment(segment);
  }
  if (!range_segments.empty()) {
    static telemetry::SpanSite& range_site =
        telemetry::GetSpanSite("Serving.RangeKernel");
    telemetry::TraceSpan lane_span(range_site);
    if (lane_span.emitting()) {
      lane_span.SetDetail("segments=" + std::to_string(range_segments.size()) +
                          " probes=" + std::to_string(range_idx.size()));
    }
    for (const Segment& segment : range_segments) run_range_segment(segment);
  }

  // Pass 5 — fan deduped chain results out to their aliases.
  for (size_t i = 0; i < specs.size(); ++i) {
    if (plans[i].cls == LaneClass::kChainAlias) {
      results[i] = results[static_cast<size_t>(plans[i].a)];
    }
  }
  return results;
}

Status ReportEstimateOutcome(const CatalogSnapshot& snapshot,
                             const EstimateSpec& spec, double estimated,
                             double actual, EstimationFeedbackSink* sink) {
  if (sink == nullptr) {
    return Status::InvalidArgument("feedback sink must not be null");
  }
  // Validate the magnitudes at the boundary: a single NaN or infinity
  // forwarded into a sink's EWMA sticks there forever (alpha*x + (1-a)*inf
  // stays inf), and a negative "actual" is a caller bug, not a result size.
  if (!std::isfinite(estimated) || estimated < 0) {
    return Status::InvalidArgument(
        "estimated result size must be finite and >= 0");
  }
  if (!std::isfinite(actual) || actual < 0) {
    return Status::InvalidArgument(
        "actual result size must be finite and >= 0");
  }
  static telemetry::SpanSite& span_site =
      telemetry::GetSpanSite("Serving.ReportOutcome");
  telemetry::TraceSpan span(span_site);
  // Collect the distinct columns the spec consulted (tiny spans: a chain of
  // j joins touches 2j ids).
  ColumnId inline_ids[8];
  std::vector<ColumnId> heap_ids;
  ColumnId* ids = inline_ids;
  size_t count = 0;
  switch (spec.kind) {
    case EstimateKind::kEquality:
    case EstimateKind::kNotEquals:
    case EstimateKind::kDisjunctive:
    case EstimateKind::kRange:
      ids[count++] = spec.column;
      break;
    case EstimateKind::kJoin:
      ids[count++] = spec.join_left;
      ids[count++] = spec.join_right;
      break;
    case EstimateKind::kChain: {
      if (2 * spec.chain.size() > 8) {
        heap_ids.resize(2 * spec.chain.size());
        ids = heap_ids.data();
      }
      for (const SnapshotChainStep& step : spec.chain) {
        ids[count++] = step.left;
        ids[count++] = step.right;
      }
      break;
    }
  }
  std::sort(ids, ids + count);
  count = static_cast<size_t>(std::unique(ids, ids + count) - ids);
  for (size_t i = 0; i < count; ++i) {
    HOPS_RETURN_NOT_OK(CheckColumn(snapshot, ids[i], "feedback"));
  }
  // Predicate shape for the self-tuning layer: point and range specs pin a
  // closed interval on their (single) column; everything else reports only
  // the magnitudes.
  PredicateOutcome outcome;
  outcome.kind = spec.kind;
  outcome.estimated = estimated;
  outcome.actual = actual;
  switch (spec.kind) {
    case EstimateKind::kEquality:
    case EstimateKind::kNotEquals:
      outcome.lo = outcome.hi = CatalogKeyFor(spec.literal);
      outcome.has_range = spec.kind == EstimateKind::kEquality;
      break;
    case EstimateKind::kRange: {
      const int64_t lo = spec.bounds.low + (spec.bounds.include_low ? 0 : 1);
      const int64_t hi = spec.bounds.high - (spec.bounds.include_high ? 0 : 1);
      if (lo <= hi) {
        outcome.lo = lo;
        outcome.hi = hi;
        outcome.has_range = true;
      }
      break;
    }
    default:
      break;
  }
  for (size_t i = 0; i < count; ++i) {
    const CompiledColumnStats& stats = snapshot.stats(ids[i]);
    sink->ReportPredicateOutcome(stats.table, stats.column, outcome);
  }
  return Status::OK();
}

}  // namespace hops
