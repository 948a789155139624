#include "refresh/refresh_manager.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "histogram/parallel_build.h"
#include "refresh/durability.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "util/stopwatch.h"

namespace hops {

// Per-column write-path state. `ideal` tracks the true frequency of every
// attribute value (seeded at registration, updated by deltas) — the
// "maintained-vs-ideal" comparison set of the Prop 3.1 staleness score.
// `moments` is kept incrementally coherent with (ideal, the maintained
// histogram's explicit set); it is recomputed from scratch whenever the
// explicit set changes (i.e., on rebuild). `unchanged_since_build` is set
// by registration, every rebuild and a rebuild pick with no positive count
// left, and cleared by any applied delta or tuning change; while it holds,
// a rebuild would reproduce the catalog histogram exactly (or have nothing
// to build from), so scoring never asks for one.
struct RefreshManager::ColumnState {
  std::string table;
  std::string column;
  HistogramMaintainer maintainer;
  std::unordered_map<int64_t, double> ideal;
  IdealColumnMoments moments;
  double tuples_at_build = 0;
  int64_t min_value = 0;
  int64_t max_value = 0;
  uint64_t distinct = 0;  // tracked values with a positive count
  double feedback_ewma = 0;
  bool has_feedback = false;
  uint64_t deltas_since_rebuild = 0;
  uint64_t rebuilds = 0;
  bool dirty = false;  // counts changed since the last catalog write-back
  bool unchanged_since_build = false;
  // Buffered predicate outcomes + tuning counters (refresh/self_tuner.h);
  // untouched (and empty) with tuning disabled.
  SelfTuneColumnState tuning;
};

namespace {

// Sorted (value, frequency) view of the ideal tracker, positive counts
// only — the input of both moment recomputation and rebuilds. Sorting makes
// rebuilds deterministic regardless of hash-map iteration order.
std::vector<std::pair<int64_t, double>> SortedPositiveIdeal(
    const std::unordered_map<int64_t, double>& ideal) {
  std::vector<std::pair<int64_t, double>> pairs;
  pairs.reserve(ideal.size());
  for (const auto& [value, freq] : ideal) {
    if (freq > 0) pairs.emplace_back(value, freq);
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

}  // namespace

RefreshManager::RefreshManager(Catalog* catalog, SnapshotStore* store,
                               RefreshOptions options)
    : catalog_(catalog),
      store_(store),
      options_(std::move(options)),
      advisor_(options_.staleness),
      tuner_(options_.tuning),
      log_(options_.queue_capacity) {}

RefreshManager::~RefreshManager() {
  // Unblock any producer still waiting on backpressure; records already
  // queued are dropped with the manager.
  log_.Close();
}

Result<RefreshColumnId> RefreshManager::RegisterColumn(
    const std::string& table, const std::string& column,
    std::span<const int64_t> value_ids, std::span<const double> frequencies) {
  if (catalog_ == nullptr || store_ == nullptr) {
    return Status::InvalidArgument("catalog and store must not be null");
  }
  if (value_ids.size() != frequencies.size()) {
    return Status::InvalidArgument(
        "value_ids and frequencies must have equal size");
  }
  if (value_ids.empty()) {
    return Status::InvalidArgument(
        "cannot register a column with an empty frequency set");
  }

  // Seed the ideal tracker first — this also rejects duplicate values.
  std::unordered_map<int64_t, double> ideal;
  ideal.reserve(value_ids.size());
  for (size_t i = 0; i < value_ids.size(); ++i) {
    if (!(frequencies[i] >= 0) || !std::isfinite(frequencies[i])) {
      return Status::InvalidArgument("frequencies must be finite and >= 0");
    }
    if (!ideal.emplace(value_ids[i], frequencies[i]).second) {
      return Status::InvalidArgument("duplicate value id " +
                                     std::to_string(value_ids[i]));
    }
  }

  // Initial construction, identical to the ANALYZE pipeline: value-sorted
  // frequencies into the configured builder, then the compact catalog form.
  std::vector<std::pair<int64_t, double>> pairs = SortedPositiveIdeal(ideal);
  if (pairs.empty()) {
    return Status::InvalidArgument("all registered frequencies are zero");
  }
  std::vector<double> freqs;
  std::vector<int64_t> ids;
  freqs.reserve(pairs.size());
  ids.reserve(pairs.size());
  for (const auto& [value, freq] : pairs) {
    ids.push_back(value);
    freqs.push_back(freq);
  }
  HOPS_ASSIGN_OR_RETURN(FrequencySet set, FrequencySet::Make(std::move(freqs)));
  const size_t beta =
      std::max<size_t>(1, std::min(options_.statistics.num_buckets, set.size()));
  HOPS_ASSIGN_OR_RETURN(
      Histogram histogram,
      BuildHistogram(std::move(set),
                     BuilderKindForStatisticsClass(
                         options_.statistics.histogram_class),
                     beta));
  HOPS_ASSIGN_OR_RETURN(CatalogHistogram compact,
                        CatalogHistogram::FromHistogram(
                            histogram, ids, options_.statistics.average_mode));

  double total = 0;
  for (const auto& [value, freq] : pairs) total += freq;

  std::lock_guard<std::mutex> lock(mutex_);
  const auto key = std::make_pair(table, column);
  if (by_name_.count(key) != 0) {
    return Status::AlreadyExists("column " + table + "." + column +
                                 " is already registered");
  }
  auto state = std::make_unique<ColumnState>();
  state->table = table;
  state->column = column;
  state->maintainer =
      HistogramMaintainer(std::move(compact), total, options_.maintenance);
  state->ideal = std::move(ideal);
  state->tuples_at_build = total;
  state->min_value = pairs.front().first;
  state->max_value = pairs.back().first;
  state->distinct = pairs.size();
  state->moments = ComputeIdealMoments(state->maintainer.current(), pairs);
  state->dirty = true;
  state->unchanged_since_build = true;

  const RefreshColumnId id = static_cast<RefreshColumnId>(columns_.size());
  // Write-ahead, inside the manager lock, BEFORE install: a registration
  // whose ack the caller saw is always in the WAL, and its LSN folds into
  // the high-water mark while the lock is held — so a concurrent snapshot
  // export can never record a high-water mark that silently covers an
  // uninstalled registration. A hook failure refuses the registration.
  if (durability_ != nullptr) {
    uint64_t lsn = 0;
    HOPS_RETURN_NOT_OK(durability_->PersistRegistration(
        id, table, column, value_ids, frequencies, &lsn));
    high_water_lsn_ = std::max(high_water_lsn_, lsn);
  }
  columns_.push_back(std::move(state));
  {
    std::unique_lock<std::shared_mutex> names_lock(names_mutex_);
    by_name_.emplace(key, id);
  }
  HOPS_RETURN_NOT_OK(WriteBackLocked(*columns_[id]));
  HOPS_RETURN_NOT_OK(RepublishLocked());
  return id;
}

Result<RefreshColumnId> RefreshManager::Lookup(std::string_view table,
                                               std::string_view column) const {
  // Not mutex_: /update resolves every delta here, and a tick holds mutex_
  // for its whole length.
  std::shared_lock<std::shared_mutex> lock(names_mutex_);
  const auto it =
      by_name_.find(std::make_pair(std::string(table), std::string(column)));
  if (it == by_name_.end()) {
    return Status::NotFound("column " + std::string(table) + "." +
                            std::string(column) + " is not registered");
  }
  return it->second;
}

size_t RefreshManager::num_columns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return columns_.size();
}

void RefreshManager::FoldFeedbackLocked(ColumnState& state, double estimated,
                                        double actual) {
  // |estimated - actual| can overflow to inf for *finite* opposite-sign
  // inputs near the double range limit, and an inf folded into the EWMA
  // sticks forever (alpha-blending never brings it back). Clamp the
  // relative error: anything past 1e12 is equally "rebuild me now".
  const double relative = std::min(
      1e12, std::fabs(estimated - actual) / std::max(std::fabs(actual), 1.0));
  if (state.has_feedback) {
    state.feedback_ewma = options_.feedback_alpha * relative +
                          (1.0 - options_.feedback_alpha) * state.feedback_ewma;
  } else {
    state.feedback_ewma = relative;
    state.has_feedback = true;
  }
  feedback_reports_.Increment();
}

void RefreshManager::ReportPredicateOutcome(std::string_view table,
                                            std::string_view column,
                                            const PredicateOutcome& outcome) {
  if (!std::isfinite(outcome.estimated) || !std::isfinite(outcome.actual)) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it =
      by_name_.find(std::make_pair(std::string(table), std::string(column)));
  if (it == by_name_.end()) return;  // serving may know more columns than us
  ColumnState& state = *columns_[it->second];
  FoldFeedbackLocked(state, outcome.estimated, outcome.actual);
  if (tuner_.enabled() && tuner_.Observe(&state.tuning, outcome)) {
    tuning_observations_.Increment();
  }
}

Status RefreshManager::ApplyDeltaLocked(ColumnState& state, int64_t value,
                                        double weight) {
  // Deltas are tuple-grained: fold |weight| unit updates through the
  // maintenance hooks so the maintained histogram, the ideal tracker, and
  // the incremental moments stay in lockstep.
  const double sign = weight >= 0 ? +1.0 : -1.0;
  const uint64_t units =
      static_cast<uint64_t>(std::llround(std::fabs(weight)));
  for (uint64_t u = 0; u < units; ++u) {
    // Every applied delta moves the maintained histogram away from the
    // build, even a delete of an untracked value (which leaves `ideal`
    // alone), so a rebuild may change the column again.
    state.unchanged_since_build = false;
    bool is_explicit = false;
    state.maintainer.current().LookupFrequency(value, &is_explicit);
    auto [it, inserted] = state.ideal.try_emplace(value, 0.0);
    if (inserted && sign < 0) {
      // Delete of a never-seen value: pure drift (the histogram was already
      // stale); do not invent a tracked zero-count value.
      state.ideal.erase(it);
      HOPS_RETURN_NOT_OK(state.maintainer.ApplyDelete(value));
      state.dirty = true;
      ++state.deltas_since_rebuild;
      deltas_applied_.Increment();
      continue;
    }
    const double old_freq = it->second;
    const double new_freq = std::max(0.0, old_freq + sign);
    it->second = new_freq;
    const bool appeared = old_freq <= 0 && new_freq > 0;
    const bool vanished = old_freq > 0 && new_freq <= 0;

    state.moments.total_sum_sq += new_freq * new_freq - old_freq * old_freq;
    if (!is_explicit) {
      // Only positive counts are values of the column, as in
      // SortedPositiveIdeal, from which registration and rebuilds compute.
      if (appeared) state.moments.default_count += 1.0;
      if (vanished) state.moments.default_count -= 1.0;
      state.moments.default_sum += new_freq - old_freq;
      state.moments.default_sum_sq +=
          new_freq * new_freq - old_freq * old_freq;
    }
    if (appeared) {
      if (state.distinct == 0) {
        state.min_value = value;
        state.max_value = value;
      } else {
        state.min_value = std::min(state.min_value, value);
        state.max_value = std::max(state.max_value, value);
      }
      ++state.distinct;
    } else if (vanished) {
      if (state.distinct > 0) --state.distinct;
    }

    HOPS_RETURN_NOT_OK(sign > 0 ? state.maintainer.ApplyInsert(value)
                                : state.maintainer.ApplyDelete(value));
    state.dirty = true;
    ++state.deltas_since_rebuild;
    deltas_applied_.Increment();
  }
  return Status::OK();
}

Status RefreshManager::WriteBackLocked(ColumnState& state) {
  ColumnStatistics stats;
  stats.num_tuples = state.maintainer.num_tuples();
  stats.num_distinct = state.distinct;
  stats.min_value = state.min_value;
  stats.max_value = state.max_value;
  stats.histogram = state.maintainer.current();
  HOPS_RETURN_NOT_OK(
      catalog_->PutColumnStatistics(state.table, state.column, stats));
  state.dirty = false;
  return Status::OK();
}

Status RefreshManager::RepublishLocked() {
  static telemetry::SpanSite& republish_site =
      telemetry::GetSpanSite("Refresh.Republish");
  telemetry::TraceSpan span(republish_site);
  HOPS_RETURN_NOT_OK(store_->RepublishFrom(*catalog_).status());
  republish_count_.Increment();
  return Status::OK();
}

Result<size_t> RefreshManager::ApplyRecordsLocked(
    std::span<const UpdateRecord> records) {
  size_t applied = 0;
  for (const UpdateRecord& record : records) {
    if (record.column >= columns_.size()) {
      unknown_column_records_.Increment();
      continue;
    }
    HOPS_RETURN_NOT_OK(
        ApplyDeltaLocked(*columns_[record.column], record.value, record.weight));
    ++applied;
  }
  return applied;
}

Status RefreshManager::WriteBackDirtyLocked(bool* changed) {
  for (auto& state : columns_) {
    if (!state->dirty) continue;
    HOPS_RETURN_NOT_OK(WriteBackLocked(*state));
    *changed = true;
  }
  return Status::OK();
}

Result<size_t> RefreshManager::ApplyPendingDeltasLocked(bool* changed) {
  std::vector<UpdateRecord> records;
  {
    static telemetry::SpanSite& drain_site =
        telemetry::GetSpanSite("Refresh.Drain");
    telemetry::TraceSpan drain_span(drain_site);
    log_.Drain(&records);
  }
  static telemetry::SpanSite& apply_site =
      telemetry::GetSpanSite("Refresh.Apply");
  telemetry::TraceSpan apply_span(apply_site);
  // Fold every drained LSN — including unknown-column drops — so the
  // high-water mark stays contiguous (a dropped record must not be
  // replayed as if it were never consumed).
  for (const UpdateRecord& record : records) {
    high_water_lsn_ = std::max(high_water_lsn_, record.lsn);
  }
  HOPS_ASSIGN_OR_RETURN(const size_t applied, ApplyRecordsLocked(records));
  HOPS_RETURN_NOT_OK(WriteBackDirtyLocked(changed));
  return applied;
}

Result<size_t> RefreshManager::ApplyPendingDeltas() {
  std::lock_guard<std::mutex> lock(mutex_);
  bool changed = false;
  HOPS_ASSIGN_OR_RETURN(const size_t applied, ApplyPendingDeltasLocked(&changed));
  if (changed) HOPS_RETURN_NOT_OK(RepublishLocked());
  return applied;
}

Status RefreshManager::TuneColumnsLocked(bool* changed) {
  if (!tuner_.enabled()) return Status::OK();
  static telemetry::SpanSite& tune_site =
      telemetry::GetSpanSite("Refresh.SelfTune");
  telemetry::TraceSpan span(tune_site);
  Stopwatch stopwatch;
  uint64_t adjustments = 0;
  uint64_t promotions = 0;
  for (auto& sp : columns_) {
    ColumnState& state = *sp;
    // Decay first: a column tuned this very tick ends at recency 1.
    tuner_.DecayRecency(&state.tuning);
    if (state.tuning.pending.empty()) continue;
    HOPS_ASSIGN_OR_RETURN(
        const SelfTuneReport report,
        tuner_.TuneColumn(&state.tuning, state.maintainer.mutable_current(),
                          state.min_value, state.max_value));
    if (!report.changed()) continue;
    adjustments += report.adjustments;
    promotions += report.promotions;
    if (report.promotions > 0) {
      // Promotions move values out of the default bucket, so the
      // maintained-vs-ideal classification (and with it the Prop 3.1
      // moments) changed shape — recompute from scratch like a rebuild does.
      RecomputeMomentsLocked(state);
    }
    // A rebuild would now replace the tuned histogram, so it may change it.
    state.unchanged_since_build = false;
    state.dirty = true;
    HOPS_RETURN_NOT_OK(WriteBackLocked(state));
    if (changed != nullptr) *changed = true;
  }
  if (adjustments > 0) tuning_adjustments_.Increment(adjustments);
  if (promotions > 0) tuning_promotions_.Increment(promotions);
  if (adjustments > 0 || promotions > 0) {
    last_tune_seconds_ = stopwatch.ElapsedSeconds();
  }
  if (span.emitting()) {
    span.SetDetail("adjustments=" + std::to_string(adjustments) +
                   " promotions=" + std::to_string(promotions));
  }
  return Status::OK();
}

Result<bool> RefreshManager::TuneColumns() {
  std::lock_guard<std::mutex> lock(mutex_);
  bool changed = false;
  HOPS_RETURN_NOT_OK(TuneColumnsLocked(&changed));
  if (changed) HOPS_RETURN_NOT_OK(RepublishLocked());
  return changed;
}

StalenessScore RefreshManager::ScoreLocked(const ColumnState& state) const {
  StalenessSignals signals;
  signals.drift_fraction =
      static_cast<double>(state.maintainer.updates_applied()) /
      std::max(state.tuples_at_build, 1.0);
  signals.self_join_error = SelfJoinStalenessError(state.moments);
  signals.self_join_relative =
      signals.self_join_error / std::max(state.moments.total_sum_sq, 1.0);
  signals.feedback_error = state.feedback_ewma;
  signals.tuning_recency = state.tuning.recency;
  signals.maintainer_wants_rebuild = state.maintainer.NeedsRebuild();
  signals.unchanged_since_build = state.unchanged_since_build;
  return advisor_.Score(signals);
}

std::vector<ColumnStalenessReport> RefreshManager::ScoreColumns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ColumnStalenessReport> reports;
  reports.reserve(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    const ColumnState& state = *columns_[i];
    ColumnStalenessReport report;
    report.id = static_cast<RefreshColumnId>(i);
    report.table = state.table;
    report.column = state.column;
    report.score = ScoreLocked(state);
    report.deltas_applied = state.deltas_since_rebuild;
    report.rebuilds = state.rebuilds;
    report.tuning_observations = state.tuning.observations;
    report.tuning_adjustments = state.tuning.adjustments;
    report.tuning_promotions = state.tuning.promotions;
    report.tuning_recency = state.tuning.recency;
    reports.push_back(std::move(report));
  }
  std::stable_sort(reports.begin(), reports.end(),
                   [](const ColumnStalenessReport& a,
                      const ColumnStalenessReport& b) {
                     return a.score.total > b.score.total;
                   });
  return reports;
}

Result<StalenessScore> RefreshManager::ScoreColumn(RefreshColumnId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id >= columns_.size()) {
    return Status::InvalidArgument("unknown refresh column id " +
                                   std::to_string(id));
  }
  return ScoreLocked(*columns_[id]);
}

Result<size_t> RefreshManager::RebuildColumnsLocked(
    std::vector<std::pair<RefreshColumnId, RebuildReason>> picks) {
  if (picks.empty()) return size_t{0};
  static telemetry::SpanSite& rebuild_site =
      telemetry::GetSpanSite("Refresh.Rebuild");
  telemetry::TraceSpan span(rebuild_site);
  Stopwatch stopwatch;

  // Assemble one batched construction problem per column and fan it across
  // the pool (§6 pipeline). Each pick keeps its sorted positive (value,
  // frequency) pairs: request i's set entry j is pairs[i][j], and the same
  // pairs give the installed column's total and Prop 3.1 moments.
  std::vector<HistogramBuildRequest> requests;
  std::vector<std::vector<std::pair<int64_t, double>>> pairs_per_pick(
      picks.size());
  std::vector<size_t> request_of_pick(picks.size(), SIZE_MAX);
  requests.reserve(picks.size());
  for (size_t p = 0; p < picks.size(); ++p) {
    ColumnState& state = *columns_[picks[p].first];
    pairs_per_pick[p] = SortedPositiveIdeal(state.ideal);
    const std::vector<std::pair<int64_t, double>>& pairs = pairs_per_pick[p];
    if (pairs.empty()) {
      // Every count was deleted: there is nothing to build from until a
      // delta arrives (which clears the flag), so leave the column as it
      // is and stop it from taking a rebuild slot on every tick.
      state.unchanged_since_build = true;
      continue;
    }
    std::vector<double> freqs;
    freqs.reserve(pairs.size());
    for (const auto& [value, freq] : pairs) freqs.push_back(freq);
    HOPS_ASSIGN_OR_RETURN(FrequencySet set,
                          FrequencySet::Make(std::move(freqs)));
    HistogramBuildRequest request;
    request.num_buckets = std::max<size_t>(
        1, std::min(options_.statistics.num_buckets, set.size()));
    request.kind = BuilderKindForStatisticsClass(
        options_.statistics.histogram_class);
    request.set = std::move(set);
    request_of_pick[p] = requests.size();
    requests.push_back(std::move(request));
  }

  ParallelBuildOptions build_options;
  build_options.pool = options_.pool;
  std::vector<Result<Histogram>> built =
      BuildHistogramBatch(std::move(requests), build_options);

  size_t installed = 0;
  for (size_t p = 0; p < picks.size(); ++p) {
    if (request_of_pick[p] == SIZE_MAX) continue;
    HOPS_RETURN_NOT_OK(built[request_of_pick[p]].status());
    ColumnState& state = *columns_[picks[p].first];
    const std::vector<std::pair<int64_t, double>>& pairs = pairs_per_pick[p];
    std::vector<int64_t> ids;
    ids.reserve(pairs.size());
    double total = 0;
    for (const auto& [value, freq] : pairs) {
      ids.push_back(value);
      total += freq;
    }
    HOPS_ASSIGN_OR_RETURN(
        CatalogHistogram compact,
        CatalogHistogram::FromHistogram(*built[request_of_pick[p]], ids,
                                        options_.statistics.average_mode));
    state.maintainer.Rebuilt(std::move(compact), total);
    state.tuples_at_build = total;
    state.min_value = pairs.front().first;
    state.max_value = pairs.back().first;
    state.distinct = pairs.size();
    state.moments = ComputeIdealMoments(state.maintainer.current(), pairs);
    // Feedback referred to the replaced statistics; start fresh. Buffered
    // tuning observations likewise described the old bucketization.
    state.feedback_ewma = 0;
    state.has_feedback = false;
    state.deltas_since_rebuild = 0;
    state.tuning.OnRebuild();
    ++state.rebuilds;
    state.dirty = true;
    state.unchanged_since_build = true;
    switch (picks[p].second) {
      case RebuildReason::kSelfJoin: rebuilds_self_join_.Increment(); break;
      case RebuildReason::kFeedback: rebuilds_feedback_.Increment(); break;
      case RebuildReason::kForced: rebuilds_forced_.Increment(); break;
      case RebuildReason::kDrift:
      case RebuildReason::kNone: rebuilds_drift_.Increment(); break;
    }
    HOPS_RETURN_NOT_OK(WriteBackLocked(state));
    ++installed;
  }
  if (installed > 0) last_refresh_seconds_ = stopwatch.ElapsedSeconds();
  return installed;
}

void RefreshManager::RecomputeMomentsLocked(ColumnState& state) {
  state.moments = ComputeIdealMoments(state.maintainer.current(),
                                      SortedPositiveIdeal(state.ideal));
}

Result<size_t> RefreshManager::RebuildIfStaleLocked(bool* changed) {
  std::vector<std::pair<double, std::pair<RefreshColumnId, RebuildReason>>>
      candidates;
  {
    static telemetry::SpanSite& score_site =
        telemetry::GetSpanSite("Refresh.Score");
    telemetry::TraceSpan score_span(score_site);
    for (size_t i = 0; i < columns_.size(); ++i) {
      const StalenessScore score = ScoreLocked(*columns_[i]);
      if (!score.rebuild_recommended) continue;
      candidates.push_back(
          {score.total,
           {static_cast<RefreshColumnId>(i), score.reason}});
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  if (candidates.size() > options_.max_rebuilds_per_tick) {
    candidates.resize(options_.max_rebuilds_per_tick);
  }
  std::vector<std::pair<RefreshColumnId, RebuildReason>> picks;
  picks.reserve(candidates.size());
  for (const auto& c : candidates) picks.push_back(c.second);
  HOPS_ASSIGN_OR_RETURN(const size_t installed,
                        RebuildColumnsLocked(std::move(picks)));
  if (installed > 0) *changed = true;
  return installed;
}

Result<size_t> RefreshManager::RebuildIfStale() {
  std::lock_guard<std::mutex> lock(mutex_);
  bool changed = false;
  HOPS_ASSIGN_OR_RETURN(const size_t n, RebuildIfStaleLocked(&changed));
  if (changed) HOPS_RETURN_NOT_OK(RepublishLocked());
  return n;
}

Status RefreshManager::ForceRebuild(std::span<const RefreshColumnId> ids) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<RefreshColumnId, RebuildReason>> picks;
  picks.reserve(ids.size());
  for (RefreshColumnId id : ids) {
    if (id >= columns_.size()) {
      return Status::InvalidArgument("unknown refresh column id " +
                                     std::to_string(id));
    }
    picks.push_back({id, RebuildReason::kForced});
  }
  HOPS_ASSIGN_OR_RETURN(const size_t installed,
                        RebuildColumnsLocked(std::move(picks)));
  if (installed > 0) HOPS_RETURN_NOT_OK(RepublishLocked());
  return Status::OK();
}

Result<RefreshTickReport> RefreshManager::Tick() {
  // Each tick roots its own trace (DESIGN.md §14): ticks run on the refresh
  // daemon's thread, outside any request, so when no context is already
  // installed the tick mints one and head-samples it exactly like an HTTP
  // ingress would — sampled ticks land in /debug/tracez with the full
  // drain/apply/score/rebuild/republish phase tree under them.
  telemetry::TraceContext tick_context = telemetry::CurrentTraceContext();
  if (!tick_context.valid() && telemetry::Enabled()) {
    if (telemetry::TraceRecorder* recorder =
            telemetry::TraceRecorder::Current()) {
      tick_context = telemetry::MintTraceContext();
      tick_context.sampled =
          recorder->ShouldSample(tick_context.trace_hi, tick_context.trace_lo);
    }
  }
  telemetry::TraceContextScope tick_scope(tick_context);
  static telemetry::SpanSite& tick_site = telemetry::GetSpanSite("Refresh.Tick");
  telemetry::TraceSpan tick_span(tick_site);
  Stopwatch stopwatch;
  RefreshTickReport report;
  std::lock_guard<std::mutex> lock(mutex_);
  bool changed = false;
  HOPS_ASSIGN_OR_RETURN(report.deltas_applied,
                        ApplyPendingDeltasLocked(&changed));
  // Tuning runs between apply and rebuild: the staleness scores below see
  // the tuned histograms (and the tuning-recency relief), so a column the
  // tuner just fixed in place is less likely to burn a rebuild slot.
  HOPS_RETURN_NOT_OK(TuneColumnsLocked(&changed));
  HOPS_ASSIGN_OR_RETURN(report.columns_rebuilt, RebuildIfStaleLocked(&changed));
  report.changed = changed;
  if (changed) {
    // At most one publication per tick: the apply-path and rebuild-path
    // write-backs coalesce into a single RCU swap.
    HOPS_RETURN_NOT_OK(RepublishLocked());
    report.republished = true;
  } else {
    // No-op tick: skip publication so readers keep their cached snapshot
    // (and the RCU epoch does not churn for nothing).
    ticks_skipped_.Increment();
  }
  ticks_.Increment();
  for (const auto& state : columns_) {
    if (state->deltas_since_rebuild > 0) ++report.columns_touched;
  }
  report.seconds = stopwatch.ElapsedSeconds();
  last_tick_seconds_ = report.seconds;
  if (tick_span.emitting()) {
    tick_span.SetDetail("deltas=" + std::to_string(report.deltas_applied) +
                        " rebuilt=" + std::to_string(report.columns_rebuilt) +
                        (report.republished ? " republished=1" : ""));
  }
  return report;
}

void RefreshManager::AttachDurability(DurabilityHook* hook) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    durability_ = hook;
  }
  log_.SetDurabilityHook(hook);
}

Result<RefreshDurableState> RefreshManager::ExportDurableState() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Drain + apply first so the high-water mark is contiguous: everything
  // at or below it is inside the image, everything above is WAL-replayable.
  bool changed = false;
  HOPS_RETURN_NOT_OK(ApplyPendingDeltasLocked(&changed).status());
  if (changed) HOPS_RETURN_NOT_OK(RepublishLocked());

  RefreshDurableState out;
  out.high_water_lsn = high_water_lsn_;
  out.columns.reserve(columns_.size());
  for (const auto& sp : columns_) {
    const ColumnState& s = *sp;
    ColumnDurableState c;
    c.table = s.table;
    c.column = s.column;
    const CatalogHistogram& h = s.maintainer.current();
    c.explicit_values.reserve(h.explicit_entries().size());
    c.explicit_freqs.reserve(h.explicit_entries().size());
    for (const auto& [value, freq] : h.explicit_entries()) {
      c.explicit_values.push_back(value);
      c.explicit_freqs.push_back(freq);
    }
    c.default_frequency = h.default_frequency();
    c.num_default_values = h.num_default_values();
    c.maintainer = s.maintainer.ExportDurableState();
    std::vector<std::pair<int64_t, double>> pairs(s.ideal.begin(),
                                                  s.ideal.end());
    std::sort(pairs.begin(), pairs.end());
    c.ideal_values.reserve(pairs.size());
    c.ideal_counts.reserve(pairs.size());
    for (const auto& [value, count] : pairs) {
      c.ideal_values.push_back(value);
      c.ideal_counts.push_back(count);
    }
    c.tuples_at_build = s.tuples_at_build;
    c.min_value = s.min_value;
    c.max_value = s.max_value;
    c.distinct = s.distinct;
    c.feedback_ewma = s.feedback_ewma;
    c.has_feedback = s.has_feedback;
    c.deltas_since_rebuild = s.deltas_since_rebuild;
    c.rebuilds = s.rebuilds;
    out.columns.push_back(std::move(c));
  }
  return out;
}

Status RefreshManager::RestoreDurableState(const RefreshDurableState& state) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!columns_.empty()) {
    return Status::InvalidArgument(
        "RestoreDurableState requires an empty manager (have " +
        std::to_string(columns_.size()) + " columns)");
  }
  for (const ColumnDurableState& c : state.columns) {
    if (c.explicit_values.size() != c.explicit_freqs.size() ||
        c.ideal_values.size() != c.ideal_counts.size()) {
      return Status::InvalidArgument(
          "durable column " + c.table + "." + c.column +
          " has mismatched parallel arrays");
    }
    std::vector<std::pair<int64_t, double>> entries;
    entries.reserve(c.explicit_values.size());
    for (size_t i = 0; i < c.explicit_values.size(); ++i) {
      entries.emplace_back(c.explicit_values[i], c.explicit_freqs[i]);
    }
    HOPS_ASSIGN_OR_RETURN(
        CatalogHistogram histogram,
        CatalogHistogram::Make(std::move(entries), c.default_frequency,
                               c.num_default_values));
    const auto key = std::make_pair(c.table, c.column);
    if (by_name_.count(key) != 0) {
      return Status::InvalidArgument("durable state repeats column " +
                                     c.table + "." + c.column);
    }
    auto st = std::make_unique<ColumnState>();
    st->table = c.table;
    st->column = c.column;
    st->maintainer = HistogramMaintainer(
        std::move(histogram), c.maintainer.num_tuples, options_.maintenance);
    st->maintainer.RestoreDurableState(c.maintainer);
    st->ideal.reserve(c.ideal_values.size());
    for (size_t i = 0; i < c.ideal_values.size(); ++i) {
      st->ideal.emplace(c.ideal_values[i], c.ideal_counts[i]);
    }
    st->tuples_at_build = c.tuples_at_build;
    st->min_value = c.min_value;
    st->max_value = c.max_value;
    st->distinct = c.distinct;
    st->feedback_ewma = c.feedback_ewma;
    st->has_feedback = c.has_feedback;
    st->deltas_since_rebuild = c.deltas_since_rebuild;
    st->rebuilds = c.rebuilds;
    const RefreshColumnId id = static_cast<RefreshColumnId>(columns_.size());
    columns_.push_back(std::move(st));
    {
      std::unique_lock<std::shared_mutex> names_lock(names_mutex_);
      by_name_.emplace(key, id);
    }
    // Moments are a deterministic function of (histogram, positive ideal
    // counts); recompute instead of persisting. For integer counts the sums
    // are exact, so a restored column scores as it did before export.
    // unchanged_since_build stays clear: the image does not say whether the
    // histogram carries tuning, so a recovered column may rebuild once.
    RecomputeMomentsLocked(*columns_[id]);
    HOPS_RETURN_NOT_OK(WriteBackLocked(*columns_[id]));
  }
  high_water_lsn_ = std::max(high_water_lsn_, state.high_water_lsn);
  HOPS_RETURN_NOT_OK(RepublishLocked());
  return Status::OK();
}

Status RefreshManager::ReplayRegistration(uint64_t lsn, RefreshColumnId id,
                                          const std::string& table,
                                          const std::string& column,
                                          std::span<const int64_t> value_ids,
                                          std::span<const double> frequencies) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (durability_ != nullptr) {
      return Status::InvalidArgument(
          "ReplayRegistration must run before AttachDurability");
    }
    if (lsn != 0 && lsn <= high_water_lsn_) {
      return Status::OK();  // the snapshot already covers this registration
    }
  }
  HOPS_ASSIGN_OR_RETURN(const RefreshColumnId got,
                        RegisterColumn(table, column, value_ids, frequencies));
  std::lock_guard<std::mutex> lock(mutex_);
  high_water_lsn_ = std::max(high_water_lsn_, lsn);
  if (got != id) {
    return Status::Internal("replayed registration of " + table + "." +
                            column + " got id " + std::to_string(got) +
                            ", WAL recorded " + std::to_string(id));
  }
  return Status::OK();
}

Result<size_t> RefreshManager::ApplyRecoveredDeltas(
    std::span<const UpdateRecord> records) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<UpdateRecord> fresh;
  fresh.reserve(records.size());
  uint64_t high_water = high_water_lsn_;
  for (const UpdateRecord& record : records) {
    if (record.lsn != 0 && record.lsn <= high_water) continue;
    if (Status weight = CheckDeltaWeight(record.weight); !weight.ok()) {
      return Status::InvalidArgument("WAL record lsn " +
                                     std::to_string(record.lsn) + ": " +
                                     weight.message());
    }
    high_water = std::max(high_water, record.lsn);
    fresh.push_back(record);
  }
  high_water_lsn_ = high_water;
  HOPS_ASSIGN_OR_RETURN(const size_t applied, ApplyRecordsLocked(fresh));
  bool changed = false;
  HOPS_RETURN_NOT_OK(WriteBackDirtyLocked(&changed));
  if (changed) HOPS_RETURN_NOT_OK(RepublishLocked());
  return applied;
}

RefreshStats RefreshManager::stats() const {
  RefreshStats s;
  s.log = log_.stats();
  std::lock_guard<std::mutex> lock(mutex_);
  s.columns_tracked = columns_.size();
  s.deltas_applied = deltas_applied_.Value();
  s.unknown_column_records = unknown_column_records_.Value();
  s.ticks = ticks_.Value();
  s.ticks_skipped = ticks_skipped_.Value();
  s.rebuilds_drift = rebuilds_drift_.Value();
  s.rebuilds_self_join = rebuilds_self_join_.Value();
  s.rebuilds_feedback = rebuilds_feedback_.Value();
  s.rebuilds_forced = rebuilds_forced_.Value();
  s.rebuilds_total = s.rebuilds_drift + s.rebuilds_self_join +
                     s.rebuilds_feedback + s.rebuilds_forced;
  s.republish_count = republish_count_.Value();
  s.feedback_reports = feedback_reports_.Value();
  s.tuning_observations = tuning_observations_.Value();
  s.tuning_adjustments = tuning_adjustments_.Value();
  s.tuning_promotions = tuning_promotions_.Value();
  s.last_tick_seconds = last_tick_seconds_;
  s.last_refresh_seconds = last_refresh_seconds_;
  s.last_tune_seconds = last_tune_seconds_;
  return s;
}

}  // namespace hops
