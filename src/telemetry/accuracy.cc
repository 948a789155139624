#include "telemetry/accuracy.h"

#include <algorithm>
#include <cmath>

namespace hops::telemetry {

double QError(double estimated, double actual) {
  if (!std::isfinite(estimated) || !std::isfinite(actual)) return 1.0;
  const double e = std::max(estimated, 1.0);
  const double a = std::max(actual, 1.0);
  return std::max(e / a, a / e);
}

AccuracyTracker::AccuracyTracker(MetricRegistry* registry,
                                 EstimationFeedbackSink* next)
    : registry_(registry != nullptr ? registry : &MetricRegistry::Global()),
      next_(next) {}

const AccuracyTracker::PerColumn* AccuracyTracker::FindOrCreate(
    std::string_view table, std::string_view column) {
  const auto key =
      std::make_pair(std::string(table), std::string(column));
  {
    std::shared_lock<std::shared_mutex> read(mutex_);
    const auto it = columns_.find(key);
    if (it != columns_.end()) return it->second.get();
  }
  std::unique_lock<std::shared_mutex> write(mutex_);
  auto [it, inserted] = columns_.try_emplace(key);
  if (inserted) {
    const LabelSet labels = {{"table", key.first}, {"column", key.second}};
    auto state = std::make_unique<PerColumn>();
    state->reports = registry_->GetCounter(
        "hops_estimate_feedback_total",
        "Observed estimation outcomes reported per column.", labels);
    state->underestimates = registry_->GetCounter(
        "hops_estimate_underestimate_total",
        "Reports whose clamped estimate fell below the clamped actual "
        "result size.",
        labels);
    state->overestimates = registry_->GetCounter(
        "hops_estimate_overestimate_total",
        "Reports whose clamped estimate exceeded the clamped actual result "
        "size.",
        labels);
    state->qerror = registry_->GetHistogram(
        "hops_estimate_qerror",
        "Q-error max(e,a)/min(e,a) of served estimates, clamped at one "
        "tuple (log-spaced buckets).",
        LogBucketSpec::QError(), labels);
    it->second = std::move(state);
  }
  return it->second.get();
}

void AccuracyTracker::ReportPredicateOutcome(std::string_view table,
                                             std::string_view column,
                                             const PredicateOutcome& outcome) {
  if (std::isfinite(outcome.estimated) && std::isfinite(outcome.actual)) {
    const PerColumn* state = FindOrCreate(table, column);
    const double e = std::max(outcome.estimated, 1.0);
    const double a = std::max(outcome.actual, 1.0);
    state->reports->Increment();
    if (e < a) {
      state->underestimates->Increment();
    } else if (e > a) {
      state->overestimates->Increment();
    }
    state->qerror->Record(std::max(e / a, a / e));
  }
  if (next_ != nullptr) {
    next_->ReportPredicateOutcome(table, column, outcome);
  }
}

ColumnAccuracy AccuracyTracker::Summarize(const std::string& table,
                                          const std::string& column,
                                          const PerColumn& state) const {
  ColumnAccuracy out;
  out.table = table;
  out.column = column;
  out.reports = state.reports->Value();
  out.underestimates = state.underestimates->Value();
  out.overestimates = state.overestimates->Value();
  const HistogramSnapshot hist = state.qerror->Snapshot();
  out.max_qerror = hist.max;
  out.mean_qerror = hist.Mean();
  out.p50_qerror = hist.Quantile(0.50);
  out.p95_qerror = hist.Quantile(0.95);
  out.p99_qerror = hist.Quantile(0.99);
  return out;
}

Result<ColumnAccuracy> AccuracyTracker::ColumnReport(
    std::string_view table, std::string_view column) const {
  std::shared_lock<std::shared_mutex> read(mutex_);
  const auto it = columns_.find(
      std::make_pair(std::string(table), std::string(column)));
  if (it == columns_.end()) {
    return Status::NotFound("no feedback recorded for " + std::string(table) +
                            "." + std::string(column));
  }
  return Summarize(it->first.first, it->first.second, *it->second);
}

std::vector<ColumnAccuracy> AccuracyTracker::Report() const {
  std::shared_lock<std::shared_mutex> read(mutex_);
  std::vector<ColumnAccuracy> out;
  out.reserve(columns_.size());
  for (const auto& [key, state] : columns_) {
    out.push_back(Summarize(key.first, key.second, *state));
  }
  return out;
}

size_t AccuracyTracker::num_columns() const {
  std::shared_lock<std::shared_mutex> read(mutex_);
  return columns_.size();
}

}  // namespace hops::telemetry
