#include "telemetry/log.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>

#include "telemetry/trace_context.h"
#include "util/json.h"

namespace hops::telemetry {

namespace {

// Per-site admission budget: lines per steady-clock second.
constexpr uint32_t kMaxLinesPerSecondPerSite = 10;

int InitialMinLevel() {
  int initial = static_cast<int>(LogLevel::kInfo);
  if (const char* env = std::getenv("HOPS_LOG"); env != nullptr) {
    const std::string_view v(env);
    if (v == "debug") initial = static_cast<int>(LogLevel::kDebug);
    else if (v == "info") initial = static_cast<int>(LogLevel::kInfo);
    else if (v == "warn") initial = static_cast<int>(LogLevel::kWarn);
    else if (v == "error") initial = static_cast<int>(LogLevel::kError);
    else if (v == "off") initial = static_cast<int>(LogLevel::kError) + 1;
  }
  return initial;
}

std::atomic<int>& MinLevelSlot() {
  static std::atomic<int> level{InitialMinLevel()};
  return level;
}

std::atomic<bool>& StderrSlot() {
  static std::atomic<bool> enabled{false};
  return enabled;
}

int64_t SteadySeconds() {
  return std::chrono::duration_cast<std::chrono::seconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double UnixSeconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Windowed per-site admission; on admit, drains the suppressed count
/// accumulated since the site's last admitted line into \p *suppressed.
bool Admit(LogSite* site, uint64_t* suppressed) {
  *suppressed = 0;
  if (site == nullptr) return true;
  const int64_t sec = SteadySeconds();
  int64_t window = site->window_start_sec.load(std::memory_order_relaxed);
  if (window != sec &&
      site->window_start_sec.compare_exchange_strong(
          window, sec, std::memory_order_relaxed)) {
    site->admitted_in_window.store(0, std::memory_order_relaxed);
  }
  if (site->admitted_in_window.fetch_add(1, std::memory_order_relaxed) >=
      kMaxLinesPerSecondPerSite) {
    site->suppressed.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  *suppressed = site->suppressed.exchange(0, std::memory_order_relaxed);
  return true;
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
  }
  return "unknown";
}

struct LogBuffer::Impl {
  explicit Impl(size_t cap) : capacity(cap) {}
  const size_t capacity;
  mutable std::mutex mutex;
  std::deque<std::string> lines;
  uint64_t total = 0;
};

LogBuffer::LogBuffer(size_t capacity)
    : impl_(std::make_unique<Impl>(capacity)) {}

LogBuffer::~LogBuffer() = default;

void LogBuffer::Push(std::string line) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (impl_->lines.size() == impl_->capacity) impl_->lines.pop_front();
  impl_->lines.push_back(std::move(line));
  ++impl_->total;
}

std::vector<std::string> LogBuffer::Snapshot(size_t max_lines) const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const size_t n = std::min(max_lines, impl_->lines.size());
  return std::vector<std::string>(impl_->lines.end() - static_cast<long>(n),
                                  impl_->lines.end());
}

uint64_t LogBuffer::total_lines() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->total;
}

LogBuffer& LogBuffer::Global() {
  // Leaked: log lines may be pushed during static teardown.
  static LogBuffer* buffer = new LogBuffer();
  return *buffer;
}

LogLevel MinLogLevel() {
  return static_cast<LogLevel>(MinLevelSlot().load(std::memory_order_relaxed));
}

void SetMinLogLevel(LogLevel level) {
  MinLevelSlot().store(static_cast<int>(level), std::memory_order_relaxed);
}

bool ShouldLog(LogLevel level) {
  return static_cast<int>(level) >=
         MinLevelSlot().load(std::memory_order_relaxed);
}

void SetLogStderr(bool enabled) {
  StderrSlot().store(enabled, std::memory_order_relaxed);
}

void LogRecord(LogLevel level, std::string_view component,
               std::string_view message, std::initializer_list<LogField> fields,
               LogSite* site) {
  if (!ShouldLog(level)) return;
  uint64_t suppressed = 0;
  if (!Admit(site, &suppressed)) return;

  JsonWriter writer;
  writer.BeginObject();
  writer.Key("ts");
  writer.Double(UnixSeconds());
  writer.Key("level");
  writer.String(LogLevelName(level));
  writer.Key("component");
  writer.String(std::string(component));
  writer.Key("message");
  writer.String(std::string(message));
  const TraceContext& context = CurrentTraceContext();
  if (context.valid()) {
    writer.Key("trace_id");
    writer.String(FormatTraceId(context));
  }
  for (const LogField& field : fields) {
    writer.Key(std::string(field.key));
    switch (field.value.kind) {
      case LogValue::Kind::kString: writer.String(field.value.text); break;
      case LogValue::Kind::kInt: writer.Int(field.value.i); break;
      case LogValue::Kind::kUInt: writer.UInt(field.value.u); break;
      case LogValue::Kind::kDouble: writer.Double(field.value.d); break;
      case LogValue::Kind::kBool: writer.Bool(field.value.b); break;
    }
  }
  if (suppressed > 0) {
    writer.Key("suppressed");
    writer.UInt(suppressed);
  }
  writer.EndObject();

  std::string line = writer.str();
  if (StderrSlot().load(std::memory_order_relaxed)) {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
  LogBuffer::Global().Push(std::move(line));
}

}  // namespace hops::telemetry
