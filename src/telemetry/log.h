// Leveled, rate-limited, trace-correlated structured logging
// (DESIGN.md §14). One JSON object per line:
//
//   {"ts":1754650000.123456,"level":"warn","component":"net",
//    "message":"slow request","trace_id":"<32 hex, when in a trace>",
//    "method":"POST","seconds":0.25,"suppressed":3}
//
// Design constraints, in order:
//   - Logging must never become the hot path: every HOPS_LOG callsite
//     owns a static LogSite rate window (default 10 lines per second per
//     site); past the budget the line is dropped and counted, and the
//     next admitted line from that site carries "suppressed":N. The level
//     check is one relaxed atomic load before any argument evaluates.
//   - Lines land in a process-wide in-memory ring (LogBuffer::Global)
//     that GET /debug/logz snapshots — a scrapeless deploy still has its
//     recent history. Mirroring to stderr is opt-in (SetLogStderr) so
//     test output stays deterministic.
//   - Lines are correlated: when the calling thread carries a valid
//     TraceContext (trace_context.h) its trace id is attached, so a slow
//     request's log lines and its /debug/tracez spans cross-reference.
//
// Usage:
//
//   HOPS_LOG(LogLevel::kWarn, "net", "slow request",
//            {"seconds", LogValue(elapsed)}, {"status", LogValue(200)});
//
// The minimum level defaults to info and honors HOPS_LOG=debug|info|
// warn|error|off at startup; SetMinLogLevel overrides at runtime.

#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace hops::telemetry {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// "debug" / "info" / "warn" / "error".
const char* LogLevelName(LogLevel level);

/// \brief One typed field value (string, integer, or double) so numbers
/// render as JSON numbers, not quoted strings.
struct LogValue {
  enum class Kind { kString, kInt, kUInt, kDouble, kBool };
  Kind kind;
  std::string text;
  int64_t i = 0;
  uint64_t u = 0;
  double d = 0;
  bool b = false;

  LogValue(const char* value) : kind(Kind::kString), text(value) {}
  LogValue(std::string_view value) : kind(Kind::kString), text(value) {}
  LogValue(const std::string& value) : kind(Kind::kString), text(value) {}
  LogValue(int value) : kind(Kind::kInt), i(value) {}
  LogValue(int64_t value) : kind(Kind::kInt), i(value) {}
  LogValue(uint64_t value) : kind(Kind::kUInt), u(value) {}
  LogValue(double value) : kind(Kind::kDouble), d(value) {}
  LogValue(bool value) : kind(Kind::kBool), b(value) {}
};

struct LogField {
  std::string_view key;
  LogValue value;
};

/// \brief Per-callsite rate limiter state. Zero-initialized static storage
/// at each HOPS_LOG site; all members atomic (callsites race freely).
struct LogSite {
  std::atomic<int64_t> window_start_sec{-1};
  std::atomic<uint32_t> admitted_in_window{0};
  std::atomic<uint64_t> suppressed{0};
};

/// \brief Fixed-capacity ring of rendered lines for /debug/logz. Mutex
/// guarded — logging is already rate-limited, never hot.
class LogBuffer {
 public:
  explicit LogBuffer(size_t capacity = 1024);
  ~LogBuffer();

  LogBuffer(const LogBuffer&) = delete;
  LogBuffer& operator=(const LogBuffer&) = delete;

  void Push(std::string line);

  /// Oldest-first snapshot of the newest \p max_lines lines.
  std::vector<std::string> Snapshot(size_t max_lines = SIZE_MAX) const;

  /// Lines ever pushed (monotonic; exceeds the ring once it wraps).
  uint64_t total_lines() const;

  /// The process-wide ring. Never destroyed, because loggers may still run
  /// during static teardown; every other instance frees its ring.
  static LogBuffer& Global();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Current minimum level (default info; HOPS_LOG env applied at startup).
LogLevel MinLogLevel();
void SetMinLogLevel(LogLevel level);

/// True when a line at \p level would be admitted by the level filter
/// (kError+1 — i.e. HOPS_LOG=off — admits nothing).
bool ShouldLog(LogLevel level);

/// Mirror admitted lines to stderr (off by default; the serving daemon
/// turns it on).
void SetLogStderr(bool enabled);

/// Renders and records one line. \p site, when non-null, applies the
/// 10/s-per-site token budget; suppressed counts flush into the next
/// admitted line. Prefer the HOPS_LOG macro, which supplies the site and
/// short-circuits on level.
void LogRecord(LogLevel level, std::string_view component,
               std::string_view message,
               std::initializer_list<LogField> fields = {},
               LogSite* site = nullptr);

// Level check first so arguments never evaluate for filtered lines; one
// static LogSite per callsite gives each its own rate budget.
#define HOPS_LOG(level, component, message, ...)                          \
  do {                                                                    \
    if (::hops::telemetry::ShouldLog(level)) {                            \
      static ::hops::telemetry::LogSite hops_log_site_;                   \
      ::hops::telemetry::LogRecord(level, component, message,             \
                                   {__VA_ARGS__}, &hops_log_site_);       \
    }                                                                     \
  } while (0)

}  // namespace hops::telemetry
