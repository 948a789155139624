// Request-scoped trace identity (DESIGN.md §14): a 128-bit trace id plus
// the 64-bit id of the currently-open span, carried BY VALUE through the
// serving call graph. The context is minted at HTTP ingress (or adopted
// from an incoming W3C `traceparent` header) and installed in a
// thread-local slot for the request's dynamic extent; every span of the
// request opens on that thread. Background work (refresh ticks,
// checkpoints) mints its own root context per unit of work.
//
// The context answers two questions for every TraceSpan that opens:
//   - which trace am I part of (trace_hi/trace_lo, zero = none)?
//   - was this trace head-sampled (record events into the TraceRecorder)?
// Both are decided once at the root: sampling is a deterministic function
// of the trace id (trace_recorder.h), so a retried request with the same
// traceparent reproduces the same decision, and every span in one trace
// agrees without coordination.
//
// Cost model: an unsampled request pays one thread-local read per span
// (folded into the existing TraceSpan constructor); the scope itself is
// two thread-local stores. Nothing here allocates.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace hops::telemetry {

/// \brief Value-type trace identity. Zero trace id (hi|lo == 0) means "no
/// trace": spans still fold their aggregate metrics but emit no events.
struct TraceContext {
  uint64_t trace_hi = 0;  ///< top 64 bits of the 128-bit trace id
  uint64_t trace_lo = 0;  ///< bottom 64 bits
  uint64_t span_id = 0;   ///< innermost open span (parent of the next span)
  bool sampled = false;   ///< record span events into the TraceRecorder

  bool valid() const { return (trace_hi | trace_lo) != 0; }
};

/// \brief Mints a fresh root context: random-ish unique ids (process seed
/// mixed with a monotonic counter — never zero), sampling undecided
/// (callers consult TraceRecorder::ShouldSample). span_id is the root span
/// id events parent under.
TraceContext MintTraceContext();

/// \brief A fresh 64-bit span id (never zero).
uint64_t MintSpanId();

/// \brief Parses a W3C `traceparent` header value:
///   version "-" 32*HEXDIG "-" 16*HEXDIG "-" 2*HEXDIG
/// e.g. "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01".
/// Returns false (leaving \p *out untouched) for malformed values, a zero
/// trace id, or a zero parent span id. The sampled flag adopts bit 0 of
/// trace-flags; unknown versions parse leniently per the spec as long as
/// the first four fields are well-formed.
bool ParseTraceparent(std::string_view header, TraceContext* out);

/// \brief Renders the context as a `traceparent` value (version 00).
std::string FormatTraceparent(const TraceContext& context);

/// \brief 32 lowercase hex chars of the trace id (for logs and the
/// x-hops-trace-id response header). Empty string when !valid().
std::string FormatTraceId(const TraceContext& context);

/// \brief 16 lowercase hex chars of \p span_id.
std::string FormatSpanId(uint64_t span_id);

/// \brief The context installed on this thread (zero context when none).
const TraceContext& CurrentTraceContext();

/// \brief RAII install/restore of the thread-local context. Install the
/// request's context at ingress, and a freshly minted root context around
/// each unit of background work.
class TraceContextScope {
 public:
  explicit TraceContextScope(const TraceContext& context);
  ~TraceContextScope();

  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext saved_;
};

namespace internal {

/// SplitMix64 finalizer — the id/sampling mixer (exposed for tests).
uint64_t Mix64(uint64_t x);

}  // namespace internal

}  // namespace hops::telemetry
