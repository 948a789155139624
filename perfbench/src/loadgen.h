// The load generator: one thread drives every connection of a phase,
// busy-polling non-blocking keep-alive sockets with pipelined requests.
//
//  * An open-loop segment sends on a fixed schedule regardless of replies
//    and times each request from the moment it was due, so a stall also
//    charges the requests queued behind it; it records how late the
//    generator itself ran.
//  * A closed-loop segment keeps `depth` requests in flight per connection
//    and sends the next one when a reply arrives.
//
// The thread spins instead of sleeping: on a virtual machine a sleeping
// vCPU can take milliseconds to be woken again, which would make the
// generator, not the server, set the latency figures.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "http_client.h"

namespace perfbench {

/// What one plan sends and how it checks replies.
class Traffic {
 public:
  virtual ~Traffic() = default;
  /// Bytes of the plan's \p index-th request, sent on the plan's
  /// connection \p link; \p cookie comes back with the reply.
  virtual const std::string& Next(size_t link, uint64_t index,
                                  uint64_t* cookie) = 0;
  /// Checks a reply (\p reply is nullptr when the connection broke first).
  /// \p issued_ns is the due time (open loop) or send time (closed loop).
  /// May set \p follow_up to a request sent next on the same connection,
  /// outside the plan's schedule or window.
  virtual bool OnReply(uint64_t cookie, const HttpReply* reply,
                       int64_t issued_ns, int64_t received_ns,
                       std::string* follow_up) = 0;
  /// Checks a reply to a follow-up request.
  virtual bool OnFollowUpReply(const HttpReply& reply) {
    return reply.status == 200;
  }
};

/// A stretch of time in which a plan sends either open-loop (rate > 0:
/// this many requests per second) or closed-loop (depth requests in flight
/// per connection).
struct Segment {
  int64_t start_ns = 0;
  int64_t end_ns = 0;  ///< no new requests from here on
  double rate = 0;
  size_t depth = 1;
};

/// One kind of traffic on its own connections, sending through its
/// segments in order.
struct TrafficPlan {
  Traffic* traffic = nullptr;
  size_t connections = 1;
  std::vector<Segment> segments;
};

struct TrafficCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t follow_ups = 0;
  uint64_t follow_ups_failed = 0;
  /// Open loop: send time minus due time, in µs, keyed by due time.
  std::vector<std::pair<int64_t, double>> late_us;
};

/// Opens the plans' connections in order, each on one of the server's
/// \p server_workers that holds the fewest so far (the kernel assigns a
/// connection to a worker by a hash of its ports, so without this a run
/// could put every connection on one worker; with it, two plans of one
/// connection each get a worker each). Then runs every plan from the
/// calling thread until each has passed its last segment and every reply is
/// in (or \p drain_seconds have passed; what is still missing then fails).
/// Counts align with \p plans. False when a connection could not be opened.
bool RunLoad(uint16_t port, size_t server_workers,
             const std::vector<TrafficPlan>& plans, double drain_seconds,
             std::vector<TrafficCounts>* counts);

}  // namespace perfbench
