#include "loadgen.h"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <string_view>

#include "probes.h"

namespace perfbench {
namespace {

struct Pending {
  bool scheduled = true;  // false: a follow-up
  uint64_t cookie = 0;
  int64_t issued_ns = 0;
};

struct Link {
  size_t plan = 0;
  size_t index = 0;  // connection number within the plan
  std::unique_ptr<Connection> connection;
  std::string out;
  size_t out_offset = 0;
  std::deque<Pending> fifo;
  size_t in_flight = 0;  // scheduled requests awaiting a reply
  bool broken = false;
};

// Opens a connection on a worker that holds the fewest of the run's
// connections so far (a worker not seen yet holds none); nullptr when none
// is found in a few dozen tries.
std::unique_ptr<Connection> OpenBalanced(uint16_t port, size_t server_workers,
                                         std::map<int64_t, size_t>* per_worker) {
  size_t fewest = 0;
  if (per_worker->size() >= server_workers) {
    fewest = per_worker->begin()->second;
    for (const auto& [worker, held] : *per_worker) fewest = std::min(fewest, held);
  }
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::unique_ptr<Connection> connection = Connection::Open(port);
    HttpReply reply;
    if (connection == nullptr || !connection->RoundTrip(kWorkerProbe, &reply)) {
      return nullptr;
    }
    if ((*per_worker)[reply.worker] <= fewest) {
      ++(*per_worker)[reply.worker];
      return connection;
    }
  }
  return nullptr;
}

}  // namespace

bool RunLoad(uint16_t port, size_t server_workers,
             const std::vector<TrafficPlan>& plans, double drain_seconds,
             std::vector<TrafficCounts>* counts) {
  counts->assign(plans.size(), TrafficCounts());
  std::vector<Link> links;
  std::vector<size_t> first_link(plans.size());
  int64_t last_end = 0;
  std::map<int64_t, size_t> per_worker;
  for (size_t p = 0; p < plans.size(); ++p) {
    first_link[p] = links.size();
    for (const Segment& segment : plans[p].segments) {
      last_end = std::max(last_end, segment.end_ns);
    }
    for (size_t c = 0; c < plans[p].connections; ++c) {
      Link link;
      link.plan = p;
      link.index = c;
      link.connection = OpenBalanced(port, server_workers, &per_worker);
      if (link.connection == nullptr || !link.connection->SetNonBlocking()) {
        return false;
      }
      links.push_back(std::move(link));
    }
  }
  const int64_t give_up = last_end + static_cast<int64_t>(drain_seconds * 1e9);
  std::vector<uint64_t> next(plans.size(), 0);        // requests issued
  std::vector<size_t> segment(plans.size(), 0);       // current segment
  std::vector<uint64_t> in_segment(plans.size(), 0);  // issued in it
  std::string ignored;

  const auto issue = [&](Link& link, int64_t issued_ns) {
    const TrafficPlan& plan = plans[link.plan];
    TrafficCounts& count = (*counts)[link.plan];
    uint64_t cookie = 0;
    const std::string& bytes =
        plan.traffic->Next(link.index, next[link.plan]++, &cookie);
    ++count.attempted;
    if (link.broken) {
      ++count.failed;
      plan.traffic->OnReply(cookie, nullptr, issued_ns, NowNs(), &ignored);
      return;
    }
    link.out.append(bytes);
    link.fifo.push_back(Pending{true, cookie, issued_ns});
    ++link.in_flight;
  };
  const auto fail_link = [&](Link& link) {
    link.broken = true;
    TrafficCounts& count = (*counts)[link.plan];
    for (const Pending& pending : link.fifo) {
      if (pending.scheduled) {
        ++count.failed;
        plans[link.plan].traffic->OnReply(pending.cookie, nullptr,
                                          pending.issued_ns, NowNs(), &ignored);
      } else {
        ++count.follow_ups_failed;
      }
    }
    link.fifo.clear();
    link.in_flight = 0;
  };

  while (true) {
    const int64_t now = NowNs();
    bool sending = false;
    for (size_t p = 0; p < plans.size(); ++p) {
      const TrafficPlan& plan = plans[p];
      while (segment[p] < plan.segments.size() &&
             now >= plan.segments[segment[p]].end_ns) {
        ++segment[p];
        in_segment[p] = 0;
      }
      if (segment[p] == plan.segments.size()) continue;
      sending = true;
      const Segment& current = plan.segments[segment[p]];
      if (now < current.start_ns) continue;
      if (current.rate > 0) {
        const double interval = 1e9 / current.rate;
        while (true) {
          const int64_t due =
              current.start_ns +
              static_cast<int64_t>(static_cast<double>(in_segment[p]) * interval);
          if (due > now || due >= current.end_ns) break;
          (*counts)[p].late_us.emplace_back(due, static_cast<double>(now - due) / 1e3);
          issue(links[first_link[p] + in_segment[p] % plan.connections], due);
          ++in_segment[p];
        }
      } else {
        for (size_t c = 0; c < plan.connections; ++c) {
          Link& link = links[first_link[p] + c];
          while (!link.broken && link.in_flight < current.depth) issue(link, now);
        }
      }
    }

    bool waiting = false;
    for (Link& link : links) {
      if (link.broken) continue;
      if (link.out_offset < link.out.size()) {
        const long sent = link.connection->TrySend(
            std::string_view(link.out).substr(link.out_offset));
        if (sent < 0) {
          fail_link(link);
          continue;
        }
        link.out_offset += static_cast<size_t>(sent);
        if (link.out_offset == link.out.size()) {
          link.out.clear();
          link.out_offset = 0;
        }
      }
      waiting = waiting || !link.fifo.empty();
    }
    if (!sending && !waiting) break;
    if (now >= give_up) {
      for (Link& link : links) fail_link(link);
      break;
    }

    for (Link& link : links) {
      if (link.broken) continue;
      const bool open = link.connection->ReadAvailable();
      // Replies that arrived in one read share its timestamp, so checking
      // the earlier ones is not charged to the later ones.
      const int64_t received = NowNs();
      TrafficCounts& count = (*counts)[link.plan];
      Traffic* traffic = plans[link.plan].traffic;
      HttpReply reply;
      bool malformed = false;
      while (link.connection->NextReply(&reply, &malformed)) {
        if (link.fifo.empty()) {
          malformed = true;
          break;
        }
        const Pending pending = link.fifo.front();
        link.fifo.pop_front();
        if (!pending.scheduled) {
          if (!traffic->OnFollowUpReply(reply)) ++count.follow_ups_failed;
          continue;
        }
        --link.in_flight;
        std::string follow_up;
        if (!traffic->OnReply(pending.cookie, &reply, pending.issued_ns,
                              received, &follow_up)) {
          ++count.failed;
        }
        if (!follow_up.empty()) {
          link.out.append(follow_up);
          link.fifo.push_back(Pending{false, 0, 0});
          ++count.follow_ups;
        }
      }
      if (malformed || !open) fail_link(link);
    }
  }
  return true;
}

}  // namespace perfbench
