// Minimal loopback HTTP/1.1 client for the load generator. It writes
// pre-rendered request bytes and parses replies incrementally, so one
// connection can be driven either closed-loop (send, then block for the
// reply) or open-loop (pipelined non-blocking sends on a schedule, replies
// matched in FIFO order). It shares no code with the server under test.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace perfbench {

/// One parsed reply.
struct HttpReply {
  int status = 0;
  std::string body;
  /// x-bench-handle-ns: the handler time the traced server measured.
  uint64_t handle_ns = 0;
  bool has_handle_ns = false;
  /// x-bench-seq: how many update records were admitted up to and
  /// including this /update request.
  uint64_t seq = 0;
  bool has_seq = false;
  /// x-bench-worker: which server worker answered a GET /healthz.
  int64_t worker = -1;
  size_t wire_bytes = 0;
};

/// The request whose reply names the server worker serving a connection.
inline constexpr std::string_view kWorkerProbe =
    "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";

/// Renders a complete POST request.
std::string RenderPost(std::string_view target, std::string_view content_type,
                       std::string_view body);

class Connection {
 public:
  /// Connects to 127.0.0.1:port with TCP_NODELAY; nullptr on failure.
  static std::unique_ptr<Connection> Open(uint16_t port);

  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }

  /// Blocking round trip: sends \p request and waits for one reply.
  bool RoundTrip(std::string_view request, HttpReply* reply);

  /// Switches the socket to non-blocking mode for pipelined use.
  bool SetNonBlocking();
  /// Non-blocking send of as much of \p bytes as the socket takes.
  /// Returns the bytes written, or -1 on a broken connection.
  long TrySend(std::string_view bytes);
  /// Non-blocking read of whatever is available; false on EOF or error.
  bool ReadAvailable();
  /// Pops one complete buffered reply; false when none is complete.
  /// Sets *malformed on a reply that cannot be parsed.
  bool NextReply(HttpReply* reply, bool* malformed);

 private:
  explicit Connection(int fd) : fd_(fd) {}
  bool ReadSome();

  int fd_ = -1;
  std::string in_;
  size_t in_offset_ = 0;
};

}  // namespace perfbench
