#include "http_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>

namespace perfbench {
namespace {

bool HeaderNameIs(std::string_view line, std::string_view name) {
  if (line.size() <= name.size() || line[name.size()] != ':') return false;
  for (size_t i = 0; i < name.size(); ++i) {
    char c = line[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (c != name[i]) return false;
  }
  return true;
}

uint64_t HeaderNumber(std::string_view line, size_t name_size) {
  std::string value(line.substr(name_size + 1));
  return std::strtoull(value.c_str(), nullptr, 10);
}

}  // namespace

std::string RenderPost(std::string_view target, std::string_view content_type,
                       std::string_view body) {
  std::string out;
  out.reserve(body.size() + 128);
  out.append("POST ").append(target).append(" HTTP/1.1\r\nHost: 127.0.0.1\r\n");
  out.append("Content-Type: ").append(content_type).append("\r\n");
  out.append("Content-Length: ").append(std::to_string(body.size()));
  out.append("\r\n\r\n").append(body);
  return out;
}

std::unique_ptr<Connection> Connection::Open(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return nullptr;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Connection>(new Connection(fd));
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

bool Connection::RoundTrip(std::string_view request, HttpReply* reply) {
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  bool malformed = false;
  while (!NextReply(reply, &malformed)) {
    if (malformed || !ReadSome()) return false;
  }
  return true;
}

bool Connection::SetNonBlocking() {
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) == 0;
}

long Connection::TrySend(std::string_view bytes) {
  while (true) {
    const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n >= 0) return static_cast<long>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    return -1;
  }
}

bool Connection::ReadSome() {
  char buffer[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n > 0) {
      in_.append(buffer, static_cast<size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

bool Connection::ReadAvailable() {
  char buffer[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
    if (n > 0) {
      in_.append(buffer, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
}

bool Connection::NextReply(HttpReply* reply, bool* malformed) {
  *malformed = false;
  const std::string_view buffered(in_.data() + in_offset_,
                                  in_.size() - in_offset_);
  const size_t header_end = buffered.find("\r\n\r\n");
  if (header_end == std::string_view::npos) return false;
  const std::string_view head = buffered.substr(0, header_end);
  if (!head.starts_with("HTTP/1.") || head.size() < 12) {
    *malformed = true;
    return false;
  }
  HttpReply parsed;
  parsed.status = std::atoi(std::string(head.substr(9, 3)).c_str());
  size_t content_length = 0;
  size_t line_start = head.find("\r\n");
  while (line_start != std::string_view::npos) {
    line_start += 2;
    size_t line_end = head.find("\r\n", line_start);
    const std::string_view line = head.substr(
        line_start, line_end == std::string_view::npos ? std::string_view::npos
                                                       : line_end - line_start);
    if (HeaderNameIs(line, "content-length")) {
      content_length = HeaderNumber(line, 14);
    } else if (HeaderNameIs(line, "x-bench-handle-ns")) {
      parsed.handle_ns = HeaderNumber(line, 17);
      parsed.has_handle_ns = true;
    } else if (HeaderNameIs(line, "x-bench-seq")) {
      parsed.seq = HeaderNumber(line, 11);
      parsed.has_seq = true;
    } else if (HeaderNameIs(line, "x-bench-worker")) {
      parsed.worker = static_cast<int64_t>(HeaderNumber(line, 14));
    }
    line_start = line_end;
  }
  const size_t total = header_end + 4 + content_length;
  if (buffered.size() < total) return false;
  parsed.body.assign(buffered.substr(header_end + 4, content_length));
  parsed.wire_bytes = total;
  in_offset_ += total;
  if (in_offset_ == in_.size()) {
    in_.clear();
    in_offset_ = 0;
  } else if (in_offset_ > (1 << 20)) {
    in_.erase(0, in_offset_);
    in_offset_ = 0;
  }
  *reply = std::move(parsed);
  return true;
}

}  // namespace perfbench
