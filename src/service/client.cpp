#include "service/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <utility>

#include "util/flags.hpp"

namespace acorn::service {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      next_seq_(other.next_seq_),
      buf_(std::move(other.buf_)),
      out_(std::move(other.out_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    next_seq_ = other.next_seq_;
    buf_ = std::move(other.buf_);
    out_ = std::move(other.out_);
  }
  return *this;
}

void Client::close() {
  if (fd_ >= 0) ::close(std::exchange(fd_, -1));
}

Client Client::connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(unix)");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw std::invalid_argument("unix socket path too long");
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect(" + path + ")");
  }
  Client c;
  c.fd_ = fd;
  return c;
}

Client Client::connect_tcp(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(tcp)");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::invalid_argument("bad IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect(" + host + ":" + std::to_string(port) + ")");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Client c;
  c.fd_ = fd;
  return c;
}

Client::Endpoint Client::parse_endpoint(const std::string& endpoint) {
  Endpoint ep;
  if (endpoint.rfind("unix:", 0) == 0) {
    ep.unix_path = endpoint.substr(5);
    if (ep.unix_path.empty()) {
      throw std::invalid_argument("empty socket path in endpoint " +
                                  endpoint);
    }
    return ep;
  }
  const std::size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    throw std::invalid_argument(
        "endpoint must be unix:/path or host:port, got " + endpoint);
  }
  const std::optional<long long> port = util::parse_number<long long>(
      std::string_view(endpoint).substr(colon + 1), 1, 65535);
  if (!port) throw std::invalid_argument("bad port in endpoint " + endpoint);
  ep.host = colon == 0 ? "127.0.0.1" : endpoint.substr(0, colon);
  ep.port = static_cast<std::uint16_t>(*port);
  return ep;
}

Client Client::connect(const std::string& endpoint) {
  const Endpoint ep = parse_endpoint(endpoint);
  if (!ep.unix_path.empty()) return connect_unix(ep.unix_path);
  return connect_tcp(ep.host, ep.port);
}

void Client::set_recv_timeout_ms(long ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    throw_errno("setsockopt(SO_RCVTIMEO)");
  }
}

std::uint32_t Client::send(const Message& msg) {
  const std::uint32_t seq = next_seq_++;
  out_.clear();
  encode_frame_into(out_, seq, msg);
  std::size_t off = 0;
  while (off < out_.size()) {
    // MSG_NOSIGNAL: a dropped connection is an EPIPE error here, not a
    // SIGPIPE that ends whatever process embeds the client.
    const ssize_t n =
        ::send(fd_, out_.data() + off, out_.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    off += static_cast<std::size_t>(n);
  }
  return seq;
}

Frame Client::recv() {
  while (true) {
    if (std::optional<Frame> frame = buf_.next()) return std::move(*frame);
    std::uint8_t chunk[FrameBuffer::kReadChunk];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n > 0) {
      buf_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) throw std::runtime_error("daemon closed the connection");
    throw_errno("read");
  }
}

Message Client::call(const Message& msg) {
  const std::uint32_t seq = send(msg);
  while (true) {
    Frame frame = recv();
    if (frame.seq == seq) return std::move(frame.msg);
  }
}

}  // namespace acorn::service
