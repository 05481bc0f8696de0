// Blocking wire-protocol client for acornd, shared by `acornctl
// --connect`, the replay demo, the service tests and the protocol
// bench. Endpoints are written `unix:/path/to/sock` or `host:port`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/wire.hpp"

namespace acorn::service {

class Client {
 public:
  /// Where an endpoint string points: `unix:PATH` sets unix_path,
  /// `HOST:PORT` sets host (empty HOST = 127.0.0.1) and port.
  struct Endpoint {
    std::string unix_path;
    std::string host;
    std::uint16_t port = 0;
  };
  /// Parse `unix:PATH` (PATH non-empty) or `HOST:PORT` (PORT the whole
  /// text after the last ':', in [1, 65535]). Throws
  /// std::invalid_argument on anything else.
  static Endpoint parse_endpoint(const std::string& endpoint);

  static Client connect_unix(const std::string& path);
  static Client connect_tcp(const std::string& host, std::uint16_t port);
  /// parse_endpoint, then connect. Throws std::system_error /
  /// std::invalid_argument on failure.
  static Client connect(const std::string& endpoint);

  Client() = default;
  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }

  /// Bound every subsequent recv() read by `ms` (SO_RCVTIMEO); an
  /// expired wait surfaces as std::system_error with EAGAIN /
  /// EWOULDBLOCK. 0 restores blocking reads.
  void set_recv_timeout_ms(long ms);

  /// Send one request frame; returns its sequence number. Throws
  /// std::system_error when the write fails (EPIPE once the daemon has
  /// dropped the connection).
  std::uint32_t send(const Message& msg);
  /// Block for the next complete frame. Throws WireError on garbage and
  /// std::runtime_error when the daemon closes the connection.
  Frame recv();
  /// send() + recv() until the reply matching the request arrives.
  Message call(const Message& msg);

  void close();

 private:
  int fd_ = -1;
  std::uint32_t next_seq_ = 1;
  FrameBuffer buf_;
  /// The frame being sent, reused so a steady stream of requests
  /// allocates nothing.
  std::vector<std::uint8_t> out_;
};

}  // namespace acorn::service
