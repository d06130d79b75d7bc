#include "service/client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace eccm0::service {

Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::connect_to(std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("client: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  int r;
  do {
    r = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (r < 0 && errno == EINTR);
  if (r < 0) {
    const int err = errno;
    close();
    throw std::runtime_error(std::string("client: cannot connect to port ") +
                             std::to_string(port) + ": " +
                             std::strerror(err));
  }
  // Requests are small and latency-bound: never hold one back for Nagle.
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

telemetry::Json Client::read_response() {
  std::string body;
  if (!wire::read_frame(fd_, body)) {
    throw std::runtime_error("client: connection closed mid-response");
  }
  return telemetry::Json::parse(body);
}

telemetry::Json Client::call(const std::string& op, telemetry::Json params) {
  if (fd_ < 0) throw std::runtime_error("client: not connected");
  const telemetry::Json req =
      wire::make_request(next_id_++, op, std::move(params));
  if (!wire::write_frame(fd_, req.dump())) {
    throw std::runtime_error("client: send failed");
  }
  return read_response();
}

telemetry::Json Client::call_raw(const std::string& body) {
  if (fd_ < 0) throw std::runtime_error("client: not connected");
  if (!wire::write_frame(fd_, body)) {
    throw std::runtime_error("client: send failed");
  }
  return read_response();
}

}  // namespace eccm0::service
