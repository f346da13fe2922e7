#include "server/socket.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

namespace sadp::server {

util::Status listen_loopback(int port, int* fd, int* bound_port) {
  if (port < 0 || port > 65535) {
    return util::Status::invalid_input("port " + std::to_string(port) +
                                       " is outside [0, 65535]");
  }
  const auto fail = [](int sock, const std::string& what) {
    const util::Status status =
        util::Status::internal(what + ": " + std::strerror(errno));
    if (sock >= 0) ::close(sock);
    return status;
  };
  const int sock = ::socket(AF_INET, SOCK_STREAM, 0);
  if (sock < 0) return fail(sock, "socket");
  const int one = 1;
  ::setsockopt(sock, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(sock, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    return fail(sock, "bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(sock, 128) != 0) return fail(sock, "listen");
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(sock, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return fail(sock, "getsockname");
  }
  *fd = sock;
  *bound_port = ntohs(bound.sin_port);
  return util::Status::ok();
}

int connect_to(const std::string& host, int port, int timeout_ms,
               std::string* error) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  const int rc =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &found);
  if (rc != 0) {
    *error = "cannot resolve " + host + ": " + ::gai_strerror(rc);
    return -1;
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  int fd = -1;
  for (const addrinfo* ai = found; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (timeout_ms > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(found);
  if (fd < 0) {
    *error = "cannot connect to " + host + ":" + std::to_string(port) + ": " +
             std::strerror(errno);
  }
  return fd;
}

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool read_line(int fd, std::size_t max_bytes, std::string* line) {
  line->clear();
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    const std::string_view got(chunk, static_cast<std::size_t>(n));
    const std::size_t newline = got.find('\n');
    line->append(got.substr(0, newline));
    if (line->size() > max_bytes) return false;
    if (newline != std::string_view::npos) return true;
  }
}

}  // namespace sadp::server
