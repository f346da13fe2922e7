// The routing service's one transport module: the loopback listener both
// servers bind, the client connect, and the blocking line I/O the
// dispatcher and the client share.  The daemon's accept4/epoll path and the
// dispatcher's accept and relay recv stay with their owners.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "util/status.hpp"

namespace sadp::server {

/// Bind and listen on 127.0.0.1:`port` (0 = ephemeral): the listener and
/// its port, or a status naming the step ("bind 127.0.0.1:P: ...").  A port
/// outside [0, 65535] is invalid_input.
[[nodiscard]] util::Status listen_loopback(int port, int* fd, int* bound_port);

/// Connect to host:port, `host` a name or a literal, trying each address
/// getaddrinfo gives.  `timeout_ms` > 0 sets SO_RCVTIMEO/SO_SNDTIMEO first
/// (on Linux SO_SNDTIMEO also bounds connect()), so a wedged peer times out
/// instead of blocking forever.  The fd, or -1 with the reason in *error.
[[nodiscard]] int connect_to(const std::string& host, int port,
                             int timeout_ms, std::string* error);

/// Write all of `data`; false once a send fails (no SIGPIPE).
[[nodiscard]] bool send_all(int fd, std::string_view data);

/// Blocking read of one '\n'-terminated line (newline and any bytes after
/// it dropped).  False on EOF or error before the newline, or once the line
/// passes `max_bytes`, which leaves more than `max_bytes` in *line.
[[nodiscard]] bool read_line(int fd, std::size_t max_bytes, std::string* line);

}  // namespace sadp::server
