#include "server/route_client.hpp"

#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace sadp::server {

namespace {

// Fault site (util/failpoint.hpp): drop the client's receive stream
// mid-batch, as if the server vanished.
util::FailPoint g_fp_client_recv("client.recv");

int connect_to(const std::string& host, int port, std::string* error) {
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
  int fd = -1;
  for (const addrinfo* ai = found; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
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

bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::optional<HostPort> parse_host_port(std::string_view addr) {
  const std::size_t colon = addr.rfind(':');
  if (colon == std::string_view::npos || colon == 0) return std::nullopt;
  HostPort out;
  out.host = std::string(addr.substr(0, colon));
  const char* end = addr.data() + addr.size();
  const auto [stop, ec] =
      std::from_chars(addr.data() + colon + 1, end, out.port);
  if (ec != std::errc() || stop != end || out.port < 1 || out.port > 65535) {
    return std::nullopt;
  }
  return out;
}

namespace {

/// Shared body of run_remote / run_remote_delta: send one pre-serialized
/// request line, consume the response stream until the server closes.
RemoteBatch run_stream(
    const std::string& host, int port, const std::string& request_line,
    const RowCallback& on_row) {
  RemoteBatch batch;
  std::string error;
  const int fd = connect_to(host, port, &error);
  if (fd < 0) {
    batch.status = util::Status::internal(error);
    return batch;
  }

  if (!send_all(fd, request_line + "\n")) {
    batch.status = util::Status::internal("send failed: " +
                                          std::string(std::strerror(errno)));
    ::close(fd);
    return batch;
  }

  std::string buffer;
  char chunk[4096];
  auto consume_line = [&](std::string_view line) {
    if (line.empty()) return;
    std::string parse_error;
    auto event = api::parse_response_line(line, &parse_error);
    if (!event) {
      if (batch.status.is_ok()) {
        batch.status = util::Status::internal("bad response line: " +
                                              parse_error);
      }
      return;
    }
    switch (event->kind) {
      case api::ResponseEvent::Kind::kRow:
        if (on_row) on_row(event->outcome, event->done, event->total);
        batch.rows.push_back(std::move(event->outcome));
        batch.row_cache.push_back(std::move(event->cache));
        break;
      case api::ResponseEvent::Kind::kBatch:
        batch.summary = std::move(event->summary);
        batch.summary_received = true;
        break;
      case api::ResponseEvent::Kind::kDelta:
        batch.delta = std::move(event->delta);
        batch.delta_received = true;
        break;
      case api::ResponseEvent::Kind::kError:
        batch.status = event->error;
        break;
    }
  };

  for (;;) {
    if (g_fp_client_recv.evaluate().kind == util::FailKind::kError) {
      break;  // injected dropped stream: same handling as a server crash
    }
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start); nl != std::string::npos;
         nl = buffer.find('\n', start)) {
      consume_line(std::string_view(buffer).substr(start, nl - start));
      start = nl + 1;
    }
    buffer.erase(0, start);
  }
  ::close(fd);

  if (!buffer.empty()) consume_line(buffer);  // unterminated trailing line
  if (batch.status.is_ok() && !batch.summary_received) {
    batch.status = util::Status::internal(
        "connection closed before the batch summary (server died?)");
  }
  return batch;
}

/// run_stream under the RetryOptions policy: the one backoff loop behind
/// both run_remote_retry overloads.
RemoteBatch run_stream_retry(
    const std::string& host, int port, const std::string& request_line,
    const RetryOptions& retry, const RowCallback& on_row) {
  util::Xoshiro256StarStar jitter(retry.seed != 0 ? retry.seed : 0x5adbull);
  RemoteBatch batch;
  for (int attempt = 0;; ++attempt) {
    batch = run_stream(host, port, request_line, on_row);
    batch.attempts = attempt + 1;
    if (batch.status.code() != util::StatusCode::kResourceExhausted ||
        attempt >= retry.retries) {
      return batch;
    }
    // Full-jitter exponential backoff: uniform in (0, min(base*2^k, cap)].
    double ceiling_ms = static_cast<double>(retry.base_delay_ms);
    for (int k = 0; k < attempt && ceiling_ms < retry.max_delay_ms; ++k) {
      ceiling_ms *= 2.0;
    }
    if (ceiling_ms > retry.max_delay_ms) {
      ceiling_ms = static_cast<double>(retry.max_delay_ms);
    }
    const double delay_ms = jitter.uniform() * ceiling_ms;
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<long>(delay_ms * 1000.0) + 1));
  }
}

}  // namespace

RemoteBatch run_remote(
    const std::string& host, int port, const api::FlowRequest& request,
    const RowCallback& on_row) {
  return run_stream(host, port, api::serialize_request(request), on_row);
}

RemoteBatch run_remote_delta(
    const std::string& host, int port, const api::FlowDeltaRequest& request,
    const RowCallback& on_row) {
  return run_stream(host, port, api::serialize_delta_request(request), on_row);
}

RemoteBatch run_remote_retry(
    const std::string& host, int port, const api::FlowRequest& request,
    const RetryOptions& retry, const RowCallback& on_row) {
  return run_stream_retry(host, port, api::serialize_request(request), retry,
                          on_row);
}

RemoteBatch run_remote_retry(
    const std::string& host, int port, const api::FlowDeltaRequest& request,
    const RetryOptions& retry, const RowCallback& on_row) {
  return run_stream_retry(host, port, api::serialize_delta_request(request),
                          retry, on_row);
}

// ---------------------------------------------------------------------------
// Control round trips

util::Status control_round_trip(const std::string& host, int port,
                                const std::string& request_line,
                                std::string* reply_line) {
  std::string error;
  const int fd = connect_to(host, port, &error);
  if (fd < 0) return util::Status::internal(error);
  if (!send_all(fd, request_line + "\n")) {
    ::close(fd);
    return util::Status::internal("send failed: " +
                                  std::string(std::strerror(errno)));
  }
  reply_line->clear();
  char chunk[4096];
  bool complete = false;
  while (!complete) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    for (ssize_t i = 0; i < n; ++i) {
      if (chunk[i] == '\n') {
        complete = true;
        break;
      }
      reply_line->push_back(chunk[i]);
    }
  }
  ::close(fd);
  if (!complete) {
    return util::Status::internal("connection closed before a control reply");
  }
  return util::Status::ok();
}

util::Status query_stats(const std::string& host, int port,
                         api::StatsReply* reply) {
  api::ControlRequest request;
  request.type = api::ControlRequest::Type::kStats;
  std::string line;
  const util::Status sent = control_round_trip(
      host, port, api::serialize_control_request(request), &line);
  if (!sent.is_ok()) return sent;
  std::string error;
  const auto stats = api::parse_stats_reply(line, &error);
  if (!stats) return util::Status::internal("bad stats reply: " + error);
  *reply = *stats;
  return util::Status::ok();
}

util::Status query_schemas(const std::string& host, int port,
                           api::SchemasReply* reply) {
  api::ControlRequest request;
  request.type = api::ControlRequest::Type::kSchemas;
  std::string line;
  const util::Status sent = control_round_trip(
      host, port, api::serialize_control_request(request), &line);
  if (!sent.is_ok()) return sent;
  std::string error;
  const auto schemas = api::parse_schemas_reply(line, &error);
  if (!schemas) return util::Status::internal("bad schemas reply: " + error);
  *reply = *schemas;
  return util::Status::ok();
}

util::Status query_metrics(const std::string& host, int port,
                           std::string* exposition) {
  api::ControlRequest request;
  request.type = api::ControlRequest::Type::kMetrics;
  std::string line;
  const util::Status sent = control_round_trip(
      host, port, api::serialize_control_request(request), &line);
  if (!sent.is_ok()) return sent;
  std::string error;
  const auto body = api::parse_metrics_reply(line, &error);
  if (!body) return util::Status::internal("bad metrics reply: " + error);
  *exposition = *body;
  return util::Status::ok();
}

util::Status ping_remote(const std::string& host, int port,
                         double* uptime_seconds) {
  api::ControlRequest request;
  request.type = api::ControlRequest::Type::kPing;
  std::string line;
  const util::Status sent = control_round_trip(
      host, port, api::serialize_control_request(request), &line);
  if (!sent.is_ok()) return sent;
  if (line.find("\"type\":\"pong\"") == std::string::npos) {
    return util::Status::internal("unexpected ping reply: " + line);
  }
  if (uptime_seconds != nullptr) {
    const std::size_t at = line.find("\"uptime_seconds\":");
    *uptime_seconds =
        at == std::string::npos
            ? 0.0
            : std::strtod(line.c_str() + at + sizeof("\"uptime_seconds\":") - 1,
                          nullptr);
  }
  return util::Status::ok();
}

util::Status drain_remote(const std::string& host, int port) {
  api::ControlRequest request;
  request.type = api::ControlRequest::Type::kDrain;
  std::string line;
  const util::Status sent = control_round_trip(
      host, port, api::serialize_control_request(request), &line);
  if (!sent.is_ok()) return sent;
  if (line.find("\"type\":\"draining\"") == std::string::npos) {
    return util::Status::internal("unexpected drain reply: " + line);
  }
  return util::Status::ok();
}

util::Status configure_failpoints_remote(const std::string& host, int port,
                                         const std::string& spec,
                                         std::uint64_t seed,
                                         std::size_t* armed) {
  api::ControlRequest request;
  request.type = api::ControlRequest::Type::kFailpoint;
  request.spec = spec;
  request.seed = seed;
  std::string line;
  const util::Status sent = control_round_trip(
      host, port, api::serialize_control_request(request), &line);
  if (!sent.is_ok()) return sent;
  if (line.find("\"type\":\"failpoints\"") == std::string::npos) {
    // The server replies with a structured error line on a malformed spec.
    return util::Status::invalid_input("failpoint request rejected: " + line);
  }
  if (armed != nullptr) {
    const std::size_t at = line.find("\"armed\":");
    *armed = at == std::string::npos
                 ? 0u
                 : static_cast<std::size_t>(std::strtoull(
                       line.c_str() + at + sizeof("\"armed\":") - 1, nullptr,
                       10));
  }
  return util::Status::ok();
}

}  // namespace sadp::server
