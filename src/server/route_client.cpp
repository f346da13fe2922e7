#include "server/route_client.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <random>
#include <thread>

#include "server/socket.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace sadp::server {

namespace {

// Fault site (util/failpoint.hpp): drop the client's receive stream
// mid-batch, as if the server vanished.
util::FailPoint g_fp_client_recv("client.recv");

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
/// `wire_lines` (optional) collects every response line as received.
RemoteBatch run_stream(
    const std::string& host, int port, const std::string& request_line,
    const RowCallback& on_row, std::vector<std::string>* wire_lines = nullptr) {
  RemoteBatch batch;
  if (wire_lines != nullptr) wire_lines->clear();
  std::string error;
  const int fd = connect_to(host, port, /*timeout_ms=*/0, &error);
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
    if (wire_lines != nullptr) wire_lines->emplace_back(line);
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
    const RetryOptions& retry, const RowCallback& on_row,
    std::vector<std::string>* wire_lines = nullptr) {
  std::random_device entropy;
  util::Xoshiro256StarStar jitter((std::uint64_t{entropy()} << 32) ^ entropy());
  RemoteBatch batch;
  for (int attempt = 0;; ++attempt) {
    batch = run_stream(host, port, request_line, on_row, wire_lines);
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
    const RetryOptions& retry, const RowCallback& on_row,
    std::vector<std::string>* wire_lines) {
  return run_stream_retry(host, port, api::serialize_delta_request(request),
                          retry, on_row, wire_lines);
}

// ---------------------------------------------------------------------------
// Control round trips

namespace {

/// A control reply is one line; a fresh daemon's metrics reply is ~5 KB.
constexpr std::size_t kMaxControlReplyBytes = 1u << 20;

/// Round trip of a verb that carries no payload.
util::Status round_trip(const std::string& host, int port,
                        api::ControlRequest::Type type, std::string* line,
                        int timeout_ms = 0) {
  api::ControlRequest request;
  request.type = type;
  return control_round_trip(host, port,
                            api::serialize_control_request(request), line,
                            timeout_ms);
}

/// A verb with a typed reply parser (parse_stats_reply, ...): round trip,
/// parse, and "bad <verb> reply: ..." when the reply does not parse.
template <typename Reply, typename Parse>
util::Status query(const std::string& host, int port,
                   api::ControlRequest::Type type, Parse parse, Reply* out,
                   int timeout_ms = 0) {
  std::string line;
  const util::Status sent = round_trip(host, port, type, &line, timeout_ms);
  if (!sent.is_ok()) return sent;
  std::string error;
  auto parsed = parse(line, &error);
  if (!parsed) {
    return util::Status::internal(std::string("bad ") +
                                  api::control_type_name(type) +
                                  " reply: " + error);
  }
  *out = std::move(*parsed);
  return util::Status::ok();
}

}  // namespace

util::Status control_round_trip(const std::string& host, int port,
                                const std::string& request_line,
                                std::string* reply_line, int timeout_ms) {
  std::string error;
  const int fd = connect_to(host, port, timeout_ms, &error);
  if (fd < 0) return util::Status::internal(error);
  if (!send_all(fd, request_line + "\n")) {
    error = std::strerror(errno);
    ::close(fd);
    return util::Status::internal("send failed: " + error);
  }
  const bool complete = read_line(fd, kMaxControlReplyBytes, reply_line);
  ::close(fd);
  if (reply_line->size() > kMaxControlReplyBytes) {
    return util::Status::internal("control reply exceeds " +
                                  std::to_string(kMaxControlReplyBytes) +
                                  " bytes");
  }
  if (!complete) {
    return util::Status::internal("connection closed before a control reply");
  }
  return util::Status::ok();
}

util::Status query_stats(const std::string& host, int port,
                         api::StatsReply* reply, int timeout_ms) {
  return query(host, port, api::ControlRequest::Type::kStats,
               api::parse_stats_reply, reply, timeout_ms);
}

util::Status query_schemas(const std::string& host, int port,
                           api::SchemasReply* reply) {
  return query(host, port, api::ControlRequest::Type::kSchemas,
               api::parse_schemas_reply, reply);
}

util::Status query_metrics(const std::string& host, int port,
                           std::string* exposition) {
  return query(host, port, api::ControlRequest::Type::kMetrics,
               api::parse_metrics_reply, exposition);
}

util::Status ping_remote(const std::string& host, int port,
                         double* uptime_seconds) {
  std::string line;
  const util::Status sent =
      round_trip(host, port, api::ControlRequest::Type::kPing, &line);
  if (!sent.is_ok()) return sent;
  std::string error;
  double uptime = 0.0;
  const auto reply = api::parse_control_reply(line, "pong", &error);
  if (!reply || !util::read_number(*reply, "uptime_seconds", &uptime, &error)) {
    return util::Status::internal("bad ping reply: " + error);
  }
  if (uptime_seconds != nullptr) *uptime_seconds = uptime;
  return util::Status::ok();
}

util::Status drain_remote(const std::string& host, int port, int timeout_ms) {
  std::string line;
  const util::Status sent = round_trip(
      host, port, api::ControlRequest::Type::kDrain, &line, timeout_ms);
  if (!sent.is_ok()) return sent;
  std::string error;
  if (!api::parse_control_reply(line, "draining", &error)) {
    return util::Status::internal("bad drain reply: " + error);
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
  std::size_t count = 0;
  std::string error;
  const auto reply = api::parse_control_reply(line, "failpoints", &error);
  if (!reply) {
    // The server replies with a structured error line on a malformed spec.
    return util::Status::invalid_input("failpoint request rejected: " + line);
  }
  if (!util::read_json_int(*reply, "armed", &count, &error)) {
    return util::Status::internal("bad failpoints reply: " + error);
  }
  if (armed != nullptr) *armed = count;
  return util::Status::ok();
}

}  // namespace sadp::server
