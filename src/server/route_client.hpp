// Client side of the sadp_routed wire protocol: connect, send one
// sadp.flow_request.v1 line, collect the streamed sadp.flow_response.v1
// lines until the server closes the connection; and the control round
// trips, which the dispatcher's probes and drain use too.  HOST may be a
// name or a literal (server/socket.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/control.hpp"
#include "api/flow_api.hpp"
#include "api/flow_delta.hpp"
#include "engine/flow_engine.hpp"
#include "util/status.hpp"

namespace sadp::server {

/// Fires per received row, with the stream's progress (done of total).
using RowCallback = std::function<void(const engine::JobOutcome&,
                                       std::size_t done, std::size_t total)>;

/// A daemon or dispatcher address, as `sadp_route --connect` and
/// `sadp_routed --backends` spell it: "HOST:PORT".
struct HostPort {
  std::string host;
  int port = 0;
};

/// Split "HOST:PORT" at its last ':'.  The host must be non-empty and the
/// whole rest a decimal port in 1-65535, so "h:74x0", "h:", ":7470", "h:0"
/// and "h:70000" are nullopt.
[[nodiscard]] std::optional<HostPort> parse_host_port(std::string_view addr);

/// Everything one remote batch produced, assembled from the response
/// stream.  `rows` holds the outcomes in arrival order (completion order on
/// the server, journal-restored rows last).
struct RemoteBatch {
  /// Transport/protocol failures and server "error" lines land here
  /// (e.g. kResourceExhausted when the server rejected the request).
  util::Status status;
  std::vector<engine::JobOutcome> rows;
  /// Per-row cache marker, aligned with `rows`: "hit" / "miss" when the
  /// serving daemon consulted its result cache, "" otherwise.
  std::vector<std::string> row_cache;
  /// The final "batch" summary line.
  api::ResponseSummary summary;
  bool summary_received = false;
  /// How many send attempts run_remote_retry used (1 = first try worked).
  int attempts = 1;
  /// The "delta" summary line of an ECO (sadp.flow_delta.v1) stream;
  /// delta_received stays false on plain flow batches.
  core::EcoSummary delta;
  bool delta_received = false;

  /// Usable end-to-end: transport ok, summary seen, every row ok/degraded.
  [[nodiscard]] bool all_ok() const noexcept {
    return status.is_ok() && summary_received && summary.failed == 0 &&
           summary.timed_out == 0 && summary.cancelled == 0;
  }
};

/// Run `request` against a sadp_routed instance at host:port.  Blocks until
/// the server closes the stream; `on_row` (optional) fires per received row
/// for live progress.  Connection failures, malformed response lines, and a
/// stream that ends before the batch summary all surface in `status`.
[[nodiscard]] RemoteBatch run_remote(
    const std::string& host, int port, const api::FlowRequest& request,
    const RowCallback& on_row = {});

/// Bounded retry with jittered exponential backoff for transient rejection.
/// Off by default (`retries` = 0) so callers — and tests — only opt into
/// waiting.  Only a resource_exhausted error (admission bound hit, server
/// draining, no live dispatcher backend) is retried: it is the one status
/// the protocol defines as "same request, later, may succeed".  The delay
/// before attempt k is uniform in (0, min(base * 2^(k-1), max_delay)] —
/// full jitter, so a thundering herd of rejected clients decorrelates.
/// Each retry loop seeds its jitter from std::random_device, so clients
/// rejected together do not draw the same delays.
struct RetryOptions {
  int retries = 0;          ///< extra attempts after the first
  int base_delay_ms = 50;   ///< backoff scale for the first retry
  int max_delay_ms = 2000;  ///< backoff cap (--retry-max-ms)
};

/// run_remote plus the retry policy above; `batch.attempts` reports how
/// many tries it took.
[[nodiscard]] RemoteBatch run_remote_retry(
    const std::string& host, int port, const api::FlowRequest& request,
    const RetryOptions& retry, const RowCallback& on_row = {});

/// Run one ECO (sadp.flow_delta.v1) request against a daemon or dispatcher.
/// Same stream contract as run_remote plus the "delta" summary line, which
/// lands in `batch.delta` (and sets delta_received).
[[nodiscard]] RemoteBatch run_remote_delta(
    const std::string& host, int port, const api::FlowDeltaRequest& request,
    const RowCallback& on_row = {});

/// run_remote_delta under the same retry policy, over the same backoff
/// loop as a flow request.  `wire_lines` (optional) receives the response
/// lines of the last attempt as the server sent them.
[[nodiscard]] RemoteBatch run_remote_retry(
    const std::string& host, int port, const api::FlowDeltaRequest& request,
    const RetryOptions& retry, const RowCallback& on_row = {},
    std::vector<std::string>* wire_lines = nullptr);

// ---------------------------------------------------------------------------
// Control-plane round trips (sadp.control.v1): one line out, one line back.
// `timeout_ms` > 0 bounds each send and receive; 0 (default) blocks.

/// Send one control line and read one reply line (at most 1 MiB).
[[nodiscard]] util::Status control_round_trip(const std::string& host,
                                              int port,
                                              const std::string& request_line,
                                              std::string* reply_line,
                                              int timeout_ms = 0);

/// {"type":"stats"} → parsed StatsReply.
[[nodiscard]] util::Status query_stats(const std::string& host, int port,
                                       api::StatsReply* reply,
                                       int timeout_ms = 0);

/// {"type":"metrics"} → the server's Prometheus text exposition (the
/// decoded `body` of the metrics reply).  Works against a daemon or a
/// dispatcher; both answer on the control plane even while saturated.
[[nodiscard]] util::Status query_metrics(const std::string& host, int port,
                                         std::string* exposition);

/// {"type":"schemas"} → the wire schemas the server speaks.  A client uses
/// this to feature-probe delta (ECO) support: reply.delta is empty when the
/// daemon predates sadp.flow_delta.v1.
[[nodiscard]] util::Status query_schemas(const std::string& host, int port,
                                         api::SchemasReply* reply);

/// {"type":"ping"} → server uptime (liveness probe).
[[nodiscard]] util::Status ping_remote(const std::string& host, int port,
                                       double* uptime_seconds = nullptr);

/// {"type":"drain"} → ask the daemon (or a whole fleet, via the
/// dispatcher) to begin graceful drain.
[[nodiscard]] util::Status drain_remote(const std::string& host, int port,
                                        int timeout_ms = 0);

/// {"type":"failpoint","spec":...,"seed":...} → arm (or, with an empty
/// spec, clear) deterministic failpoints in a running daemon/dispatcher.
/// On success `armed` (when non-null) receives the number of armed points
/// the server reported.  See util/failpoint.hpp for the spec grammar.
[[nodiscard]] util::Status configure_failpoints_remote(
    const std::string& host, int port, const std::string& spec,
    std::uint64_t seed = 0, std::size_t* armed = nullptr);

}  // namespace sadp::server
