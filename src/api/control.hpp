// Control plane of the routing service (schema sadp.control.v1).
//
// Alongside sadp.flow_request.v1 batch lines, a daemon (and the
// `sadp_routed --backends` front) accepts tiny newline-delimited control
// lines that are answered on the event loop itself — they never enter the
// admission gate or touch the worker pool, so health probes keep working
// while the server is saturated:
//
//   → {"type":"ping"}
//   ← {"schema":"sadp.control.v1","type":"pong","uptime_seconds":12.3}
//
//   → {"type":"stats"}
//   ← {"schema":"sadp.control.v1","type":"stats","queue_depth":1,...}
//
//   → {"type":"drain"}            // same effect as SIGTERM
//   ← {"schema":"sadp.control.v1","type":"draining"}
//
//   → {"type":"failpoint","spec":"journal.append=err@0.5","seed":42}
//   ← {"schema":"sadp.control.v1","type":"failpoints","armed":1}
//     (empty spec clears every armed failpoint; see util/failpoint.hpp for
//     the spec grammar — this is how chaos tests arm faults in
//     already-running daemons)
//
//   → {"type":"schemas"}
//   ← {"schema":"sadp.control.v1","type":"schemas",
//      "request":"sadp.flow_request.v1","response":"sadp.flow_response.v1",
//      "control":"sadp.control.v1","delta":"sadp.flow_delta.v1"}
//     (feature probe: a client checks `delta` before sending an ECO request
//     instead of guessing what the daemon speaks)
//
//   → {"type":"metrics"}
//   ← {"schema":"sadp.control.v1","type":"metrics","body":"# HELP ..."}
//     (the body is the process's Prometheus text exposition — see
//     obs/metrics.hpp — JSON-escaped into a single line; `sadp_route
//     --connect HOST:PORT --control metrics` unescapes and prints it,
//     which is what a scrape sidecar or the smoke tests consume)
//
// Daemon and dispatcher both answer through answer_control, so only their
// "stats" and "drain" differ; clients check every reply's envelope in
// parse_control_reply.  The dispatcher's health probes are plain "stats"
// round trips; a backend whose reply goes stale is routed around.
//
// A control line is recognized by leading with its "type" member (all
// producers in this repo emit {"type":... first); anything carrying the
// flow-request schema is never treated as control.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace sadp::api {

inline constexpr const char* kControlSchema = "sadp.control.v1";

/// One inbound control line.
struct ControlRequest {
  enum class Type {
    kPing,
    kStats,
    kDrain,
    kFailpoint,
    kMetrics,
    kSchemas,  ///< feature probe: which request/response schemas are spoken
  };
  Type type = Type::kPing;
  // Failpoint payload: the spec list to apply (empty = clear all) and the
  // deterministic schedule seed.
  std::string spec;
  std::uint64_t seed = 0;
};

[[nodiscard]] const char* control_type_name(ControlRequest::Type type) noexcept;

/// One line of JSON (no trailing newline), "type" member first.
[[nodiscard]] std::string serialize_control_request(
    const ControlRequest& request);

/// Parse a control line.  Unknown members are ignored; an unknown "type",
/// a missing "type", or a line carrying the flow-request schema returns
/// nullopt (and fills `error` when non-null).
[[nodiscard]] std::optional<ControlRequest> parse_control_request(
    std::string_view line, std::string* error = nullptr);

/// Cheap routing test for the server's line demultiplexer: does this line
/// lead with a "type" member (after the opening brace and whitespace)?
/// Control producers always serialize "type" first; flow requests lead
/// with "schema".
[[nodiscard]] bool looks_like_control_line(std::string_view line) noexcept;

// ---------------------------------------------------------------------------
// Replies.

/// One row of a dispatcher's stats reply: a backend as its probes last saw
/// it.  A daemon's own stats carry no peers.
struct PeerStatus {
  std::string addr;
  int queue_depth = 0;
  int active = 0;
  double age_seconds = 0.0;  ///< since the last successful probe
  bool alive = true;
};

/// The "stats" reply payload.
struct StatsReply {
  std::size_t queue_depth = 0;  ///< admitted flow requests in flight
  std::size_t active = 0;       ///< same number today; kept distinct on the wire
  std::size_t rejected = 0;     ///< admission rejections since startup
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  // Request-latency quantiles from the server's run histogram (dispatcher:
  // relay latency across all backends).  0 until the first finished
  // request; absent on the wire from pre-telemetry daemons (parsed as 0,
  // same forward-compat rule as the cache counters).
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  int pool_size = 0;            ///< worker threads (0 for the dispatcher)
  double uptime_seconds = 0.0;
  bool draining = false;
  std::vector<PeerStatus> peers;
};

/// Reply to a "failpoint" request: how many points are armed afterwards.
[[nodiscard]] std::string failpoints_line(std::size_t armed);
[[nodiscard]] std::string stats_reply_line(const StatsReply& stats);

/// A reply line's envelope: a JSON object with the control schema and
/// "type" `type` ("pong", "stats", ...).  Returns the object to read the
/// members from; nullopt (and `error`) otherwise, e.g. for an error line.
[[nodiscard]] std::optional<util::JsonValue> parse_control_reply(
    std::string_view line, std::string_view type, std::string* error = nullptr);

/// Reply to a "metrics" request: the Prometheus text exposition carried as
/// a JSON-escaped single-line body.
[[nodiscard]] std::string metrics_reply_line(const std::string& exposition);

/// Parse a metrics reply line back into the exposition text.
[[nodiscard]] std::optional<std::string> parse_metrics_reply(
    std::string_view line, std::string* error = nullptr);

/// Parse a stats reply line.  Members are optional (absent = 0, false, or
/// true for a peer's `alive`) so newer clients keep parsing older daemons;
/// a wrong schema or type, or a member of the wrong type, is an error.  A
/// malformed peer entry is skipped.
[[nodiscard]] std::optional<StatsReply> parse_stats_reply(
    std::string_view line, std::string* error = nullptr);

/// The "schemas" reply payload: the wire schemas this process speaks, so a
/// client can feature-probe (e.g. for sadp.flow_delta.v1 support) instead
/// of guessing from version numbers.
struct SchemasReply {
  std::string request;   ///< sadp.flow_request.v1
  std::string response;  ///< sadp.flow_response.v1
  std::string control;   ///< sadp.control.v1
  /// Empty when the daemon predates ECO support.
  std::string delta;     ///< sadp.flow_delta.v1
};

/// Parse a schemas reply.  `delta` is optional (absent = daemon without ECO
/// support); a wrong schema or type is an error.
[[nodiscard]] std::optional<SchemasReply> parse_schemas_reply(
    std::string_view line, std::string* error = nullptr);

/// What differs between servers' control replies; ping, metrics,
/// failpoint and schemas are answered the same way by every server.
struct ControlHost {
  double uptime_seconds = 0.0;
  std::function<StatsReply()> stats;  ///< own counters, or the fleet view
  std::function<void()> drain;        ///< run before "draining" is sent
};

/// One control line's reply line (no newline): a structured invalid_input
/// line for a malformed or unknown line, the registry's error for a bad
/// failpoint spec (applied to this process, util/failpoint.hpp).
[[nodiscard]] std::string answer_control(std::string_view line,
                                         const ControlHost& host);

}  // namespace sadp::api
