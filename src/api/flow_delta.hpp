// Incremental ECO re-route request layer (schema sadp.flow_delta.v1).
//
// The service's second first-class verb, alongside sadp.flow_request.v1:
// "here is the prior solution, here is what changed".  A delta request
// carries a *base* job (the same job object a flow request carries — flow
// knobs plus the base netlist source), the base routed solution (inline
// canonical text, or a path readable where the request is dispatched), and
// a change list (add/remove net, move pin, add blockage rect).  The engine
// side warm-starts from the base (core/eco.hpp), rips up only the nets
// intersecting the dirty region, and streams back the existing response
// schema — one "row" line with the full journal payload, one extra "delta"
// summary line (nets ripped / untouched, base fingerprint), then the
// "batch" line.
//
// Wire framing: one JSON line, "schema" first, so the server's line demux
// can route it without a full parse (see looks_like_delta_line):
//
//   {"schema":"sadp.flow_delta.v1"[,"trace_id":...,"sent_unix_us":...],
//    "base":{<job object>},
//    "base_solution":"solution ...\n..." | "base_solution_path":"/path",
//    "changes":[{"op":"move_pin","net":3,"pin":1,"to":[10,12]},
//               {"op":"add_blockage","rect":[4,4,9,9]},
//               {"op":"remove_net","net":7},
//               {"op":"add_net","name":"n","pins":[[2,2],[8,3]]}]}
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/flow_api.hpp"
#include "core/eco.hpp"

namespace sadp::api {

inline constexpr const char* kDeltaRequestSchema = "sadp.flow_delta.v1";

/// One ECO re-route request.
struct FlowDeltaRequest {
  /// The base job: flow knobs plus the base netlist source (exactly one of
  /// benchmark / spec / netlist_path, like any job).  label/arm/span_id key
  /// the response row exactly as in a flow request.
  JobRequest base;
  /// The base routed solution: inline canonical text (core/solution_io
  /// format), or a path readable where the request is dispatched.  Exactly
  /// one must be set.
  std::string base_solution;
  std::string base_solution_path;
  std::vector<core::EcoChange> changes;
  /// Trace context, same contract as FlowRequest (absent = untraced).
  std::string trace_id;
  std::int64_t sent_unix_us = 0;
};

/// Structural validation: a valid base job, exactly one base-solution
/// source, and per-change sanity that needs no netlist (op-specific members
/// present; deep validation against the base happens in apply_eco_changes).
[[nodiscard]] util::Status validate_delta(const FlowDeltaRequest& request);

/// Parse the command-line change-spec grammar of `sadp_route --delta`, run
/// in-process or sent with `--connect`.  Each argument holds zero or more
/// ';'-separated entries:
///   move_pins  "net,pin,x,y"
///   removes    "net"
///   add_nets   "name:x,y,x,y,..."  (flat coords, >= 2 pins; name optional)
///   blockages  "x0,y0,x1,y1"
/// Every number must be a whole decimal int.  Parsed changes append to
/// `*changes`; kInvalidInput names the offending spec.  Purely lexical — id/bounds validation happens in validate_delta
/// and apply_eco_changes.
[[nodiscard]] util::Status parse_change_specs(
    const std::string& move_pins, const std::string& removes,
    const std::string& add_nets, const std::string& blockages,
    std::vector<core::EcoChange>* changes);

/// Serialize a change list (the `changes` array of a delta request).
/// The result cache keys deltas with it.
void write_changes(util::JsonWriter& json,
                   const std::vector<core::EcoChange>& changes);

/// One line of JSON (no trailing newline), "schema" member first.
[[nodiscard]] std::string serialize_delta_request(
    const FlowDeltaRequest& request);

/// Inverse of serialize_delta_request; same forward-compatibility rules as
/// parse_request (unknown members ignored, known members type-checked).
[[nodiscard]] std::optional<FlowDeltaRequest> parse_delta_request(
    std::string_view line, std::string* error = nullptr);

/// Cheap routing test for the server's line demultiplexer: does this line
/// lead with the delta schema?  Delta producers always serialize "schema"
/// first, so flow requests (same leading key, different value) and control
/// lines (leading "type") never match.
[[nodiscard]] bool looks_like_delta_line(std::string_view line) noexcept;

/// Fill in trace context on a delta request that has none (fresh trace_id,
/// a span_id for the base job, send timestamp); a request already carrying
/// a trace_id is left untouched.  Mirrors ensure_trace_context.
void ensure_delta_trace_context(FlowDeltaRequest* request);

/// Read the base solution file at `path` into `text`.  kInvalidInput when
/// it cannot be read.
[[nodiscard]] util::Status load_base_solution(const std::string& path,
                                              std::string* text);

// ---------------------------------------------------------------------------
// The "delta" response line.

/// {"schema":"sadp.flow_response.v1","type":"delta"[,"trace_id":...],
///  "nets_ripped":N,"nets_untouched":N,"nets_total":N,"changes":N,
///  "ripped_ids":[...],"load_seconds":S,"base_fingerprint":"hex"}
[[nodiscard]] std::string response_delta_line(const core::EcoSummary& summary,
                                              const std::string& trace_id = {});

// ---------------------------------------------------------------------------
// Dispatch: the in-process ECO entry point (CLI --delta, daemon verb).

struct DeltaDispatchOptions {
  /// Request-scoped cancellation (client disconnect, Ctrl-C).
  util::CancelToken cancel;
  /// Retain the router in the outcome (local validation only).
  bool keep_router = false;
};

struct DeltaDispatchResult {
  /// kInvalidInput when the request, base solution or change list is
  /// malformed; there is no row and `outcome` is empty.
  util::Status status;
  /// The single job's outcome (row payload), mirroring engine jobs: label,
  /// status (ok/degraded/cancelled/timeout/failed), result, metrics.
  engine::JobOutcome outcome;
  core::EcoSummary summary;
  double wall_seconds = 0.0;
};

/// Run a delta as one engine job: validate, parse the base (an inline one
/// where it is, a path one after one read), to_flow_job,
/// then a one-job FlowEngine run on the calling thread (no journal) whose
/// flow is core::run_eco_flow, so the delta gets the engine's fault site,
/// isolation, deadline, `job:<label>` span and counters.  Request-shaped
/// errors come back in `status` with no row: validation, an unreadable or
/// malformed base, an unknown benchmark or netlist, and every kInvalidInput
/// of run_eco_flow.  The CLI and the daemon share this as they share
/// api::dispatch.
[[nodiscard]] DeltaDispatchResult dispatch_delta(
    const FlowDeltaRequest& request, const DeltaDispatchOptions& options = {});

}  // namespace sadp::api
