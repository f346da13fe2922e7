#include "api/flow_delta.hpp"

#include <charconv>
#include <utility>

#include "engine/flow_engine.hpp"
#include "util/args.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace sadp::api {

namespace {

using util::read_string;

/// A point as the wire's two-element [x,y] array.
bool read_point(const util::JsonValue& value, grid::Point* out,
                std::string* error, const char* field) {
  if (!value.is_array() || value.array.size() != 2) {
    *error = std::string("field '") + field + "' must be an [x,y] pair";
    return false;
  }
  return util::json_int(value.array[0], field, &out->x, error) &&
         util::json_int(value.array[1], field, &out->y, error);
}

void write_point(util::JsonWriter& json, grid::Point p) {
  json.begin_array();
  json.value(p.x);
  json.value(p.y);
  json.end_array();
}

bool read_change(const util::JsonValue& doc, core::EcoChange* change,
                 std::string* error) {
  if (!doc.is_object()) {
    *error = "change must be an object";
    return false;
  }
  const util::JsonValue* op = doc.find("op");
  if (op == nullptr || !op->is_string()) {
    *error = "change without a string 'op' member";
    return false;
  }
  const auto kind = core::parse_eco_change_kind(op->string_value);
  if (!kind) {
    *error = "unknown change op '" + op->string_value + "'";
    return false;
  }
  change->kind = *kind;
  switch (change->kind) {
    case core::EcoChange::Kind::kMovePin: {
      int net = grid::kNoNet;
      if (!util::read_json_int(doc, "net", &net, error) ||
          !util::read_json_int(doc, "pin", &change->pin, error)) {
        return false;
      }
      change->net = net;
      const util::JsonValue* to = doc.find("to");
      if (to == nullptr) {
        *error = "move_pin without a 'to' member";
        return false;
      }
      return read_point(*to, &change->to, error, "to");
    }
    case core::EcoChange::Kind::kRemoveNet: {
      int net = grid::kNoNet;
      if (!util::read_json_int(doc, "net", &net, error)) return false;
      change->net = net;
      return true;
    }
    case core::EcoChange::Kind::kAddNet: {
      if (!read_string(doc, "name", &change->name, error)) return false;
      const util::JsonValue* pins = doc.find("pins");
      if (pins == nullptr || !pins->is_array()) {
        *error = "add_net without a 'pins' array";
        return false;
      }
      for (const util::JsonValue& entry : pins->array) {
        grid::Point p{};
        if (!read_point(entry, &p, error, "pins")) return false;
        change->pins.push_back(p);
      }
      return true;
    }
    case core::EcoChange::Kind::kAddBlockage: {
      const util::JsonValue* rect = doc.find("rect");
      if (rect == nullptr || !rect->is_array() || rect->array.size() != 4) {
        *error = "add_blockage without a [x0,y0,x1,y1] 'rect'";
        return false;
      }
      return util::json_int(rect->array[0], "rect", &change->rect_lo.x,
                            error) &&
             util::json_int(rect->array[1], "rect", &change->rect_lo.y,
                            error) &&
             util::json_int(rect->array[2], "rect", &change->rect_hi.x,
                            error) &&
             util::json_int(rect->array[3], "rect", &change->rect_hi.y, error);
    }
  }
  *error = "unreachable change kind";
  return false;
}

void write_change(util::JsonWriter& json, const core::EcoChange& change) {
  json.begin_object();
  json.key("op").value(core::eco_change_kind_name(change.kind));
  switch (change.kind) {
    case core::EcoChange::Kind::kMovePin:
      json.key("net").value(change.net);
      json.key("pin").value(change.pin);
      json.key("to");
      write_point(json, change.to);
      break;
    case core::EcoChange::Kind::kRemoveNet:
      json.key("net").value(change.net);
      break;
    case core::EcoChange::Kind::kAddNet:
      if (!change.name.empty()) json.key("name").value(change.name);
      json.key("pins").begin_array();
      for (const grid::Point p : change.pins) write_point(json, p);
      json.end_array();
      break;
    case core::EcoChange::Kind::kAddBlockage:
      json.key("rect").begin_array();
      json.value(change.rect_lo.x);
      json.value(change.rect_lo.y);
      json.value(change.rect_hi.x);
      json.value(change.rect_hi.y);
      json.end_array();
      break;
  }
  json.end_object();
}

}  // namespace

util::Status validate_delta(const FlowDeltaRequest& request) {
  if (const util::Status base = validate_job(request.base, "base");
      !base.is_ok()) {
    return base;
  }
  const bool inline_text = !request.base_solution.empty();
  const bool path = !request.base_solution_path.empty();
  if (inline_text == path) {
    return util::Status::invalid_input(
        "delta request needs exactly one of base_solution / "
        "base_solution_path");
  }
  for (std::size_t i = 0; i < request.changes.size(); ++i) {
    const core::EcoChange& change = request.changes[i];
    const std::string where = "change " + std::to_string(i) + ": ";
    switch (change.kind) {
      case core::EcoChange::Kind::kMovePin:
      case core::EcoChange::Kind::kRemoveNet:
        if (change.net < 0) {
          return util::Status::invalid_input(where + "net id must be >= 0");
        }
        if (change.kind == core::EcoChange::Kind::kMovePin && change.pin < 0) {
          return util::Status::invalid_input(where + "pin index must be >= 0");
        }
        break;
      case core::EcoChange::Kind::kAddNet:
        if (change.pins.size() < 2) {
          return util::Status::invalid_input(where +
                                             "add_net needs at least 2 pins");
        }
        break;
      case core::EcoChange::Kind::kAddBlockage:
        break;  // rects are normalized and bounds-checked against the base
    }
  }
  return util::Status::ok();
}

void write_changes(util::JsonWriter& json,
                   const std::vector<core::EcoChange>& changes) {
  json.begin_array();
  for (const core::EcoChange& change : changes) write_change(json, change);
  json.end_array();
}

std::string serialize_delta_request(const FlowDeltaRequest& request) {
  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value(kDeltaRequestSchema);
  // Trace context mirrors the flow request: omitted entirely when untraced.
  if (!request.trace_id.empty()) {
    json.key("trace_id").value(request.trace_id);
    json.key("sent_unix_us").value(static_cast<long long>(request.sent_unix_us));
  }
  json.key("base");
  write_job_request(json, request.base);
  if (!request.base_solution.empty()) {
    json.key("base_solution").value(request.base_solution);
  }
  if (!request.base_solution_path.empty()) {
    json.key("base_solution_path").value(request.base_solution_path);
  }
  json.key("changes");
  write_changes(json, request.changes);
  json.end_object();
  return json.str();
}

std::optional<FlowDeltaRequest> parse_delta_request(std::string_view line,
                                                    std::string* error) {
  auto fail = [&](const std::string& what) -> std::optional<FlowDeltaRequest> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  std::string parse_error;
  const auto doc = util::parse_json(line, &parse_error);
  if (!doc || !doc->is_object()) {
    return fail("delta request is not a JSON object: " + parse_error);
  }
  const util::JsonValue* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string_value != kDeltaRequestSchema) {
    return fail(std::string("delta request schema mismatch (want ") +
                kDeltaRequestSchema + ")");
  }

  FlowDeltaRequest request;
  std::string field_error;
  if (!read_string(*doc, "trace_id", &request.trace_id, &field_error)) {
    return fail(field_error);
  }
  if (!util::read_json_int(*doc, "sent_unix_us", &request.sent_unix_us,
                           &field_error)) {
    return fail(field_error);
  }
  const util::JsonValue* base = doc->find("base");
  if (base == nullptr || !base->is_object()) {
    return fail("field 'base' must be a job object");
  }
  if (!read_job_request(*base, &request.base, &field_error)) {
    return fail("base: " + field_error);
  }
  if (!read_string(*doc, "base_solution", &request.base_solution,
                   &field_error) ||
      !read_string(*doc, "base_solution_path", &request.base_solution_path,
                   &field_error)) {
    return fail(field_error);
  }
  if (const util::JsonValue* changes = doc->find("changes");
      changes != nullptr) {
    if (!changes->is_array()) return fail("field 'changes' must be an array");
    request.changes.reserve(changes->array.size());
    for (std::size_t i = 0; i < changes->array.size(); ++i) {
      core::EcoChange change;
      if (!read_change(changes->array[i], &change, &field_error)) {
        return fail("change " + std::to_string(i) + ": " + field_error);
      }
      request.changes.push_back(std::move(change));
    }
  }
  return request;
}

bool looks_like_delta_line(std::string_view line) noexcept {
  std::size_t i = 0;
  auto skip_ws = [&] {
    while (i < line.size() &&
           (line[i] == ' ' || line[i] == '\t' || line[i] == '\r')) {
      ++i;
    }
  };
  skip_ws();
  if (i >= line.size() || line[i] != '{') return false;
  ++i;
  skip_ws();
  constexpr std::string_view kSchemaKey = "\"schema\"";
  if (line.substr(i, kSchemaKey.size()) != kSchemaKey) return false;
  i += kSchemaKey.size();
  skip_ws();
  if (i >= line.size() || line[i] != ':') return false;
  ++i;
  skip_ws();
  const std::string value = std::string("\"") + kDeltaRequestSchema + '"';
  return line.substr(i, value.size()) == value;
}

void ensure_delta_trace_context(FlowDeltaRequest* request) {
  if (!request->trace_id.empty()) return;
  request->trace_id = mint_trace_id();
  request->sent_unix_us = util::unix_now_us();
  request->base.span_id = mint_trace_id();
}

util::Status load_base_solution(const std::string& path, std::string* text) {
  if (!util::read_file(path, text)) {
    return util::Status::invalid_input("cannot open base solution " + path);
  }
  return util::Status::ok();
}

std::string response_delta_line(const core::EcoSummary& summary,
                                const std::string& trace_id) {
  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value(kResponseSchema);
  json.key("type").value("delta");
  if (!trace_id.empty()) json.key("trace_id").value(trace_id);
  json.key("nets_ripped").value(summary.nets_ripped);
  json.key("nets_untouched").value(summary.nets_untouched);
  json.key("nets_total").value(summary.nets_total);
  json.key("changes").value(summary.changes);
  json.key("ripped_ids").begin_array();
  for (const grid::NetId id : summary.ripped_ids) {
    json.value(static_cast<int>(id));
  }
  json.end_array();
  json.key("load_seconds").value(summary.load_seconds);
  json.key("base_fingerprint").value(summary.base_fingerprint);
  json.end_object();
  return json.str();
}

namespace {

/// Each ','-separated token must be a whole decimal int: "4294967306" and
/// "10x" fail instead of wrapping or truncating.
bool parse_spec_ints(std::string_view csv, std::size_t expect,
                     std::vector<int>* out) {
  out->clear();
  for (const std::string& token : util::split_list(csv, ',')) {
    int value = 0;
    const char* end = token.data() + token.size();
    const auto [stop, ec] = std::from_chars(token.data(), end, value);
    if (ec != std::errc() || stop != end) return false;
    out->push_back(value);
  }
  return expect == 0 || out->size() == expect;
}

}  // namespace

util::Status parse_change_specs(const std::string& move_pins,
                                const std::string& removes,
                                const std::string& add_nets,
                                const std::string& blockages,
                                std::vector<core::EcoChange>* changes) {
  std::vector<int> values;
  for (const std::string& spec : util::split_list(move_pins, ';')) {
    if (!parse_spec_ints(spec, 4, &values)) {
      return util::Status::invalid_input("bad move-pin spec '" + spec +
                                         "' (want net,pin,x,y)");
    }
    core::EcoChange change;
    change.kind = core::EcoChange::Kind::kMovePin;
    change.net = values[0];
    change.pin = values[1];
    change.to = {values[2], values[3]};
    changes->push_back(std::move(change));
  }
  for (const std::string& spec : util::split_list(removes, ';')) {
    if (!parse_spec_ints(spec, 1, &values)) {
      return util::Status::invalid_input("bad remove-net spec '" + spec +
                                         "' (want a net id)");
    }
    core::EcoChange change;
    change.kind = core::EcoChange::Kind::kRemoveNet;
    change.net = values[0];
    changes->push_back(std::move(change));
  }
  for (const std::string& spec : util::split_list(add_nets, ';')) {
    // name:x,y,x,y,...  (flat coordinate list, >= 2 pins)
    const std::size_t colon = spec.find(':');
    core::EcoChange change;
    change.kind = core::EcoChange::Kind::kAddNet;
    const std::string coords =
        colon == std::string::npos ? spec : spec.substr(colon + 1);
    if (colon != std::string::npos) change.name = spec.substr(0, colon);
    if (!parse_spec_ints(coords, 0, &values) || values.size() < 4 ||
        values.size() % 2 != 0) {
      return util::Status::invalid_input("bad add-net spec '" + spec +
                                         "' (want name:x,y,x,y,...)");
    }
    for (std::size_t i = 0; i < values.size(); i += 2) {
      change.pins.push_back({values[i], values[i + 1]});
    }
    changes->push_back(std::move(change));
  }
  for (const std::string& spec : util::split_list(blockages, ';')) {
    if (!parse_spec_ints(spec, 4, &values)) {
      return util::Status::invalid_input("bad add-blockage spec '" + spec +
                                         "' (want x0,y0,x1,y1)");
    }
    core::EcoChange change;
    change.kind = core::EcoChange::Kind::kAddBlockage;
    change.rect_lo = {values[0], values[1]};
    change.rect_hi = {values[2], values[3]};
    changes->push_back(std::move(change));
  }
  return util::Status::ok();
}

DeltaDispatchResult dispatch_delta(const FlowDeltaRequest& request,
                                   const DeltaDispatchOptions& options) {
  DeltaDispatchResult out;
  util::Timer wall;
  out.status = validate_delta(request);
  if (!out.status.is_ok()) return out;

  std::string file_text;
  if (request.base_solution.empty()) {
    out.status = load_base_solution(request.base_solution_path, &file_text);
    if (!out.status.is_ok()) return out;
  }
  std::string parse_error;
  const auto solution = core::parse_solution(
      request.base_solution.empty() ? file_text : request.base_solution,
      &parse_error);
  if (!solution) {
    out.status =
        util::Status::invalid_input("malformed base solution: " + parse_error);
    return out;
  }

  std::vector<engine::FlowJob> jobs(1);
  engine::FlowJob& job = jobs.front();
  out.status = to_flow_job(request.base, request.trace_id, &job);
  if (!out.status.is_ok()) return out;
  job.keep_router = options.keep_router;
  // A base or change list that run_eco_flow rejects is a request-shaped
  // error: record it and throw, so the engine's failed row is dropped below
  // and the caller gets an error with no row, like a validation failure.
  job.flow = [&](const netlist::PlacedNetlist& base,
                 const core::FlowConfig& config) {
    core::EcoRun eco;
    const util::Status run =
        core::run_eco_flow(base, *solution, request.changes, config, &eco);
    if (!run.is_ok()) {
      out.status = run;
      throw FlowError(run);
    }
    out.summary = std::move(eco.summary);
    return std::move(eco.flow);
  };

  engine::EngineOptions engine_opts;
  engine_opts.num_workers = 1;  // the calling thread runs the one job
  engine_opts.cancel = options.cancel;
  engine::BatchResult batch =
      engine::FlowEngine(engine_opts).run(std::move(jobs));
  if (out.status.is_ok()) out.outcome = std::move(batch.outcomes.front());
  out.wall_seconds = wall.seconds();
  return out;
}

}  // namespace sadp::api
