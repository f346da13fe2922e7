#include "api/control.hpp"

#include "api/flow_api.hpp"
#include "api/flow_delta.hpp"
#include "obs/metrics.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"

namespace sadp::api {

const char* control_type_name(ControlRequest::Type type) noexcept {
  switch (type) {
    case ControlRequest::Type::kPing: return "ping";
    case ControlRequest::Type::kStats: return "stats";
    case ControlRequest::Type::kDrain: return "drain";
    case ControlRequest::Type::kFailpoint: return "failpoint";
    case ControlRequest::Type::kMetrics: return "metrics";
    case ControlRequest::Type::kSchemas: return "schemas";
  }
  return "?";
}

std::string serialize_control_request(const ControlRequest& request) {
  util::JsonWriter json;
  json.begin_object();
  json.key("type").value(control_type_name(request.type));
  if (request.type == ControlRequest::Type::kFailpoint) {
    json.key("spec").value(request.spec);
    json.key("seed").value(request.seed);
  }
  json.end_object();
  return json.str();
}

std::optional<ControlRequest> parse_control_request(std::string_view line,
                                                    std::string* error) {
  auto fail = [&](const std::string& what) -> std::optional<ControlRequest> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  std::string parse_error;
  const auto doc = util::parse_json(line, &parse_error);
  if (!doc || !doc->is_object()) {
    return fail("control line is not a JSON object: " + parse_error);
  }
  const util::JsonValue* schema = doc->find("schema");
  if (schema != nullptr &&
      (!schema->is_string() || schema->string_value != kControlSchema)) {
    return fail("not a control line (schema present and not " +
                std::string(kControlSchema) + ")");
  }
  const util::JsonValue* type = doc->find("type");
  if (type == nullptr || !type->is_string()) {
    return fail("control line without a string 'type' member");
  }

  ControlRequest request;
  if (type->string_value == "ping") {
    request.type = ControlRequest::Type::kPing;
  } else if (type->string_value == "stats") {
    request.type = ControlRequest::Type::kStats;
  } else if (type->string_value == "drain") {
    request.type = ControlRequest::Type::kDrain;
  } else if (type->string_value == "failpoint") {
    request.type = ControlRequest::Type::kFailpoint;
  } else if (type->string_value == "metrics") {
    request.type = ControlRequest::Type::kMetrics;
  } else if (type->string_value == "schemas") {
    request.type = ControlRequest::Type::kSchemas;
  } else {
    return fail("unknown control type '" + type->string_value + "'");
  }
  std::string field_error;
  if (!util::read_string(*doc, "spec", &request.spec, &field_error)) {
    return fail("malformed failpoint payload");
  }
  if (!util::read_json_int(*doc, "seed", &request.seed, &field_error)) {
    return fail("malformed failpoint payload: " + field_error);
  }
  return request;
}

bool looks_like_control_line(std::string_view line) noexcept {
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
  constexpr std::string_view kTypeKey = "\"type\"";
  return line.substr(i, kTypeKey.size()) == kTypeKey;
}

namespace {

/// A reply line: the envelope (schema, then type), `members`, closed.
std::string reply_line(
    const char* type,
    const std::function<void(util::JsonWriter&)>& members = {}) {
  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value(kControlSchema);
  json.key("type").value(type);
  if (members) members(json);
  json.end_object();
  return json.str();
}

}  // namespace

std::string failpoints_line(std::size_t armed) {
  return reply_line("failpoints", [&](util::JsonWriter& json) {
    json.key("armed").value(armed);
  });
}

std::string stats_reply_line(const StatsReply& stats) {
  return reply_line("stats", [&](util::JsonWriter& json) {
    json.key("queue_depth").value(stats.queue_depth);
    json.key("active").value(stats.active);
    json.key("rejected").value(stats.rejected);
    json.key("cache_hits").value(stats.cache_hits);
    json.key("cache_misses").value(stats.cache_misses);
    json.key("latency_p50_ms").value(stats.latency_p50_ms);
    json.key("latency_p99_ms").value(stats.latency_p99_ms);
    json.key("pool_size").value(stats.pool_size);
    json.key("uptime_seconds").value(stats.uptime_seconds);
    json.key("draining").value(stats.draining);
    json.key("peers").begin_array();
    for (const PeerStatus& peer : stats.peers) {
      json.begin_object();
      json.key("addr").value(peer.addr);
      json.key("queue_depth").value(peer.queue_depth);
      json.key("active").value(peer.active);
      json.key("age_seconds").value(peer.age_seconds);
      json.key("alive").value(peer.alive);
      json.end_object();
    }
    json.end_array();
  });
}

std::string metrics_reply_line(const std::string& exposition) {
  return reply_line("metrics", [&](util::JsonWriter& json) {
    json.key("content_type").value("text/plain; version=0.0.4");
    json.key("body").value(exposition);
  });
}

std::optional<util::JsonValue> parse_control_reply(std::string_view line,
                                                   std::string_view type,
                                                   std::string* error) {
  auto fail = [&](const std::string& what) -> std::optional<util::JsonValue> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  std::string parse_error;
  auto doc = util::parse_json(line, &parse_error);
  if (!doc || !doc->is_object()) {
    return fail(std::string(type) + " reply is not a JSON object: " +
                parse_error);
  }
  const util::JsonValue* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string_value != kControlSchema) {
    return fail(std::string(type) + " reply schema mismatch (want " +
                kControlSchema + ")");
  }
  const util::JsonValue* member = doc->find("type");
  if (member == nullptr || !member->is_string() ||
      member->string_value != type) {
    return fail("not a " + std::string(type) + " reply");
  }
  return doc;
}

std::optional<std::string> parse_metrics_reply(std::string_view line,
                                               std::string* error) {
  const auto doc = parse_control_reply(line, "metrics", error);
  if (!doc) return std::nullopt;
  const util::JsonValue* body = doc->find("body");
  if (body == nullptr || !body->is_string()) {
    if (error != nullptr) *error = "metrics reply without a string 'body'";
    return std::nullopt;
  }
  return body->string_value;
}

std::optional<SchemasReply> parse_schemas_reply(std::string_view line,
                                                std::string* error) {
  const auto doc = parse_control_reply(line, "schemas", error);
  if (!doc) return std::nullopt;
  SchemasReply schemas;
  std::string field_error;
  if (!util::read_string(*doc, "request", &schemas.request, &field_error) ||
      !util::read_string(*doc, "response", &schemas.response, &field_error) ||
      !util::read_string(*doc, "control", &schemas.control, &field_error) ||
      !util::read_string(*doc, "delta", &schemas.delta, &field_error)) {
    if (error != nullptr) *error = "malformed schemas reply: " + field_error;
    return std::nullopt;
  }
  return schemas;
}

std::optional<StatsReply> parse_stats_reply(std::string_view line,
                                            std::string* error) {
  const auto doc = parse_control_reply(line, "stats", error);
  if (!doc) return std::nullopt;
  StatsReply stats;
  std::string field_error;
  if (!util::read_json_int(*doc, "queue_depth", &stats.queue_depth,
                           &field_error) ||
      !util::read_json_int(*doc, "active", &stats.active, &field_error) ||
      !util::read_json_int(*doc, "rejected", &stats.rejected, &field_error) ||
      !util::read_json_int(*doc, "cache_hits", &stats.cache_hits,
                           &field_error) ||
      !util::read_json_int(*doc, "cache_misses", &stats.cache_misses,
                           &field_error) ||
      !util::read_json_int(*doc, "pool_size", &stats.pool_size,
                           &field_error) ||
      !util::read_number(*doc, "latency_p50_ms", &stats.latency_p50_ms,
                         &field_error) ||
      !util::read_number(*doc, "latency_p99_ms", &stats.latency_p99_ms,
                         &field_error) ||
      !util::read_number(*doc, "uptime_seconds", &stats.uptime_seconds,
                         &field_error) ||
      !util::read_bool(*doc, "draining", &stats.draining, &field_error)) {
    if (error != nullptr) *error = "malformed stats reply: " + field_error;
    return std::nullopt;
  }
  if (const util::JsonValue* peers = doc->find("peers");
      peers != nullptr && peers->is_array()) {
    for (const util::JsonValue& entry : peers->array) {
      // A malformed peer entry is skipped; the rest of the reply stands.
      PeerStatus peer;
      if (!entry.is_object() ||
          !util::read_string(entry, "addr", &peer.addr, &field_error) ||
          !util::read_json_int(entry, "queue_depth", &peer.queue_depth,
                               &field_error) ||
          !util::read_json_int(entry, "active", &peer.active, &field_error) ||
          !util::read_number(entry, "age_seconds", &peer.age_seconds,
                             &field_error) ||
          !util::read_bool(entry, "alive", &peer.alive, &field_error)) {
        continue;
      }
      stats.peers.push_back(std::move(peer));
    }
  }
  return stats;
}

std::string answer_control(std::string_view line, const ControlHost& host) {
  std::string parse_error;
  const auto request = parse_control_request(line, &parse_error);
  if (!request) {
    return response_error_line(util::Status::invalid_input(parse_error));
  }
  switch (request->type) {
    case ControlRequest::Type::kPing:
      return reply_line("pong", [&](util::JsonWriter& json) {
        json.key("uptime_seconds").value(host.uptime_seconds);
      });
    case ControlRequest::Type::kStats:
      return stats_reply_line(host.stats());
    case ControlRequest::Type::kMetrics:
      // Rendering takes the registry mutex briefly; like every control verb
      // it works while the server is saturated or draining.
      return metrics_reply_line(obs::metrics().render());
    case ControlRequest::Type::kDrain:
      host.drain();
      return reply_line("draining");
    case ControlRequest::Type::kFailpoint: {
      // The process-wide registry; the chaos smoke arms each process of a
      // fleet through its own control port.
      util::FailPointRegistry& registry = util::FailPointRegistry::instance();
      if (request->spec.empty()) {
        registry.clear();
      } else if (const util::Status applied =
                     registry.configure(request->spec, request->seed);
                 !applied.is_ok()) {
        return response_error_line(applied);
      }
      return failpoints_line(registry.armed_count());
    }
    case ControlRequest::Type::kSchemas:
      // Daemons and the dispatcher speak (or relay) both flow verbs.
      return reply_line("schemas", [](util::JsonWriter& json) {
        json.key("request").value(kRequestSchema);
        json.key("response").value(kResponseSchema);
        json.key("control").value(kControlSchema);
        json.key("delta").value(kDeltaRequestSchema);
      });
  }
  return response_error_line(util::Status::internal("unhandled control type"));
}

}  // namespace sadp::api
