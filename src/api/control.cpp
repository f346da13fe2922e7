#include "api/control.hpp"

#include "util/json.hpp"

namespace sadp::api {

namespace {

bool read_opt_string(const util::JsonValue& doc, const char* key,
                     std::string* out) {
  const util::JsonValue* v = doc.find(key);
  if (v == nullptr) return true;
  if (!v->is_string()) return false;
  *out = v->string_value;
  return true;
}

double read_double(const util::JsonValue& doc, const char* key) {
  const util::JsonValue* v = doc.find(key);
  return (v != nullptr && v->is_number()) ? v->number_value : 0.0;
}

bool read_flag(const util::JsonValue& doc, const char* key) {
  const util::JsonValue* v = doc.find(key);
  return v != nullptr && v->is_bool() && v->bool_value;
}

}  // namespace

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
  if (!read_opt_string(*doc, "spec", &request.spec)) {
    return fail("malformed failpoint payload");
  }
  std::string field_error;
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

std::string pong_line(double uptime_seconds) {
  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value(kControlSchema);
  json.key("type").value("pong");
  json.key("uptime_seconds").value(uptime_seconds);
  json.end_object();
  return json.str();
}

std::string draining_line() {
  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value(kControlSchema);
  json.key("type").value("draining");
  json.end_object();
  return json.str();
}

std::string failpoints_line(std::size_t armed) {
  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value(kControlSchema);
  json.key("type").value("failpoints");
  json.key("armed").value(armed);
  json.end_object();
  return json.str();
}

std::string stats_reply_line(const StatsReply& stats) {
  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value(kControlSchema);
  json.key("type").value("stats");
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
  json.end_object();
  return json.str();
}

std::string metrics_reply_line(const std::string& exposition) {
  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value(kControlSchema);
  json.key("type").value("metrics");
  json.key("content_type").value("text/plain; version=0.0.4");
  json.key("body").value(exposition);
  json.end_object();
  return json.str();
}

std::optional<std::string> parse_metrics_reply(std::string_view line,
                                               std::string* error) {
  auto fail = [&](const std::string& what) -> std::optional<std::string> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  std::string parse_error;
  const auto doc = util::parse_json(line, &parse_error);
  if (!doc || !doc->is_object()) {
    return fail("metrics reply is not a JSON object: " + parse_error);
  }
  const util::JsonValue* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string_value != kControlSchema) {
    return fail(std::string("metrics reply schema mismatch (want ") +
                kControlSchema + ")");
  }
  const util::JsonValue* type = doc->find("type");
  if (type == nullptr || !type->is_string() ||
      type->string_value != "metrics") {
    return fail("not a metrics reply");
  }
  const util::JsonValue* body = doc->find("body");
  if (body == nullptr || !body->is_string()) {
    return fail("metrics reply without a string 'body'");
  }
  return body->string_value;
}

std::string schemas_reply_line(const SchemasReply& schemas) {
  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value(kControlSchema);
  json.key("type").value("schemas");
  json.key("request").value(schemas.request);
  json.key("response").value(schemas.response);
  json.key("control").value(schemas.control);
  if (!schemas.delta.empty()) json.key("delta").value(schemas.delta);
  json.end_object();
  return json.str();
}

std::optional<SchemasReply> parse_schemas_reply(std::string_view line,
                                                std::string* error) {
  auto fail = [&](const std::string& what) -> std::optional<SchemasReply> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  std::string parse_error;
  const auto doc = util::parse_json(line, &parse_error);
  if (!doc || !doc->is_object()) {
    return fail("schemas reply is not a JSON object: " + parse_error);
  }
  const util::JsonValue* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string_value != kControlSchema) {
    return fail(std::string("schemas reply schema mismatch (want ") +
                kControlSchema + ")");
  }
  const util::JsonValue* type = doc->find("type");
  if (type == nullptr || !type->is_string() ||
      type->string_value != "schemas") {
    return fail("not a schemas reply");
  }
  SchemasReply schemas;
  if (!read_opt_string(*doc, "request", &schemas.request) ||
      !read_opt_string(*doc, "response", &schemas.response) ||
      !read_opt_string(*doc, "control", &schemas.control) ||
      !read_opt_string(*doc, "delta", &schemas.delta)) {
    return fail("malformed schemas reply");
  }
  return schemas;
}

std::optional<StatsReply> parse_stats_reply(std::string_view line,
                                            std::string* error) {
  auto fail = [&](const std::string& what) -> std::optional<StatsReply> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  std::string parse_error;
  const auto doc = util::parse_json(line, &parse_error);
  if (!doc || !doc->is_object()) {
    return fail("stats reply is not a JSON object: " + parse_error);
  }
  const util::JsonValue* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string_value != kControlSchema) {
    return fail(std::string("stats reply schema mismatch (want ") +
                kControlSchema + ")");
  }
  const util::JsonValue* type = doc->find("type");
  if (type == nullptr || !type->is_string() || type->string_value != "stats") {
    return fail("not a stats reply");
  }

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
                           &field_error)) {
    return fail("malformed stats reply: " + field_error);
  }
  stats.latency_p50_ms = read_double(*doc, "latency_p50_ms");
  stats.latency_p99_ms = read_double(*doc, "latency_p99_ms");
  stats.uptime_seconds = read_double(*doc, "uptime_seconds");
  stats.draining = read_flag(*doc, "draining");
  if (const util::JsonValue* peers = doc->find("peers");
      peers != nullptr && peers->is_array()) {
    for (const util::JsonValue& entry : peers->array) {
      if (!entry.is_object()) continue;
      PeerStatus peer;
      if (!read_opt_string(entry, "addr", &peer.addr) ||
          !util::read_json_int(entry, "queue_depth", &peer.queue_depth,
                               &field_error) ||
          !util::read_json_int(entry, "active", &peer.active, &field_error)) {
        continue;
      }
      peer.age_seconds = read_double(entry, "age_seconds");
      const util::JsonValue* alive = entry.find("alive");
      peer.alive = alive == nullptr || !alive->is_bool() || alive->bool_value;
      stats.peers.push_back(std::move(peer));
    }
  }
  return stats;
}

}  // namespace sadp::api
