#include "obs/merge.hpp"

#include <cmath>
#include <utility>

#include "util/json.hpp"

namespace sadp::obs {

namespace {

/// Re-emit a parsed value verbatim.  The parser keeps numbers as double;
/// integral values within the exact range are written back as integers so
/// ts/dur/counter values round-trip without a ".0" or exponent form.
void emit_value(util::JsonWriter& json, const util::JsonValue& value) {
  using Type = util::JsonValue::Type;
  switch (value.type) {
    case Type::kNull:
      // Never produced by the trace writer; degrade to 0 rather than fail.
      json.value(0);
      break;
    case Type::kBool:
      json.value(value.bool_value);
      break;
    case Type::kNumber: {
      const double number = value.number_value;
      if (std::floor(number) == number && std::abs(number) <= 9.007199254740992e15) {
        json.value(static_cast<long long>(number));
      } else {
        json.value(number);
      }
      break;
    }
    case Type::kString:
      json.value(value.string_value);
      break;
    case Type::kArray:
      json.begin_array();
      for (const util::JsonValue& element : value.array) {
        emit_value(json, element);
      }
      json.end_array();
      break;
    case Type::kObject:
      json.begin_object();
      for (const auto& [key, member] : value.object) {
        json.key(key);
        emit_value(json, member);
      }
      json.end_object();
      break;
  }
}

/// Copy one trace event, overriding pid and shifting ts.  False (with the
/// field error in *error) when a numeric ts is not an in-range integer.
[[nodiscard]] bool emit_event(util::JsonWriter& json,
                              const util::JsonValue& event, int pid,
                              std::int64_t shift_us, std::string* error) {
  json.begin_object();
  bool saw_pid = false;
  for (const auto& [key, member] : event.object) {
    if (key == "pid") {
      json.key("pid").value(pid);
      saw_pid = true;
    } else if (key == "ts" && member.is_number()) {
      std::int64_t ts = 0;
      if (!util::json_int(member, "ts", &ts, error)) return false;
      json.key("ts").value(static_cast<long long>(ts + shift_us));
    } else {
      json.key(key);
      emit_value(json, member);
    }
  }
  if (!saw_pid) json.key("pid").value(pid);
  json.end_object();
  return true;
}

[[nodiscard]] bool is_process_name_meta(const util::JsonValue& event) {
  const util::JsonValue* name = event.find("name");
  const util::JsonValue* phase = event.find("ph");
  return name != nullptr && name->is_string() &&
         name->string_value == "process_name" && phase != nullptr &&
         phase->is_string() && phase->string_value == "M";
}

[[nodiscard]] std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

struct ParsedInput {
  util::JsonValue doc;
  const util::JsonValue* events = nullptr;
  std::string label;
  std::int64_t anchor_us = 0;
  bool has_anchor = false;
};

}  // namespace

util::Status merge_traces(const std::vector<MergeInput>& inputs,
                          std::string* out_json, MergeStats* stats) {
  if (inputs.empty()) {
    return util::Status::invalid_input("no trace files to merge");
  }

  std::vector<ParsedInput> parsed;
  parsed.reserve(inputs.size());
  for (const MergeInput& input : inputs) {
    std::string error;
    std::optional<util::JsonValue> doc = util::parse_json(input.text, &error);
    if (!doc || !doc->is_object()) {
      return util::Status::invalid_input(
          input.path + ": not a JSON trace document" +
          (error.empty() ? "" : " (" + error + ")"));
    }
    ParsedInput item;
    item.doc = std::move(*doc);
    item.events = item.doc.find("traceEvents");
    if (item.events == nullptr || !item.events->is_array()) {
      return util::Status::invalid_input(input.path +
                                         ": missing traceEvents array");
    }
    const util::JsonValue* anchor = item.doc.find("clock_unix_us");
    if (anchor != nullptr && anchor->is_number()) {
      if (!util::json_int(*anchor, "clock_unix_us", &item.anchor_us, &error)) {
        return util::Status::invalid_input(input.path + ": " + error);
      }
      item.has_anchor = true;
    }
    const util::JsonValue* process = item.doc.find("process");
    item.label = process != nullptr && process->is_string()
                     ? process->string_value
                     : basename_of(input.path);
    parsed.push_back(std::move(item));
  }

  // The fleet epoch: the earliest process start among anchored inputs.
  // Unanchored (pre-fleet) inputs stay unshifted on that epoch.
  std::int64_t epoch_us = 0;
  bool have_epoch = false;
  for (const ParsedInput& item : parsed) {
    if (!item.has_anchor) continue;
    if (!have_epoch || item.anchor_us < epoch_us) epoch_us = item.anchor_us;
    have_epoch = true;
  }

  util::JsonWriter json;
  json.begin_object();
  json.key("schema").value(kFleetTraceSchema);
  json.key("displayTimeUnit").value("ms");
  json.key("clock_unix_us").value(static_cast<long long>(epoch_us));
  json.key("processes").value(parsed.size());
  json.key("traceEvents").begin_array();
  std::size_t total_events = 0;
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    const ParsedInput& item = parsed[i];
    const int pid = static_cast<int>(i) + 1;
    const std::int64_t shift_us =
        item.has_anchor ? item.anchor_us - epoch_us : 0;

    // One process_name metadata event per input, from the resolved label;
    // the input's own (if any) is dropped so each pid is named exactly once.
    json.begin_object();
    json.key("name").value("process_name");
    json.key("ph").value("M");
    json.key("pid").value(pid);
    json.key("args").begin_object();
    json.key("name").value(item.label);
    json.end_object();
    json.end_object();

    for (const util::JsonValue& event : item.events->array) {
      if (!event.is_object() || is_process_name_meta(event)) continue;
      if (std::string error; !emit_event(json, event, pid, shift_us, &error)) {
        return util::Status::invalid_input(inputs[i].path + ": " + error);
      }
      ++total_events;
    }
  }
  json.end_array();
  json.end_object();

  *out_json = json.str();
  if (stats != nullptr) {
    stats->processes = parsed.size();
    stats->events = total_events;
    stats->epoch_unix_us = epoch_us;
  }
  return util::Status::ok();
}

}  // namespace sadp::obs
