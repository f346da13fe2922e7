#include "engine/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "grid/colored_grid.hpp"
#include "util/crc32.hpp"
#include "util/failpoint.hpp"
#include "util/json.hpp"

namespace {
// Fault sites (util/failpoint.hpp).  Zero-cost unless armed.
sadp::util::FailPoint g_fp_journal_append("journal.append");
sadp::util::FailPoint g_fp_journal_sync("journal.sync");
}  // namespace

namespace sadp::engine {

namespace {

std::optional<ilp::SolveStatus> parse_solve_status(const std::string& name) {
  for (const ilp::SolveStatus s :
       {ilp::SolveStatus::kOptimal, ilp::SolveStatus::kFeasible,
        ilp::SolveStatus::kInfeasible, ilp::SolveStatus::kUnknown}) {
    if (name == ilp::solve_status_name(s)) return s;
  }
  return std::nullopt;
}

/// The members every record carries: absent means malformed.  The others
/// are absent on journals written before they existed and keep their
/// defaults: from_journal, the maze pop percentiles and the partition
/// members (a serial row).
constexpr const char* kRequiredMembers[] = {
    "label", "arm", "status", "error_code", "error", "benchmark", "style",
    "dvi_method", "routed_all", "unrouted_nets", "wirelength", "via_count",
    "rr_iterations", "queue_peak", "maze_pops", "maze_relaxations",
    "maze_searches", "heap_reuse", "fvp_cache_hits", "remaining_congestion",
    "remaining_fvps", "uncolorable_vias", "single_vias", "dvi_candidates",
    "dead_vias", "uncolorable", "ilp_status", "inserted", "route_seconds",
    "dvi_seconds", "total_seconds"};

/// The `inserted` member: DVIC indices, each a checked int.  Absent
/// succeeds, as with util's readers.
bool read_inserted(const util::JsonValue& doc, std::vector<int>* out,
                   std::string* error) {
  const util::JsonValue* inserted = doc.find("inserted");
  if (inserted == nullptr) return true;
  if (!inserted->is_array()) {
    *error = "field 'inserted' must be an array";
    return false;
  }
  out->reserve(inserted->array.size());
  for (const util::JsonValue& v : inserted->array) {
    int dvic = 0;
    if (!util::json_int(v, "inserted", &dvic, error)) return false;
    out->push_back(dvic);
  }
  return true;
}

}  // namespace

std::optional<JobStatus> parse_job_status(const std::string& name) noexcept {
  for (const JobStatus s : {JobStatus::kOk, JobStatus::kDegraded,
                            JobStatus::kFailed, JobStatus::kTimeout,
                            JobStatus::kCancelled}) {
    if (name == job_status_name(s)) return s;
  }
  return std::nullopt;
}

void write_outcome_members(util::JsonWriter& json, const JobOutcome& outcome) {
  const core::ExperimentResult& r = outcome.result;
  json.key("schema").value(kJournalSchema);
  json.key("from_journal").value(outcome.from_journal);
  json.key("label").value(outcome.label);
  json.key("arm").value(outcome.arm);
  json.key("status").value(job_status_name(outcome.status));
  json.key("error_code").value(util::status_code_name(outcome.error.code()));
  json.key("error").value(outcome.error.message());
  json.key("benchmark").value(r.benchmark);
  json.key("style").value(grid::style_name(outcome.style));
  json.key("dvi_method").value(core::dvi_method_name(outcome.dvi_method));
  json.key("routed_all").value(r.routing.routed_all);
  json.key("unrouted_nets").value(r.routing.unrouted_nets);
  json.key("wirelength").value(r.routing.wirelength);
  json.key("via_count").value(r.routing.via_count);
  json.key("rr_iterations").value(r.routing.rr_iterations);
  json.key("queue_peak").value(r.routing.queue_peak);
  json.key("maze_pops").value(r.routing.maze_pops);
  json.key("maze_relaxations").value(r.routing.maze_relaxations);
  json.key("maze_searches").value(r.routing.maze_searches);
  json.key("heap_reuse").value(r.routing.heap_reuse);
  json.key("fvp_cache_hits").value(r.routing.fvp_cache_hits);
  json.key("maze_pops_p50").value(r.routing.maze_pops_p50);
  json.key("maze_pops_p95").value(r.routing.maze_pops_p95);
  json.key("maze_pops_max").value(r.routing.maze_pops_max);
  // Partition members only for partitioned jobs, keeping serial rows (and
  // their cache replays) byte-identical to pre-partition journals.
  if (r.routing.partitions > 1) {
    json.key("partitions").value(r.routing.partitions);
    json.key("partition_regions").value(r.routing.partition_regions);
    json.key("boundary_nets").value(r.routing.boundary_nets);
    json.key("partition_seconds").value(r.routing.partition_seconds);
    json.key("reconcile_seconds").value(r.routing.reconcile_seconds);
    json.key("boundary_seconds").value(r.routing.boundary_seconds);
    json.key("merge_seconds").value(r.routing.merge_seconds);
    json.key("region_seconds_max").value(r.routing.region_seconds_max);
    json.key("region_seconds_mean").value(r.routing.region_seconds_mean);
  }
  json.key("remaining_congestion").value(r.routing.remaining_congestion);
  json.key("remaining_fvps").value(r.routing.remaining_fvps);
  json.key("uncolorable_vias").value(r.routing.uncolorable_vias);
  json.key("single_vias").value(r.single_vias);
  json.key("dvi_candidates").value(r.dvi_candidates);
  json.key("dead_vias").value(r.dvi.dead_vias);
  json.key("uncolorable").value(r.dvi.uncolorable);
  json.key("ilp_status").value(ilp::solve_status_name(r.ilp_status));
  json.key("inserted").begin_array();
  for (const int dvic : r.dvi.inserted) json.value(dvic);
  json.end_array();
  // Timing is informational only; resume comparisons ignore it.
  json.key("route_seconds").value(r.routing.route_seconds);
  json.key("dvi_seconds").value(r.dvi.seconds);
  json.key("total_seconds").value(outcome.metrics.total_seconds);
}

void write_outcome_object(util::JsonWriter& json, const JobOutcome& outcome) {
  json.begin_object();
  write_outcome_members(json, outcome);
  json.end_object();
}

std::string journal_line(const JobOutcome& outcome) {
  util::JsonWriter json;
  write_outcome_object(json, outcome);
  return json.str();
}

std::optional<JobOutcome> parse_outcome_object(const util::JsonValue& doc,
                                               std::string* error) {
  auto fail = [&](const std::string& what) -> std::optional<JobOutcome> {
    if (error != nullptr) *error = what;
    return std::nullopt;
  };
  if (!doc.is_object()) return fail("outcome record is not a JSON object");

  std::string why;
  std::string schema;
  if (!util::read_string(doc, "schema", &schema, &why) ||
      schema != kJournalSchema) {
    return fail("journal schema mismatch (want sadp.flow_journal.v1)");
  }

  // Integer members are checked, never cast: a row or journal record with
  // 1e30, 0.5 or -1 in a count is malformed, not undefined behaviour.  The
  // chain stops at the first member of the wrong type, whose reason is
  // `why`; the label comes first because the error names it.
  JobOutcome outcome;
  core::ExperimentResult& r = outcome.result;
  core::RoutingReport& routing = r.routing;
  std::string status, error_code, message, style, method, ilp_status;
  const bool read =
      util::read_string(doc, "label", &outcome.label, &why) &&
      util::read_bool(doc, "from_journal", &outcome.from_journal, &why) &&
      util::read_string(doc, "arm", &outcome.arm, &why) &&
      util::read_string(doc, "status", &status, &why) &&
      util::read_string(doc, "error_code", &error_code, &why) &&
      util::read_string(doc, "error", &message, &why) &&
      util::read_string(doc, "benchmark", &r.benchmark, &why) &&
      util::read_string(doc, "style", &style, &why) &&
      util::read_string(doc, "dvi_method", &method, &why) &&
      util::read_bool(doc, "routed_all", &routing.routed_all, &why) &&
      util::read_json_int(doc, "unrouted_nets", &routing.unrouted_nets, &why) &&
      util::read_json_int(doc, "wirelength", &routing.wirelength, &why) &&
      util::read_json_int(doc, "via_count", &routing.via_count, &why) &&
      util::read_json_int(doc, "rr_iterations", &routing.rr_iterations, &why) &&
      util::read_json_int(doc, "queue_peak", &routing.queue_peak, &why) &&
      util::read_json_int(doc, "maze_pops", &routing.maze_pops, &why) &&
      util::read_json_int(doc, "maze_relaxations", &routing.maze_relaxations,
                          &why) &&
      util::read_json_int(doc, "maze_searches", &routing.maze_searches, &why) &&
      util::read_json_int(doc, "heap_reuse", &routing.heap_reuse, &why) &&
      util::read_json_int(doc, "fvp_cache_hits", &routing.fvp_cache_hits,
                          &why) &&
      util::read_json_int(doc, "maze_pops_p50", &routing.maze_pops_p50, &why) &&
      util::read_json_int(doc, "maze_pops_p95", &routing.maze_pops_p95, &why) &&
      util::read_json_int(doc, "maze_pops_max", &routing.maze_pops_max, &why) &&
      util::read_json_int(doc, "partitions", &routing.partitions, &why) &&
      util::read_json_int(doc, "partition_regions", &routing.partition_regions,
                          &why) &&
      util::read_json_int(doc, "boundary_nets", &routing.boundary_nets, &why) &&
      util::read_number(doc, "partition_seconds", &routing.partition_seconds,
                        &why) &&
      util::read_number(doc, "reconcile_seconds", &routing.reconcile_seconds,
                        &why) &&
      util::read_number(doc, "boundary_seconds", &routing.boundary_seconds,
                        &why) &&
      util::read_number(doc, "merge_seconds", &routing.merge_seconds, &why) &&
      util::read_number(doc, "region_seconds_max", &routing.region_seconds_max,
                        &why) &&
      util::read_number(doc, "region_seconds_mean",
                        &routing.region_seconds_mean, &why) &&
      util::read_json_int(doc, "remaining_congestion",
                          &routing.remaining_congestion, &why) &&
      util::read_json_int(doc, "remaining_fvps", &routing.remaining_fvps,
                          &why) &&
      util::read_json_int(doc, "uncolorable_vias", &routing.uncolorable_vias,
                          &why) &&
      util::read_json_int(doc, "single_vias", &r.single_vias, &why) &&
      util::read_json_int(doc, "dvi_candidates", &r.dvi_candidates, &why) &&
      util::read_json_int(doc, "dead_vias", &r.dvi.dead_vias, &why) &&
      util::read_json_int(doc, "uncolorable", &r.dvi.uncolorable, &why) &&
      util::read_string(doc, "ilp_status", &ilp_status, &why) &&
      read_inserted(doc, &r.dvi.inserted, &why) &&
      util::read_number(doc, "route_seconds", &routing.route_seconds, &why) &&
      util::read_number(doc, "dvi_seconds", &r.dvi.seconds, &why) &&
      util::read_number(doc, "total_seconds", &outcome.metrics.total_seconds,
                        &why);
  const bool complete =
      std::all_of(std::begin(kRequiredMembers), std::end(kRequiredMembers),
                  [&doc](const char* key) { return doc.find(key) != nullptr; });
  const auto parsed_status = parse_job_status(status);
  const auto parsed_style = grid::parse_style(style);
  const auto parsed_method = core::parse_dvi_method(method);
  const auto parsed_ilp = parse_solve_status(ilp_status);
  if (!read || !complete || !parsed_status || !parsed_style || !parsed_method ||
      !parsed_ilp) {
    return fail("malformed journal record for label '" + outcome.label + "'" +
                (why.empty() ? "" : ": " + why));
  }
  outcome.status = *parsed_status;
  outcome.style = *parsed_style;
  outcome.dvi_method = *parsed_method;
  outcome.error = util::Status(util::parse_status_code(error_code), message);
  r.ilp_status = *parsed_ilp;
  // Serial rows never carry `partitions`; a count below 1 reads as serial.
  routing.partitions = std::max(routing.partitions, 1);
  static_cast<core::RoutingReport&>(outcome.metrics) = routing;
  outcome.metrics.dvi_seconds = r.dvi.seconds;
  return outcome;
}

namespace {

/// Format a CRC-32 as the 8 lowercase hex digits of the v2 suffix.
std::string crc_hex(std::uint32_t crc) {
  static const char* kDigits = "0123456789abcdef";
  std::string hex(8, '0');
  for (int i = 7; i >= 0; --i) {
    hex[static_cast<std::size_t>(i)] = kDigits[crc & 0xFu];
    crc >>= 4;
  }
  return hex;
}

/// Parse the `#xxxxxxxx` suffix position: returns npos for bare-v1 lines.
/// The object's last byte is '}', so the suffix separator is the last '#'
/// after the final '}' — journal objects cannot contain an unescaped '#'
/// after the closing brace.
std::size_t checksum_split(std::string_view line) noexcept {
  const std::size_t hash = line.rfind('#');
  const std::size_t brace = line.rfind('}');
  if (hash == std::string_view::npos) return std::string_view::npos;
  if (brace != std::string_view::npos && hash < brace) {
    return std::string_view::npos;  // '#' inside the object text: v1
  }
  return hash;
}

bool parse_crc_hex(std::string_view hex, std::uint32_t* out) noexcept {
  if (hex.size() != 8) return false;
  std::uint32_t value = 0;
  for (const char ch : hex) {
    value <<= 4;
    if (ch >= '0' && ch <= '9') {
      value |= static_cast<std::uint32_t>(ch - '0');
    } else if (ch >= 'a' && ch <= 'f') {
      value |= static_cast<std::uint32_t>(ch - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = value;
  return true;
}

}  // namespace

std::string journal_record_line(const JobOutcome& outcome) {
  std::string object = journal_line(outcome);
  object += '#';
  object += crc_hex(util::crc32(object.substr(0, object.size() - 1)));
  return object;
}

std::optional<JobOutcome> parse_journal_line(std::string_view line,
                                             std::string* error,
                                             bool* corrupt) {
  if (corrupt != nullptr) *corrupt = false;

  std::string_view object = line;
  bool checksummed = false;
  if (const std::size_t split = checksum_split(line);
      split != std::string_view::npos) {
    std::uint32_t stored = 0;
    if (!parse_crc_hex(line.substr(split + 1), &stored)) {
      if (error != nullptr) *error = "malformed journal checksum suffix";
      return std::nullopt;
    }
    object = line.substr(0, split);
    if (util::crc32(object) != stored) {
      // The record parses but the bytes rotted (or a torn tail was later
      // overwritten): classify as corrupt, not torn.
      if (corrupt != nullptr) *corrupt = true;
      if (error != nullptr) *error = "journal record checksum mismatch";
      return std::nullopt;
    }
    checksummed = true;
  }

  std::string parse_error;
  std::optional<JobOutcome> outcome;
  if (const auto doc = util::parse_json(object, &parse_error)) {
    outcome = parse_outcome_object(*doc, &parse_error);
  } else {
    parse_error = "not a JSON object: " + parse_error;
  }
  if (!outcome) {
    // The CRC held, so these are the bytes the writer meant: a record that
    // still does not decode is corrupt, not a torn tail.
    if (corrupt != nullptr) *corrupt = checksummed;
    if (error != nullptr) *error = parse_error;
    return std::nullopt;
  }
  // Whatever the record said, a row read back from the journal file is a
  // restored row.
  outcome->from_journal = true;
  return outcome;
}

// ---------------------------------------------------------------------------
// JournalWriter

JournalWriter::~JournalWriter() { close(); }

void JournalWriter::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

util::Status JournalWriter::open(const std::string& path, JournalSync sync) {
  close();
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    return util::Status::internal("cannot open journal '" + path +
                                  "' for appending: " + std::strerror(errno));
  }
  path_ = path;
  sync_ = sync;
  return util::Status::ok();
}

util::Status JournalWriter::write_all(std::string_view data) {
  std::size_t injected_cap = data.size();
  if (const util::FailDecision fail = g_fp_journal_append.evaluate(); fail) {
    if (fail.kind == util::FailKind::kError) {
      return util::Status::internal("failpoint(journal.append): injected "
                                    "write error on '" +
                                    path_ + "'");
    }
    if (fail.kind == util::FailKind::kShort) {
      // Emulate a torn record: persist only half the bytes, then report
      // the short write exactly as the real ::write path below would.
      injected_cap = data.size() / 2;
    }
  }

  std::size_t written = 0;
  while (written < data.size()) {
    const std::size_t want = std::min(data.size(), injected_cap) - written;
    ssize_t wrote = want == 0
                        ? 0
                        : ::write(fd_, data.data() + written, want);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return util::Status::internal(
          "journal append to '" + path_ + "' failed after " +
          std::to_string(written) + "/" + std::to_string(data.size()) +
          " bytes: " + std::strerror(errno));
    }
    if (wrote == 0) {
      return util::Status::internal(
          "short write to journal '" + path_ + "' (" +
          std::to_string(written) + "/" + std::to_string(data.size()) +
          " bytes reached the file)");
    }
    written += static_cast<std::size_t>(wrote);
  }
  return util::Status::ok();
}

util::Status JournalWriter::sync_now() {
  if (const util::FailDecision fail = g_fp_journal_sync.evaluate();
      fail.kind == util::FailKind::kError) {
    return util::Status::internal("failpoint(journal.sync): injected fsync "
                                  "error on '" +
                                  path_ + "'");
  }
  if (::fsync(fd_) != 0) {
    return util::Status::internal("fsync of journal '" + path_ +
                                  "' failed: " + std::strerror(errno));
  }
  return util::Status::ok();
}

util::Status JournalWriter::append(const JobOutcome& outcome) {
  if (fd_ < 0) {
    return util::Status::internal("journal writer is not open");
  }
  std::string record = journal_record_line(outcome);
  record += '\n';
  const util::Status wrote = write_all(record);
  if (!wrote.is_ok()) {
    // Best-effort re-frame: terminate whatever partial bytes made it out
    // so the torn record cannot swallow the next one.  Load skips the torn
    // line either way; this just bounds the damage to one record.
    const ssize_t ignored [[maybe_unused]] = ::write(fd_, "\n", 1);
    return wrote;
  }
  if (sync_ == JournalSync::kAlways) return sync_now();
  return util::Status::ok();
}

util::Status JournalWriter::finish() {
  if (fd_ < 0) return util::Status::ok();
  if (sync_ == JournalSync::kBatch) return sync_now();
  return util::Status::ok();
}

util::Status append_journal(const std::string& path, const JobOutcome& outcome) {
  JournalWriter writer;
  if (const util::Status opened = writer.open(path, JournalSync::kNone);
      !opened.is_ok()) {
    return opened;
  }
  return writer.append(outcome);
}

std::map<std::string, JobOutcome> load_journal(const std::string& path,
                                               JournalLoadStats* stats) {
  std::map<std::string, JobOutcome> records;
  JournalLoadStats local;
  std::ifstream in(path);
  if (in) {
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      ++local.lines;
      bool corrupt = false;
      auto outcome = parse_journal_line(line, nullptr, &corrupt);
      // Malformed lines (e.g. the torn tail of a crashed run) are skipped;
      // the matching job simply re-executes.
      if (!outcome) {
        if (corrupt) {
          ++local.skipped_corrupt;
        } else {
          ++local.skipped_torn;
        }
        continue;
      }
      ++local.records;
      if (checksum_split(line) == std::string_view::npos) ++local.legacy_v1;
      records[outcome->label] = std::move(*outcome);
    }
  }
  if (stats != nullptr) *stats = local;
  return records;
}

}  // namespace sadp::engine
