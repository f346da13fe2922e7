#include "engine/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

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

/// Required-field accessors; set `bad` instead of crashing on absent or
/// mistyped members (truncated crash-time lines must never be fatal).
const util::JsonValue* member(const util::JsonValue& doc, const char* key,
                              bool& bad) {
  const util::JsonValue* v = doc.find(key);
  if (v == nullptr) bad = true;
  return v;
}

std::string get_string(const util::JsonValue& doc, const char* key, bool& bad) {
  const util::JsonValue* v = member(doc, key, bad);
  if (v == nullptr || !v->is_string()) {
    bad = true;
    return {};
  }
  return v->string_value;
}

double get_number(const util::JsonValue& doc, const char* key, bool& bad) {
  const util::JsonValue* v = member(doc, key, bad);
  if (v == nullptr || !v->is_number()) {
    bad = true;
    return 0.0;
  }
  return v->number_value;
}

/// Optional numeric field: absent (journals written before the field
/// existed) reads as 0 without poisoning the record.
double get_number_or_zero(const util::JsonValue& doc, const char* key) {
  const util::JsonValue* v = doc.find(key);
  return (v != nullptr && v->is_number()) ? v->number_value : 0.0;
}

/// Required integer field through util::json_int: absent, mistyped,
/// fractional or out of range sets `bad` (and `why`, first failure only)
/// instead of reaching a cast.
template <typename Int>
void get_int(const util::JsonValue& doc, const char* key, Int* out, bool& bad,
             std::string& why) {
  const util::JsonValue* v = member(doc, key, bad);
  std::string error;
  if (v == nullptr || util::json_int(*v, key, out, &error)) return;
  bad = true;
  if (why.empty()) why = error;
}

/// Optional integer field: absent (journals written before the field
/// existed) reads as 0; present goes through the same check as get_int.
template <typename Int>
void get_int_or_zero(const util::JsonValue& doc, const char* key, Int* out,
                     bool& bad, std::string& why) {
  *out = 0;
  if (doc.find(key) != nullptr) get_int(doc, key, out, bad, why);
}

bool get_bool(const util::JsonValue& doc, const char* key, bool& bad) {
  const util::JsonValue* v = member(doc, key, bad);
  if (v == nullptr || !v->is_bool()) {
    bad = true;
    return false;
  }
  return v->bool_value;
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

void write_outcome_object(util::JsonWriter& json, const JobOutcome& outcome) {
  const core::ExperimentResult& r = outcome.result;
  json.begin_object();
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

  bool bad = false;
  if (get_string(doc, "schema", bad) != kJournalSchema || bad) {
    return fail("journal schema mismatch (want sadp.flow_journal.v1)");
  }

  JobOutcome outcome;
  // Absent in journals written before the field existed; those records were
  // executed rows by construction.
  {
    const util::JsonValue* v = doc.find("from_journal");
    outcome.from_journal = v != nullptr && v->is_bool() && v->bool_value;
  }
  outcome.label = get_string(doc, "label", bad);
  outcome.arm = get_string(doc, "arm", bad);

  const auto status = parse_job_status(get_string(doc, "status", bad));
  const auto style = grid::parse_style(get_string(doc, "style", bad));
  const auto method =
      core::parse_dvi_method(get_string(doc, "dvi_method", bad));
  const auto ilp_status = parse_solve_status(get_string(doc, "ilp_status", bad));
  if (bad || !status || !style || !method || !ilp_status) {
    return fail("malformed journal record for label '" + outcome.label + "'");
  }
  outcome.status = *status;
  outcome.style = *style;
  outcome.dvi_method = *method;
  outcome.error = util::Status(
      util::parse_status_code(get_string(doc, "error_code", bad)),
      get_string(doc, "error", bad));

  // Integer fields are checked, never cast: a row or journal record with
  // 1e30, 0.5 or -1 in a count is malformed, not undefined behaviour.
  std::string why;
  core::ExperimentResult& r = outcome.result;
  r.benchmark = get_string(doc, "benchmark", bad);
  r.routing.routed_all = get_bool(doc, "routed_all", bad);
  get_int(doc, "unrouted_nets", &r.routing.unrouted_nets, bad, why);
  get_int(doc, "wirelength", &r.routing.wirelength, bad, why);
  get_int(doc, "via_count", &r.routing.via_count, bad, why);
  get_int(doc, "rr_iterations", &r.routing.rr_iterations, bad, why);
  get_int(doc, "queue_peak", &r.routing.queue_peak, bad, why);
  get_int(doc, "maze_pops", &r.routing.maze_pops, bad, why);
  get_int(doc, "maze_relaxations", &r.routing.maze_relaxations, bad, why);
  get_int(doc, "maze_searches", &r.routing.maze_searches, bad, why);
  get_int(doc, "heap_reuse", &r.routing.heap_reuse, bad, why);
  get_int(doc, "fvp_cache_hits", &r.routing.fvp_cache_hits, bad, why);
  get_int_or_zero(doc, "maze_pops_p50", &r.routing.maze_pops_p50, bad, why);
  get_int_or_zero(doc, "maze_pops_p95", &r.routing.maze_pops_p95, bad, why);
  get_int_or_zero(doc, "maze_pops_max", &r.routing.maze_pops_max, bad, why);
  // Optional (absent = serial row, possibly from a pre-partition journal).
  {
    int partitions = 0;
    get_int_or_zero(doc, "partitions", &partitions, bad, why);
    r.routing.partitions = partitions > 0 ? partitions : 1;
    get_int_or_zero(doc, "partition_regions", &r.routing.partition_regions,
                    bad, why);
    get_int_or_zero(doc, "boundary_nets", &r.routing.boundary_nets, bad, why);
    r.routing.partition_seconds = get_number_or_zero(doc, "partition_seconds");
    r.routing.reconcile_seconds = get_number_or_zero(doc, "reconcile_seconds");
    // Absent on PR 8 journals (pre-breakdown) — restored as 0.
    r.routing.boundary_seconds = get_number_or_zero(doc, "boundary_seconds");
    r.routing.merge_seconds = get_number_or_zero(doc, "merge_seconds");
    r.routing.region_seconds_max =
        get_number_or_zero(doc, "region_seconds_max");
    r.routing.region_seconds_mean =
        get_number_or_zero(doc, "region_seconds_mean");
  }
  get_int(doc, "remaining_congestion", &r.routing.remaining_congestion, bad,
          why);
  get_int(doc, "remaining_fvps", &r.routing.remaining_fvps, bad, why);
  get_int(doc, "uncolorable_vias", &r.routing.uncolorable_vias, bad, why);
  get_int(doc, "single_vias", &r.single_vias, bad, why);
  get_int(doc, "dvi_candidates", &r.dvi_candidates, bad, why);
  get_int(doc, "dead_vias", &r.dvi.dead_vias, bad, why);
  get_int(doc, "uncolorable", &r.dvi.uncolorable, bad, why);
  r.ilp_status = *ilp_status;

  const util::JsonValue* inserted = doc.find("inserted");
  if (inserted == nullptr || !inserted->is_array()) bad = true;
  if (!bad) {
    r.dvi.inserted.reserve(inserted->array.size());
    for (const util::JsonValue& v : inserted->array) {
      int dvic = 0;
      std::string error;
      if (!util::json_int(v, "inserted", &dvic, &error)) {
        bad = true;
        if (why.empty()) why = error;
        break;
      }
      r.dvi.inserted.push_back(dvic);
    }
  }

  r.routing.route_seconds = get_number(doc, "route_seconds", bad);
  r.dvi.seconds = get_number(doc, "dvi_seconds", bad);
  outcome.metrics.total_seconds = get_number(doc, "total_seconds", bad);
  outcome.metrics.rr_iterations = r.routing.rr_iterations;
  outcome.metrics.queue_peak = r.routing.queue_peak;
  outcome.metrics.maze_pops = r.routing.maze_pops;
  outcome.metrics.maze_relaxations = r.routing.maze_relaxations;
  outcome.metrics.maze_searches = r.routing.maze_searches;
  outcome.metrics.heap_reuse = r.routing.heap_reuse;
  outcome.metrics.fvp_cache_hits = r.routing.fvp_cache_hits;
  outcome.metrics.maze_pops_p50 = r.routing.maze_pops_p50;
  outcome.metrics.maze_pops_p95 = r.routing.maze_pops_p95;
  outcome.metrics.maze_pops_max = r.routing.maze_pops_max;
  outcome.metrics.partitions = r.routing.partitions;
  outcome.metrics.partition_regions = r.routing.partition_regions;
  outcome.metrics.boundary_nets = r.routing.boundary_nets;
  outcome.metrics.partition_seconds = r.routing.partition_seconds;
  outcome.metrics.reconcile_seconds = r.routing.reconcile_seconds;
  outcome.metrics.boundary_seconds = r.routing.boundary_seconds;
  outcome.metrics.merge_seconds = r.routing.merge_seconds;
  outcome.metrics.region_seconds_max = r.routing.region_seconds_max;
  outcome.metrics.region_seconds_mean = r.routing.region_seconds_mean;

  if (bad) {
    return fail("malformed journal record for label '" + outcome.label + "'" +
                (why.empty() ? "" : ": " + why));
  }
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
