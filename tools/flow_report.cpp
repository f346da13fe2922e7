// sadp_flow_report — digest a flow trace into human-readable summaries.
//
// Reads a sadp.flow_trace.v1 Chrome trace-event JSON (written by
// `sadp_route --trace` or any bench binary's --trace flag) and prints:
//
//   * a per-stage time breakdown (span name -> count / total / mean / max),
//   * the top-k slowest route_net spans (which nets dominate the runtime),
//   * a per-iteration convergence table from the "rr" counter track (FVPs,
//     violation-queue depth, congested vertices, cumulative maze pops,
//     history-cost sum), stride-sampled for the terminal and complete with
//     --csv FILE.
//
// With --metrics METRICS.json (a sadp.flow_metrics.v1 file from
// --json-report / bench_results/) it also prints the per-job summary rows
// including the maze-pop percentiles.  An id or count that is not an
// integer in range (1e30, -5.5) is invalid input, named by file, row or
// event, and field.
//
// --merge OUT TRACE... instead combines per-process traces (sadp_routed in
// either mode, sadp_route, the bench binaries) into one sadp.fleet_trace.v1
// timeline: one pid row per input, shifted onto a common clock by each
// file's `clock_unix_us` anchor (obs/merge.hpp).  Spans keep their
// trace_id/span_id args, so one request's relay, admission, run and job
// spans line up.  OUT "-" writes to stdout.
//
//   sadp_flow_report --trace trace.json --metrics bench_results/table3.json
//   sadp_flow_report --trace trace.json --top 20 --csv convergence.csv
//   sadp_flow_report --merge fleet.json d1.json d2.json dispatch.json
//
// Exit codes: 0 ok, 1 unreadable/invalid input or write failure, 2 bad
// usage.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/merge.hpp"
#include "util/args.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

using namespace sadp;

struct SpanRow {
  std::string name;
  int tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
  long long id = -1;
  bool has_id = false;
};

struct CounterRow {
  std::string track;
  int tid = 0;
  double ts_us = 0.0;
  std::vector<std::pair<std::string, double>> values;
};

struct Trace {
  std::map<int, std::string> thread_names;
  std::vector<SpanRow> spans;
  std::vector<CounterRow> counters;
};


double number_or(const util::JsonValue& obj, const char* key, double fallback) {
  const util::JsonValue* v = obj.find(key);
  return (v != nullptr && v->is_number()) ? v->number_value : fallback;
}

std::string string_or(const util::JsonValue& obj, const char* key) {
  const util::JsonValue* v = obj.find(key);
  return (v != nullptr && v->is_string()) ? v->string_value : std::string();
}

/// Parse and structurally validate one trace file; nullopt (with a message
/// on stderr) on any problem.
std::optional<Trace> load_trace(const std::string& path) {
  std::string text;
  if (!util::read_file(path, &text)) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::string error;
  const auto doc = util::parse_json(text, &error);
  if (!doc || !doc->is_object()) {
    std::fprintf(stderr, "%s: not valid JSON: %s\n", path.c_str(), error.c_str());
    return std::nullopt;
  }
  if (string_or(*doc, "schema") != "sadp.flow_trace.v1") {
    std::fprintf(stderr, "%s: schema mismatch (want sadp.flow_trace.v1)\n",
                 path.c_str());
    return std::nullopt;
  }
  const util::JsonValue* events = doc->find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "%s: missing traceEvents array\n", path.c_str());
    return std::nullopt;
  }

  Trace trace;
  for (const util::JsonValue& event : events->array) {
    if (!event.is_object()) continue;
    const std::string phase = string_or(event, "ph");
    const std::string name = string_or(event, "name");
    const util::JsonValue* args = event.find("args");
    // Ids go through util::json_int: 1e30 or 0.5 fails the file instead of
    // reaching a cast.
    const auto bad_event = [&] {
      std::fprintf(stderr, "%s: event '%s': %s\n", path.c_str(), name.c_str(),
                   error.c_str());
      return std::optional<Trace>();
    };
    int tid = 0;
    if (!util::read_json_int(event, "tid", &tid, &error)) return bad_event();

    if (phase == "M") {
      if (name == "thread_name" && args != nullptr) {
        trace.thread_names[tid] = string_or(*args, "name");
      }
      continue;
    }
    if (phase == "X") {
      SpanRow span;
      span.name = name;
      span.tid = tid;
      span.ts_us = number_or(event, "ts", 0.0);
      span.dur_us = number_or(event, "dur", 0.0);
      span.has_id = args != nullptr && args->find("id") != nullptr;
      if (span.has_id && !util::read_json_int(*args, "id", &span.id, &error)) {
        return bad_event();
      }
      trace.spans.push_back(std::move(span));
      continue;
    }
    if (phase == "C" && args != nullptr && args->is_object()) {
      CounterRow counter;
      counter.track = name;
      counter.tid = tid;
      counter.ts_us = number_or(event, "ts", 0.0);
      for (const auto& [key, value] : args->object) {
        if (value.is_number()) counter.values.emplace_back(key, value.number_value);
      }
      trace.counters.push_back(std::move(counter));
    }
  }
  return trace;
}

std::string thread_label(const Trace& trace, int tid) {
  const auto hit = trace.thread_names.find(tid);
  return hit != trace.thread_names.end() ? hit->second
                                         : "thread " + std::to_string(tid);
}

void print_stage_breakdown(const Trace& trace) {
  struct Agg {
    std::size_t count = 0;
    double total_us = 0.0;
    double max_us = 0.0;
  };
  std::map<std::string, Agg> by_name;
  for (const SpanRow& span : trace.spans) {
    Agg& agg = by_name[span.name];
    ++agg.count;
    agg.total_us += span.dur_us;
    agg.max_us = std::max(agg.max_us, span.dur_us);
  }
  std::vector<std::pair<std::string, Agg>> rows(by_name.begin(), by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_us > b.second.total_us;
  });

  std::printf("== stage breakdown (%zu spans) ==\n", trace.spans.size());
  util::TextTable table({"span", "count", "total(ms)", "mean(ms)", "max(ms)"});
  for (const auto& [name, agg] : rows) {
    table.begin_row();
    table.cell(name);
    table.cell(agg.count);
    table.cell(agg.total_us / 1000.0, 3);
    table.cell(agg.total_us / 1000.0 / static_cast<double>(agg.count), 3);
    table.cell(agg.max_us / 1000.0, 3);
  }
  table.print();
}

void print_slowest_nets(const Trace& trace, int top) {
  std::vector<const SpanRow*> nets;
  for (const SpanRow& span : trace.spans) {
    if (span.name == "route_net") nets.push_back(&span);
  }
  if (nets.empty()) {
    std::printf("\n(no route_net spans in the trace)\n");
    return;
  }
  std::sort(nets.begin(), nets.end(), [](const SpanRow* a, const SpanRow* b) {
    return a->dur_us > b->dur_us;
  });
  const std::size_t k = std::min<std::size_t>(static_cast<std::size_t>(top),
                                              nets.size());
  std::printf("\n== top %zu slowest route_net spans (of %zu) ==\n", k,
              nets.size());
  util::TextTable table({"rank", "net", "dur(ms)", "at(ms)", "thread"});
  for (std::size_t i = 0; i < k; ++i) {
    table.begin_row();
    table.cell(i + 1);
    table.cell(nets[i]->has_id ? std::to_string(nets[i]->id) : "?");
    table.cell(nets[i]->dur_us / 1000.0, 3);
    table.cell(nets[i]->ts_us / 1000.0, 1);
    table.cell(thread_label(trace, nets[i]->tid));
  }
  table.print();
}

/// The "rr" counter track of one thread, in record order (the per-thread
/// buffers preserve iteration order; ts ties are possible at µs resolution).
void print_convergence(const Trace& trace, const std::string& csv_path) {
  std::map<int, std::vector<const CounterRow*>> by_tid;
  for (const CounterRow& counter : trace.counters) {
    if (counter.track == "rr") by_tid[counter.tid].push_back(&counter);
  }
  if (by_tid.empty()) {
    std::printf("\n(no rr counter samples in the trace)\n");
    return;
  }

  // Column set = union of series keys, in first-seen order.
  std::vector<std::string> keys;
  for (const auto& [tid, rows] : by_tid) {
    for (const CounterRow* row : rows) {
      for (const auto& [key, value] : row->values) {
        if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
          keys.push_back(key);
        }
      }
    }
  }

  auto value_of = [](const CounterRow& row, const std::string& key) {
    for (const auto& [k, v] : row.values) {
      if (k == key) return v;
    }
    return 0.0;
  };

  constexpr std::size_t kMaxPrinted = 32;  // per thread; --csv has every row
  for (const auto& [tid, rows] : by_tid) {
    std::printf("\n== convergence: %s (%zu R&R iterations) ==\n",
                thread_label(trace, tid).c_str(), rows.size());
    std::vector<std::string> header{"iter", "t(ms)"};
    header.insert(header.end(), keys.begin(), keys.end());
    util::TextTable table(header);
    const std::size_t stride = std::max<std::size_t>(1, rows.size() / kMaxPrinted);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (i % stride != 0 && i + 1 != rows.size()) continue;  // keep last row
      table.begin_row();
      table.cell(i + 1);
      table.cell(rows[i]->ts_us / 1000.0, 1);
      for (const std::string& key : keys) table.cell(value_of(*rows[i], key), 0);
    }
    table.print();
    if (stride > 1) {
      std::printf("(every %zu-th iteration shown; --csv FILE for all)\n", stride);
    }
  }

  if (csv_path.empty()) return;
  std::ofstream csv(csv_path);
  if (!csv) {
    std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
    std::exit(1);
  }
  csv << "thread,iter,ts_us";
  for (const std::string& key : keys) csv << ',' << key;
  csv << '\n';
  for (const auto& [tid, rows] : by_tid) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      csv << tid << ',' << (i + 1) << ',' << rows[i]->ts_us;
      for (const std::string& key : keys) csv << ',' << value_of(*rows[i], key);
      csv << '\n';
    }
  }
  csv.flush();
  if (!csv) {
    std::fprintf(stderr, "short write to %s\n", csv_path.c_str());
    std::exit(1);
  }
  std::printf("\nwrote %s\n", csv_path.c_str());
}

/// One `results` element of a metrics file, as the tables print it.
struct JobRow {
  std::string label;
  std::string status;
  double total_seconds = 0.0;
  const util::JsonValue* stages = nullptr;
  std::size_t rr_iterations = 0;
  std::size_t pops_p50 = 0;
  std::size_t pops_p95 = 0;
  std::size_t pops_max = 0;
  int partitions = 0;
  std::size_t regions = 0;
  std::size_t boundary_nets = 0;
  double region_seconds_mean = 0.0;
  double region_seconds_max = 0.0;

  /// The `stages` member `key`, 0 when absent.
  [[nodiscard]] double stage(const char* key) const {
    return stages != nullptr ? number_or(*stages, key, 0.0) : 0.0;
  }
};

int print_metrics(const std::string& path) {
  std::string text;
  if (!util::read_file(path, &text)) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::string error;
  const auto doc = util::parse_json(text, &error);
  if (!doc || !doc->is_object()) {
    std::fprintf(stderr, "%s: not valid JSON: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  if (string_or(*doc, "schema") != "sadp.flow_metrics.v1") {
    std::fprintf(stderr, "%s: schema mismatch (want sadp.flow_metrics.v1)\n",
                 path.c_str());
    return 1;
  }
  const util::JsonValue* results = doc->find("results");
  if (results == nullptr || !results->is_array()) {
    std::fprintf(stderr, "%s: missing results array\n", path.c_str());
    return 1;
  }
  int workers = 0;
  if (!util::read_json_int(*doc, "workers", &workers, &error)) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
    return 1;
  }

  // Members are read by name, so files of every layout load.  Counts go
  // through util::json_int: 1e30 or -5.5 fails the file, naming the row.
  std::vector<JobRow> rows;
  for (const util::JsonValue& element : results->array) {
    if (!element.is_object()) continue;
    JobRow& row = rows.emplace_back();
    row.label = string_or(element, "label");
    row.status = string_or(element, "status");
    row.total_seconds = number_or(element, "total_seconds", 0.0);
    row.stages = element.find("stages");
    row.region_seconds_mean = number_or(element, "region_seconds_mean", 0.0);
    row.region_seconds_max = number_or(element, "region_seconds_max", 0.0);
    if (!util::read_json_int(element, "rr_iterations", &row.rr_iterations,
                             &error) ||
        !util::read_json_int(element, "maze_pops_p50", &row.pops_p50, &error) ||
        !util::read_json_int(element, "maze_pops_p95", &row.pops_p95, &error) ||
        !util::read_json_int(element, "maze_pops_max", &row.pops_max, &error) ||
        !util::read_json_int(element, "partitions", &row.partitions, &error) ||
        !util::read_json_int(element, "partition_regions", &row.regions,
                             &error) ||
        !util::read_json_int(element, "boundary_nets", &row.boundary_nets,
                             &error)) {
      std::fprintf(stderr, "%s: row '%s': %s\n", path.c_str(),
                   row.label.c_str(), error.c_str());
      return 1;
    }
  }

  std::printf("\n== jobs (%s, %d workers, %.2fs wall) ==\n", path.c_str(),
              workers, number_or(*doc, "wall_seconds", 0.0));
  util::TextTable table({"label", "status", "total(s)", "route(s)", "dvi(s)",
                         "rr_iters", "pops_p50", "pops_p95", "pops_max"});
  for (const JobRow& row : rows) {
    table.begin_row();
    table.cell(row.label);
    table.cell(row.status);
    table.cell(row.total_seconds, 2);
    table.cell(row.stage("route"), 2);
    table.cell(row.stage("dvi"), 2);
    table.cell(row.rr_iterations);
    table.cell(row.pops_p50);
    table.cell(row.pops_p95);
    table.cell(row.pops_max);
  }
  table.print();

  // Partition-parallel breakdown for jobs that ran sharded (the members are
  // only present when partitions > 1; serial rows are skipped).  imbalance
  // is region max/mean wall — the concurrent phase ends with the slowest
  // region, so a ratio well above 1 flags a lopsided cut.
  std::vector<const JobRow*> sharded;
  for (const JobRow& row : rows) {
    if (row.partitions > 1) sharded.push_back(&row);
  }
  if (!sharded.empty()) {
    std::printf("\n== partitioned jobs (%zu of %zu) ==\n", sharded.size(),
                results->array.size());
    util::TextTable ptable({"label", "regions", "bnets", "boundary(s)",
                            "partition(s)", "merge(s)", "reconcile(s)",
                            "imbalance"});
    for (const JobRow* row : sharded) {
      const double mean = row->region_seconds_mean;
      ptable.begin_row();
      ptable.cell(row->label);
      ptable.cell(row->regions);
      ptable.cell(row->boundary_nets);
      ptable.cell(row->stage("boundary"), 3);
      ptable.cell(row->stage("partition"), 3);
      ptable.cell(row->stage("merge"), 3);
      ptable.cell(row->stage("reconcile"), 3);
      ptable.cell(mean > 0.0 ? row->region_seconds_max / mean : 0.0, 2);
    }
    ptable.print();
  }
  return 0;
}

/// --merge: the traces at `inputs` as one fleet timeline at `out_path`.
int merge(const std::string& out_path, const std::vector<std::string>& inputs) {
  std::vector<obs::MergeInput> traces;
  traces.reserve(inputs.size());
  for (const std::string& path : inputs) {
    std::string text;
    if (!util::read_file(path, &text)) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    traces.push_back(obs::MergeInput{path, std::move(text)});
  }
  std::string merged;
  obs::MergeStats stats;
  if (const util::Status status = obs::merge_traces(traces, &merged, &stats);
      !status.is_ok()) {
    std::fprintf(stderr, "merge failed: %s\n", status.to_string().c_str());
    return 1;
  }
  merged += '\n';
  if (out_path == "-") {
    std::fputs(merged.c_str(), stdout);
  } else if (const util::Status written = util::atomic_write_file(out_path, merged);
             !written.is_ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                 written.to_string().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "merged %zu process(es), %zu event(s); fleet epoch unix_us=%lld\n",
               stats.processes, stats.events,
               static_cast<long long>(stats.epoch_unix_us));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string metrics_path;
  std::string csv_path;
  int top = 10;

  util::ArgParser parser(
      "summarize a sadp.flow_trace.v1 trace (and optional flow metrics)");
  parser.add_string("--trace", &trace_path,
                    "trace JSON from sadp_route/bench --trace", "FILE");
  parser.add_string("--metrics", &metrics_path,
                    "sadp.flow_metrics.v1 JSON for per-job summary rows",
                    "FILE");
  parser.add_int("--top", &top, "slowest route_net spans to list", "N");
  parser.add_string("--csv", &csv_path,
                    "write the full per-iteration convergence table", "FILE");
  std::string merge_path;
  parser.add_string("--merge", &merge_path,
                    "merge the TRACE files into one sadp.fleet_trace.v1 "
                    "timeline at FILE (- for stdout) instead of summarizing",
                    "FILE");
  parser.allow_positional("TRACE...");
  if (!parser.parse(argc, argv)) return 2;
  if (parser.given("--merge")) {
    for (const char* flag : {"--trace", "--metrics", "--top", "--csv"}) {
      if (parser.given(flag)) {
        std::fprintf(stderr, "%s summarizes a trace, not --merge\n", flag);
        return 2;
      }
    }
    if (parser.positional().empty()) {
      std::fprintf(stderr, "--merge FILE needs at least one TRACE\n");
      return 2;
    }
    return merge(merge_path, parser.positional());
  }
  if (!parser.positional().empty()) {
    std::fprintf(stderr, "TRACE arguments need --merge FILE\n");
    return 2;
  }
  if (trace_path.empty()) {
    std::fprintf(stderr, "--trace FILE is required\n");
    return 2;
  }
  if (top < 1) top = 1;

  const auto trace = load_trace(trace_path);
  if (!trace) return 1;

  print_stage_breakdown(*trace);
  print_slowest_nets(*trace, top);
  print_convergence(*trace, csv_path);
  if (!metrics_path.empty()) return print_metrics(metrics_path);
  return 0;
}
