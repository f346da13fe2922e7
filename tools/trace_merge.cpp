// sadp_trace_merge — combine per-process Chrome traces into one fleet
// timeline.
//
// Each sadp process (--trace on sadp_routed, sadp_route_dispatch,
// sadp_route, the bench binaries, ...) writes its own
// sadp.flow_trace.v1 file with timestamps on its private process clock.
// This tool merges N such files into a single sadp.fleet_trace.v1 Chrome
// trace: every input becomes one pid row (named after its embedded process
// label, or the file's basename for traces without one), and timestamps
// are shifted onto a common timeline using each file's `clock_unix_us`
// anchor — the CLOCK_REALTIME instant at that process's uptime 0 (see
// obs/merge.hpp for the clock model and its accuracy bounds).
//
// Spans carry their trace context as string args ("trace_id"/"span_id"),
// so after merging, one request's dispatcher relay span, the serving
// daemon's admission/run spans, and the engine's per-job spans line up on
// one timeline and can be grepped/filtered by trace_id in the viewer.
//
//   sadp_trace_merge --out fleet.json d1.json d2.json dispatch.json
//
// Exit codes: 0 ok, 1 unreadable/invalid input or write failure, 2 bad
// usage.
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/merge.hpp"
#include "util/args.hpp"

namespace {

using namespace sadp;

std::optional<std::string> slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;

  util::ArgParser parser(
      "merge per-process sadp.flow_trace.v1 files into one fleet timeline");
  parser.add_string("--out", &out_path,
                    "output path for the merged sadp.fleet_trace.v1 JSON "
                    "(default: stdout)",
                    "FILE");
  parser.allow_positional("TRACE...");
  if (!parser.parse(argc, argv)) return 2;

  const std::vector<std::string>& inputs = parser.positional();
  if (inputs.empty()) {
    std::fprintf(stderr, "usage: sadp_trace_merge [--out FILE] TRACE...\n");
    return 2;
  }

  std::vector<obs::MergeInput> traces;
  traces.reserve(inputs.size());
  for (const std::string& path : inputs) {
    auto text = slurp(path);
    if (!text) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    traces.push_back(obs::MergeInput{path, std::move(*text)});
  }

  std::string merged;
  obs::MergeStats stats;
  const util::Status status = obs::merge_traces(traces, &merged, &stats);
  if (!status.is_ok()) {
    std::fprintf(stderr, "merge failed: %s\n", status.to_string().c_str());
    return 1;
  }

  if (out_path.empty()) {
    std::fputs(merged.c_str(), stdout);
    std::fputc('\n', stdout);
  } else {
    std::ofstream out(out_path);
    out << merged << '\n';
    out.flush();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
  }
  std::fprintf(stderr,
               "merged %zu process(es), %zu event(s); fleet epoch unix_us=%lld\n",
               stats.processes, stats.events,
               static_cast<long long>(stats.epoch_unix_us));
  return 0;
}
