// bench_e2e — one seeded end-to-end benchmark of the router, DVI, ECO and
// service paths, with per-layer attribution.
//
// Each invocation runs one workload in this process through the entry
// points users call — api::dispatch, api::dispatch_delta, and a RouteServer
// over loopback through server::run_remote / run_remote_delta — and prints
// one JSON document of raw samples (schema sadp.bench_e2e.v1) as its last
// stdout line.  run_benchmark.py builds this binary and turns the samples
// into the metrics BENCHMARK.json names.
//
//   bench_e2e --workload NAME --seed S --seconds T [--trace]
//   bench_e2e --smoke     all four workloads at toy sizes, with checks and
//                         tracing; exits 0 only when every check passes
//
// Workloads (README.md gives the reason for each):
//   route_10x    one ecc_10x-sized FlowRequest per unit, closed loop
//   dvi_exact    one 4-job exact-DVI FlowRequest per unit, closed loop
//   eco_stream   one single-edit FlowDeltaRequest against a routed ecc_10x
//                base per unit, closed loop
//   service_mix  seeded open-loop Poisson mix of cache hits, misses and
//                deltas against an in-process RouteServer
//
// A run sets its inputs up kSetupRepeats times (setup_s is their median)
// and times units for --seconds.  Every distinct input also gets one
// untimed check unit through the full validators, and every timed unit
// must repeat its check unit's WL/#vias/#DV.  With --trace the first half
// of the window is timed untraced and the second half under an
// obs::TraceSession; the spans, the server's histograms and standalone
// calls into each module give the per-layer numbers.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/flow_api.hpp"
#include "api/flow_delta.hpp"
#include "core/dvi_exact.hpp"
#include "core/eco.hpp"
#include "core/router.hpp"
#include "core/solution_io.hpp"
#include "core/validate.hpp"
#include "engine/journal.hpp"
#include "netlist/bench_gen.hpp"
#include "obs/trace.hpp"
#include "server/route_client.hpp"
#include "server/route_server.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace sadp;

constexpr int kSetupRepeats = 3;
/// Rows of the traced self-time table must add up to the unit's wall time
/// within this share.
constexpr double kAttributionTolerance = 0.02;
/// service_mix latency limit: a request slower than this misses its SLO.
constexpr double kSloMs = 100.0;

/// Every per-layer metric bench_e2e reports; a workload that does not
/// exercise a layer reports 0 for it.
const char* const kLayerNames[] = {
    "netlist.generate_ms",       "router.construct_ms",
    "job.unattributed_ms",       "router.initial_ms",
    "router.congestion_rr_ms",   "router.tpl_rr_ms",
    "router.coloring_ms",        "router.rr_iterations",
    "maze.pops",                 "maze.relaxations",
    "maze.searches",             "maze.pops_p95",
    "maze.ns_per_pop",           "dvi.build_problem_ms",
    "dvi.solve_ms",              "dvi.single_vias",
    "dvi.candidates",            "dvi.exact_nodes",
    "dvi.proven_optimal_frac",   "solution.parse_ms",
    "eco.apply_ms",              "eco.load_ms",
    "eco.ripup_ms",              "eco.reroute_ms",
    "eco.nets_ripped_p50",       "eco.rip_ratio",
    "engine.overhead_ms",        "api.request_bytes",
    "api.parse_request_us",      "api.parse_delta_us",
    "api.parse_response_us",     "server.admission_wait_mean_ms",
    "server.run_mean_ms",        "server.flush_mean_ms",
    "server.rejected",           "server.window_peak_rss_mb",
    "cache.hit_rate",            "cache.hit_p50_ms",
    "cache.miss_p50_ms",         "delta.p50_ms",
    "gen.late_p99_ms",           "trace.overhead_frac",
    "trace.rows_sum_error_frac", "quality.wirelength",
    "quality.via_count",         "quality.dead_vias",
};

// ---------------------------------------------------------------------------
// Small helpers

/// Linear-interpolation percentile (q in [0, 1]); 0 for no values.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double at = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(at));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (at - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

/// Wall time of each of `repeats` calls of `fn`, in milliseconds times
/// `scale`.
template <class F>
std::vector<double> sample_ms(int repeats, F&& fn, double scale = 1.0) {
  std::vector<double> samples;
  for (int i = 0; i < repeats; ++i) {
    const util::Timer timer;
    fn();
    samples.push_back(timer.millis() * scale);
  }
  return samples;
}

/// A generator seed for input `what` of run seed `seed`.  Kept below 2^53:
/// request JSON carries numbers as doubles, so a larger spec seed would
/// reach the server rounded and name a different design.
std::uint64_t derive_seed(int seed, const std::string& what) {
  std::uint64_t state = static_cast<std::uint64_t>(seed) ^ util::fnv1a(what);
  const std::uint64_t value = util::splitmix64(state) >> 12;
  return value == 0 ? 1 : value;
}

int worker_threads() {
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
}

/// fn(0), ..., fn(count - 1) on `threads` threads, each taking the next
/// index as it frees up.  The first exception fn throws is rethrown here
/// once every thread has stopped.
void parallel_for(std::size_t count, int threads,
                  const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex failure_mutex;
  std::exception_ptr failure;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      try {
        for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) fn(i);
      } catch (...) {
        next = count;
        const std::lock_guard<std::mutex> lock(failure_mutex);
        if (!failure) failure = std::current_exception();
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  if (failure) std::rethrow_exception(failure);
}

/// Return the memory that set-up and check units freed to the system, then
/// restart the kernel's peak-RSS count (VmHWM) at the current RSS, so that
/// peak_rss_mb() covers only what runs after this call.  getrusage's
/// ru_maxrss cannot be restarted: it keeps the peak of the set-up and of
/// every thread that has exited.
void reset_peak_rss() {
  ::malloc_trim(0);
  std::FILE* file = std::fopen("/proc/self/clear_refs", "w");
  const bool ok = file != nullptr && std::fputs("5", file) >= 0;
  if (file != nullptr && std::fclose(file) != 0) throw std::runtime_error("clear_refs");
  if (!ok) throw std::runtime_error("cannot reset the peak RSS via /proc/self/clear_refs");
}

double peak_rss_mb() {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof line, file) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld", &kib) == 1) break;
  }
  std::fclose(file);
  if (kib < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return static_cast<double>(kib) / 1024.0;
}

std::string num(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string num_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += num(values[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------------------
// Inputs

netlist::BenchSpec named_spec(const std::string& name) {
  const auto spec = netlist::spec_for(name, /*scaled=*/true);
  if (!spec) throw std::runtime_error("unknown benchmark " + name);
  return *spec;
}

netlist::BenchSpec shaped_spec(const std::string& name, int width, int height,
                               int nets) {
  netlist::BenchSpec spec;
  spec.name = name;
  spec.width = width;
  spec.height = height;
  spec.num_nets = nets;
  return spec;
}

/// Input sizes of every workload: full_sizes() is the benchmark,
/// smoke_sizes() the toy inputs of --smoke.
///
/// The routed designs of route_10x, dvi_exact and the two ECO bases are
/// the named instances (generator seed derived from the name), whatever
/// --seed is: over random instances of one size the maze work of ecc_10x
/// varies by +-18 % and exact-DVI time by more than 10x, which would bury any
/// regression bound.  --seed draws everything that varies cheaply
/// instead: most ECO edits, fresh designs, deltas and arrival times.
struct Sizes {
  netlist::BenchSpec route;              ///< route_10x design
  std::vector<netlist::BenchSpec> dvi;   ///< the dvi_exact pass
  netlist::BenchSpec eco_base;           ///< eco_stream base design
  int eco_edits = 0;                     ///< seeded eco_stream edits
  int pool_designs = 0;                  ///< service_mix warmed pool
  netlist::BenchSpec service_design;     ///< service pool / fresh shape
  netlist::BenchSpec delta_base;         ///< service_mix delta base
  double rate_rps = 0.0;                 ///< service_mix arrival rate
};

Sizes full_sizes() {
  Sizes s;
  s.route = named_spec("ecc_10x");
  // alu_s and top_s are left out: their exact DVI stops on the clock, not on
  // node limits, so their time would measure the limit.
  for (const char* name : {"ecc_s", "efc_s", "ctl_s", "div_s"}) {
    s.dvi.push_back(named_spec(name));
  }
  s.eco_base = named_spec("ecc_10x");
  s.eco_edits = 16;
  s.pool_designs = 32;
  s.service_design = shaped_spec("svc", 48, 48, 24);
  s.delta_base = named_spec("ecc_s");
  s.rate_rps = 50.0;
  return s;
}

Sizes smoke_sizes() {
  Sizes s;
  s.route = shaped_spec("smoke_route", 64, 64, 40);
  for (int i = 0; i < 4; ++i) {
    s.dvi.push_back(shaped_spec("smoke_dvi" + std::to_string(i), 48, 48, 24));
  }
  s.eco_base = shaped_spec("smoke_eco", 64, 64, 40);
  s.eco_edits = 2;
  s.pool_designs = 4;
  s.service_design = shaped_spec("smoke_svc", 32, 32, 8);
  s.delta_base = shaped_spec("smoke_delta", 48, 48, 24);
  s.rate_rps = 40.0;
  return s;
}

/// The service's default arm, which every workload but dvi_exact routes
/// with: SIM, DVI- and TPL-aware routing, heuristic DVI, serial (K = 1).
api::JobRequest job_for(const netlist::BenchSpec& spec, std::string label) {
  api::JobRequest job;
  job.label = std::move(label);
  job.spec = spec;
  job.style = grid::SadpStyle::kSim;
  job.consider_dvi = true;
  job.consider_tpl = true;
  job.dvi_method = core::DviMethod::kHeuristic;
  return job;
}

/// Pin cells of a netlist, for drawing edits that keep the generator's pin
/// spacing: pins closer than that can form an FVP no routing removes.
class PinMap {
 public:
  explicit PinMap(const netlist::PlacedNetlist& netlist)
      : width_(netlist.width), height_(netlist.height),
        taken_(static_cast<std::size_t>(netlist.width) * netlist.height, 0) {
    for (const auto& net : netlist.nets) {
      for (const auto& pin : net.pins) taken_[index(pin.at)] = 1;
    }
  }

  [[nodiscard]] bool inside(grid::Point p) const {
    return p.x >= 0 && p.y >= 0 && p.x < width_ && p.y < height_;
  }

  /// No pin other than `ignore` lies within Chebyshev distance `reach` of
  /// the inclusive rect lo..hi.
  [[nodiscard]] bool clear(grid::Point lo, grid::Point hi, int reach,
                           grid::Point ignore = {-1, -1}) const {
    for (int y = lo.y - reach; y <= hi.y + reach; ++y) {
      for (int x = lo.x - reach; x <= hi.x + reach; ++x) {
        const grid::Point p{x, y};
        if (!inside(p) || p == ignore) continue;
        if (taken_[index(p)]) return false;
      }
    }
    return true;
  }

 private:
  [[nodiscard]] std::size_t index(grid::Point p) const {
    return static_cast<std::size_t>(p.y) * width_ + p.x;
  }

  int width_;
  int height_;
  std::vector<char> taken_;
};

/// Spacing the generator keeps between pins (BenchSpec::min_pin_spacing).
constexpr int kPinSpacing = 3;

/// One seeded edit against `base`.  move_pin moves a pin 1-4 cells to a
/// cell that keeps the pin spacing; add_net adds a local 2-pin net;
/// add_blockage blocks a 2x2-4x4 rect with no pin within two cells;
/// remove_net removes a net.  Kinds that find no legal placement in 500
/// draws fall back to remove_net, which is always legal.
core::EcoChange draw_change(core::EcoChange::Kind kind,
                            const netlist::PlacedNetlist& base,
                            const PinMap& pins, util::Xoshiro256StarStar& rng) {
  using Kind = core::EcoChange::Kind;
  core::EcoChange change;
  change.kind = kind;
  for (int attempt = 0; attempt < 500; ++attempt) {
    if (kind == Kind::kMovePin) {
      const auto& net = base.nets[rng.below(base.nets.size())];
      const int pin = static_cast<int>(rng.below(net.pins.size()));
      const grid::Point at = net.pins[static_cast<std::size_t>(pin)].at;
      const int radius = static_cast<int>(rng.range(1, 4));
      const int dx = static_cast<int>(rng.range(-1, 1));
      const int dy = static_cast<int>(rng.range(-1, 1));
      if (dx == 0 && dy == 0) continue;
      const grid::Point to{at.x + dx * radius, at.y + dy * radius};
      if (!pins.inside(to) || !pins.clear(to, to, kPinSpacing - 1, at)) {
        continue;
      }
      change.net = net.id;
      change.pin = pin;
      change.to = to;
      return change;
    }
    if (kind == Kind::kAddNet) {
      const grid::Point a{static_cast<int>(rng.range(0, base.width - 1)),
                          static_cast<int>(rng.range(0, base.height - 1))};
      const grid::Point b{a.x + static_cast<int>(rng.range(-6, 6)),
                          a.y + static_cast<int>(rng.range(-6, 6))};
      if (!pins.inside(b) || grid::chebyshev(a, b) < kPinSpacing) continue;
      if (!pins.clear(a, a, kPinSpacing - 1) ||
          !pins.clear(b, b, kPinSpacing - 1)) {
        continue;
      }
      change.name = "eco_add";
      change.pins = {a, b};
      return change;
    }
    if (kind == Kind::kAddBlockage) {
      const int w = static_cast<int>(rng.range(2, 4));
      const int h = static_cast<int>(rng.range(2, 4));
      const grid::Point lo{static_cast<int>(rng.range(0, base.width - w)),
                           static_cast<int>(rng.range(0, base.height - h))};
      const grid::Point hi{lo.x + w - 1, lo.y + h - 1};
      if (!pins.clear(lo, hi, 2)) continue;
      change.rect_lo = lo;
      change.rect_hi = hi;
      return change;
    }
    break;
  }
  change = core::EcoChange{};
  change.kind = Kind::kRemoveNet;
  change.net = static_cast<grid::NetId>(rng.below(base.nets.size()));
  return change;
}

/// The edit mix: 60 % move_pin, 15 % add_net, 15 % add_blockage, 10 %
/// remove_net, as a 20-slot table so every seed gets the same proportions.
core::EcoChange::Kind mix_kind(int slot) {
  using Kind = core::EcoChange::Kind;
  static const Kind kTable[20] = {
      Kind::kMovePin,  Kind::kAddNet,      Kind::kMovePin,     Kind::kMovePin,
      Kind::kAddBlockage, Kind::kMovePin,  Kind::kRemoveNet,   Kind::kMovePin,
      Kind::kAddNet,   Kind::kMovePin,     Kind::kAddBlockage, Kind::kMovePin,
      Kind::kMovePin,  Kind::kAddNet,      Kind::kMovePin,     Kind::kAddBlockage,
      Kind::kMovePin,  Kind::kRemoveNet,   Kind::kMovePin,     Kind::kMovePin};
  return kTable[static_cast<std::size_t>(slot) % 20];
}

core::EcoChange::Kind random_kind(util::Xoshiro256StarStar& rng) {
  return mix_kind(static_cast<int>(rng.below(20)));
}

// ---------------------------------------------------------------------------
// Results and checks

struct Quality {
  long long wirelength = 0;
  long long via_count = 0;
  long long dead_vias = 0;

  bool operator==(const Quality&) const = default;
  Quality& operator+=(const Quality& other) {
    wirelength += other.wirelength;
    via_count += other.via_count;
    dead_vias += other.dead_vias;
    return *this;
  }
};

Quality quality_of(const core::ExperimentResult& result) {
  return {result.routing.wirelength, result.routing.via_count,
          result.dvi.dead_vias};
}

/// Counters and stage times of one executed unit, summed over its jobs.
struct UnitStats {
  double wall_ms = 0.0;  ///< the timed call
  double job_ms = 0.0;   ///< sum of the jobs' own total_seconds
  double initial_ms = 0.0;
  double congestion_rr_ms = 0.0;
  double tpl_rr_ms = 0.0;
  double coloring_ms = 0.0;
  double rr_iterations = 0.0;
  double maze_pops = 0.0;
  double maze_relaxations = 0.0;
  double maze_searches = 0.0;
  double maze_pops_p95 = 0.0;  ///< max over the unit's jobs
  double single_vias = 0.0;
  double candidates = 0.0;
  double nets_ripped = 0.0;  ///< ECO units only
  double rip_ratio = 0.0;    ///< ECO units only
  std::size_t input = 0;     ///< which distinct input the unit ran
  std::vector<Quality> quality;  ///< per job, checked after the window
  std::vector<std::string> issues;

  void add(const engine::JobOutcome& outcome) {
    quality.push_back(quality_of(outcome.result));
    const engine::StageMetrics& m = outcome.metrics;
    job_ms += m.total_seconds * 1e3;
    initial_ms += m.initial_routing_seconds * 1e3;
    congestion_rr_ms += m.congestion_rr_seconds * 1e3;
    tpl_rr_ms += m.tpl_rr_seconds * 1e3;
    coloring_ms += m.coloring_seconds * 1e3;
    rr_iterations += static_cast<double>(m.rr_iterations);
    maze_pops += static_cast<double>(m.maze_pops);
    maze_relaxations += static_cast<double>(m.maze_relaxations);
    maze_searches += static_cast<double>(m.maze_searches);
    maze_pops_p95 = std::max(maze_pops_p95, static_cast<double>(m.maze_pops_p95));
    single_vias += outcome.result.single_vias;
    candidates += static_cast<double>(outcome.result.dvi_candidates);
  }
};

struct Report {
  std::string workload;
  int seed = 0;
  double seconds = 0.0;
  bool traced = false;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;
  std::vector<double> setup_s;
  std::vector<double> latency_ms;         ///< untraced timed units
  std::vector<double> traced_latency_ms;  ///< traced timed units
  /// Untraced timed units that passed their checks and, in service_mix,
  /// finished within kSloMs of their due instant.
  long long slo_met = 0;
  Quality quality;  ///< summed over every distinct input
  /// Summed over the inputs that are the same on every seed (named
  /// designs, the ECO base and reference edits, the service pool), so two
  /// runs of one commit agree exactly.
  Quality fixed_quality;
  /// Per-layer samples (per unit or per repeat); the metric is their median.
  std::map<std::string, std::vector<double>> layers;
  std::map<std::string, double> self_ms;  ///< traced self-time rows, mean per unit
  double unit_ms = 0.0;                   ///< mean traced unit wall time
  /// Peak RSS of the process over the timed window (service_mix: over its
  /// set-up).
  double peak_rss_mb = 0.0;

  Report() {
    for (const char* name : kLayerNames) layers[name] = {0.0};
  }

  void set_layer(const std::string& name, std::vector<double> samples) {
    const auto it = layers.find(name);
    if (it == layers.end()) throw std::logic_error("unknown layer " + name);
    if (!samples.empty()) it->second = std::move(samples);
  }
  void set_layer(const std::string& name, double value) {
    set_layer(name, std::vector<double>{value});
  }

  /// Count one unit; it fails when `issues` is non-empty.
  void record(const std::string& what, const std::vector<std::string>& issues) {
    ++attempted;
    if (issues.empty()) return;
    ++failed;
    for (const std::string& issue : issues) {
      std::fprintf(stderr, "[bench_e2e] check failed: %s: %s\n", what.c_str(),
                   issue.c_str());
      if (failures.size() < 20) failures.push_back(what + ": " + issue);
    }
  }

  [[nodiscard]] std::string to_json() const {
    std::string out = "{\"schema\":\"sadp.bench_e2e.v1\"";
    out += ",\"workload\":\"" + workload + "\"";
    out += ",\"seed\":" + std::to_string(seed);
    out += ",\"seconds\":" + num(seconds);
    out += std::string(",\"trace\":") + (traced ? "true" : "false");
    out += ",\"attempted\":" + std::to_string(attempted);
    out += ",\"failed\":" + std::to_string(failed);
    out += ",\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      if (i > 0) out += ',';
      out += "\"" + util::JsonWriter::escape(failures[i]) + "\"";
    }
    out += "],\"setup_s\":" + num_array(setup_s);
    out += ",\"latency_ms\":" + num_array(latency_ms);
    out += ",\"traced_latency_ms\":" + num_array(traced_latency_ms);
    out += ",\"slo_met\":" + std::to_string(slo_met);
    out += ",\"peak_rss_mb\":" + num(peak_rss_mb);
    const auto quality_json = [](const Quality& q) {
      return "{\"wirelength\":" + std::to_string(q.wirelength) +
             ",\"via_count\":" + std::to_string(q.via_count) +
             ",\"dead_vias\":" + std::to_string(q.dead_vias) + "}";
    };
    out += ",\"quality\":" + quality_json(quality);
    out += ",\"fixed_quality\":" + quality_json(fixed_quality);
    const auto object = [](const auto& values, const auto& format) {
      std::string text = "{";
      for (const auto& [name, value] : values) {
        if (text.size() > 1) text += ',';
        text += "\"" + name + "\":" + format(value);
      }
      return text + "}";
    };
    out += ",\"layers\":" + object(layers, num_array);
    out += ",\"self_ms\":" + object(self_ms, num);
    out += ",\"unit_ms\":" + num(unit_ms);
    return out + "}";
  }
};

/// Invariants every unit must satisfy (ROADMAP: 100 % routability, no
/// residual FVP, no uncolorable via in the TPL-aware arm).
std::vector<std::string> unit_issues(const engine::JobOutcome& outcome) {
  std::vector<std::string> issues;
  const std::string who = outcome.label + ": ";
  if (!outcome.ok()) {
    issues.push_back(who + "status " + engine::job_status_name(outcome.status) +
                     " " + outcome.error.to_string());
  }
  const core::RoutingReport& routing = outcome.result.routing;
  if (!routing.routed_all) issues.push_back(who + "not every net routed");
  if (routing.remaining_fvps != 0) {
    issues.push_back(who + std::to_string(routing.remaining_fvps) +
                     " residual FVPs");
  }
  if (routing.uncolorable_vias != 0 || outcome.result.dvi.uncolorable != 0) {
    issues.push_back(who + "uncolorable vias");
  }
  return issues;
}

/// The check unit's full validation: DRC/turn/connectivity/TPL validators
/// on the routed design and check_dvi_solution on the DVI stage, whose
/// problem is rebuilt from `dvi_nets` exactly as the flow built it.
std::vector<std::string> full_issues(const engine::JobOutcome& outcome,
                                     const netlist::PlacedNetlist& netlist,
                                     const std::vector<core::RoutedNet>& dvi_nets) {
  std::vector<std::string> issues = unit_issues(outcome);
  if (!outcome.router) {
    issues.push_back(outcome.label + ": no router kept");
    return issues;
  }
  const core::SadpRouter& router = *outcome.router;
  for (const auto& issue : core::validate_routing(router, netlist, true)) {
    issues.push_back(outcome.label + ": " + issue.what);
  }
  const core::DviProblem problem = core::build_dvi_problem(
      dvi_nets, router.routing_grid(), router.turn_rules());
  const core::DviResult& dvi = outcome.result.dvi;
  if (dvi.inserted.size() != static_cast<std::size_t>(problem.num_vias()) ||
      outcome.dvi_inserted_at.size() != dvi.inserted.size()) {
    issues.push_back(outcome.label + ": DVI result does not match its problem");
    return issues;
  }
  for (const auto& issue : core::check_dvi_solution(router, problem, dvi.inserted,
                                                    outcome.dvi_inserted_at)) {
    issues.push_back(outcome.label + ": " + issue.what);
  }
  return issues;
}

std::vector<std::string> flow_full_issues(const engine::JobOutcome& outcome,
                                          const netlist::PlacedNetlist& netlist) {
  if (!outcome.router) return {outcome.label + ": no router kept"};
  return full_issues(outcome, netlist, outcome.router->nets());
}

/// Full validation of a kept-router ECO result: the edited netlist is
/// re-derived with apply_eco_changes, and DVI covers the ripped subset.
std::vector<std::string> delta_full_issues(const api::DeltaDispatchResult& run,
                                           const netlist::PlacedNetlist& base,
                                           const std::vector<core::EcoChange>& changes) {
  if (!run.status.is_ok()) return {"delta rejected: " + run.status.to_string()};
  if (!run.outcome.router) return {run.outcome.label + ": no router kept"};
  core::EcoEditOutcome edit;
  if (const util::Status applied = core::apply_eco_changes(base, changes, &edit);
      !applied.is_ok()) {
    return {"edit rejected: " + applied.to_string()};
  }
  std::vector<core::RoutedNet> subset;
  for (const grid::NetId id : run.summary.ripped_ids) {
    subset.push_back(run.outcome.router->nets()[static_cast<std::size_t>(id)]);
  }
  return full_issues(run.outcome, edit.edited, subset);
}

std::vector<std::string> same_quality(const std::string& what, const Quality& got,
                                      const Quality& want) {
  if (got == want) return {};
  return {what + ": WL/#vias/#DV " + std::to_string(got.wirelength) + "/" +
          std::to_string(got.via_count) + "/" + std::to_string(got.dead_vias) +
          " differ from the check unit's " + std::to_string(want.wirelength) +
          "/" + std::to_string(want.via_count) + "/" +
          std::to_string(want.dead_vias)};
}

// ---------------------------------------------------------------------------
// Trace analysis

/// Self-time row of a span name: the enclosing dispatch call outside any
/// job, the job envelope outside its stages, or the span's own name.
std::string row_name(const std::string& span) {
  if (span == "bench.unit") return "dispatch.outside_job";
  if (span.rfind("job:", 0) == 0 || span.rfind("eco:", 0) == 0) {
    return "job.unattributed";
  }
  return span;
}

/// Span facts of one traced unit: its wall time, the self time of every
/// span inside it by row, and inclusive time by span name.  A span's self
/// time is its duration minus its direct children's, so the rows of a unit
/// add up to the unit's wall time when the spans nest.
struct UnitTrace {
  double wall_ms = 0.0;
  std::map<std::string, double> self_ms;
  std::map<std::string, double> inclusive_ms;
};

/// Split a Chrome trace into units: every span for which `is_root` holds,
/// with the spans nested inside it on the same thread.
std::vector<UnitTrace> unit_traces(
    const std::string& trace_json,
    const std::function<bool(const std::string&)>& is_root) {
  struct Event {
    std::string name;
    std::int64_t tid = 0;
    std::int64_t ts = 0;
    std::int64_t dur = 0;
    std::int64_t child_us = 0;
    int unit = -1;
  };
  std::string error;
  const auto doc = util::parse_json(trace_json, &error);
  const util::JsonValue* list = doc ? doc->find("traceEvents") : nullptr;
  if (list == nullptr || !list->is_array()) {
    throw std::runtime_error("unreadable trace: " + error);
  }
  std::vector<Event> events;
  for (const util::JsonValue& item : list->array) {
    const util::JsonValue* ph = item.find("ph");
    if (ph == nullptr || ph->string_value != "X") continue;
    Event event;
    event.name = item.find("name")->string_value;
    event.tid = static_cast<std::int64_t>(item.find("tid")->number_value);
    event.ts = static_cast<std::int64_t>(item.find("ts")->number_value);
    event.dur = static_cast<std::int64_t>(item.find("dur")->number_value);
    events.push_back(std::move(event));
  }
  // Parents open before their children and, on a tie, last longer.
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.dur > b.dur;
  });
  std::vector<std::size_t> open;
  std::vector<int> parent(events.size(), -1);
  std::map<int, UnitTrace> units;
  for (std::size_t i = 0; i < events.size(); ++i) {
    Event& event = events[i];
    while (!open.empty()) {
      const Event& top = events[open.back()];
      if (top.tid == event.tid && event.ts + event.dur <= top.ts + top.dur) break;
      open.pop_back();
    }
    if (!open.empty()) {
      parent[i] = static_cast<int>(open.back());
      events[open.back()].child_us += event.dur;
    }
    event.unit = is_root(event.name) ? static_cast<int>(i)
                 : parent[i] >= 0   ? events[static_cast<std::size_t>(parent[i])].unit
                                    : -1;
    if (event.unit == static_cast<int>(i)) units[event.unit].wall_ms = event.dur / 1e3;
    open.push_back(i);
  }
  for (const Event& event : events) {
    if (event.unit < 0) continue;
    UnitTrace& unit = units[event.unit];
    unit.self_ms[row_name(event.name)] +=
        static_cast<double>(std::max<std::int64_t>(0, event.dur - event.child_us)) / 1e3;
    unit.inclusive_ms[event.name] += event.dur / 1e3;
  }
  std::vector<UnitTrace> out;
  for (auto& [index, unit] : units) out.push_back(std::move(unit));
  return out;
}

bool is_unit_span(const std::string& name) { return name == "bench.unit"; }

bool is_job_span(const std::string& name) {
  return name.rfind("job:", 0) == 0 || name.rfind("eco:", 0) == 0;
}

/// Per-layer numbers every closed-loop workload derives the same way: span
/// times from the traced units, counters and stage times from the
/// untraced ones.
void layers_from_units(Report& rep, const std::vector<UnitStats>& untraced,
                       const std::vector<UnitTrace>& traced) {
  const auto each = [](const auto& items, auto field) {
    std::vector<double> values;
    for (const auto& item : items) values.push_back(field(item));
    return values;
  };
  const std::pair<const char*, double UnitStats::*> kCounters[] = {
      {"router.initial_ms", &UnitStats::initial_ms},
      {"router.congestion_rr_ms", &UnitStats::congestion_rr_ms},
      {"router.tpl_rr_ms", &UnitStats::tpl_rr_ms},
      {"router.coloring_ms", &UnitStats::coloring_ms},
      {"router.rr_iterations", &UnitStats::rr_iterations},
      {"maze.pops", &UnitStats::maze_pops},
      {"maze.relaxations", &UnitStats::maze_relaxations},
      {"maze.searches", &UnitStats::maze_searches},
      {"maze.pops_p95", &UnitStats::maze_pops_p95},
      {"dvi.single_vias", &UnitStats::single_vias},
      {"dvi.candidates", &UnitStats::candidates},
      {"eco.nets_ripped_p50", &UnitStats::nets_ripped},
      {"eco.rip_ratio", &UnitStats::rip_ratio},
  };
  for (const auto& [name, field] : kCounters) {
    rep.set_layer(name, each(untraced, [field](const UnitStats& u) { return u.*field; }));
  }
  rep.set_layer("engine.overhead_ms",
                each(untraced, [](const UnitStats& u) { return u.wall_ms - u.job_ms; }));

  const auto span_ms = [&](const std::string& name) {
    return each(traced, [&](const UnitTrace& u) {
      const auto it = u.inclusive_ms.find(name);
      return it == u.inclusive_ms.end() ? 0.0 : it->second;
    });
  };
  rep.set_layer("netlist.generate_ms", span_ms("generate"));
  rep.set_layer("dvi.build_problem_ms", span_ms("build_dvi_problem"));
  rep.set_layer("dvi.solve_ms", span_ms("dvi"));
  rep.set_layer("eco.load_ms", span_ms("eco.load"));
  rep.set_layer("eco.ripup_ms", span_ms("eco.ripup"));
  rep.set_layer("eco.reroute_ms", span_ms("eco.reroute"));
  const double pops =
      median(each(untraced, [](const UnitStats& u) { return u.maze_pops; }));
  rep.set_layer("maze.ns_per_pop", each(span_ms("route_net"), [&](double ms) {
                  return pops > 0 ? ms * 1e6 / pops : 0.0;
                }));
  rep.set_layer("job.unattributed_ms", each(traced, [](const UnitTrace& u) {
                  const auto it = u.self_ms.find("job.unattributed");
                  return it == u.self_ms.end() ? 0.0 : it->second;
                }));

  // The self-time table (means, which add up like the rows of each unit)
  // and the check that every unit's rows add up to its wall time.
  double worst = 0.0;
  const double units = static_cast<double>(std::max<std::size_t>(1, traced.size()));
  for (const UnitTrace& unit : traced) {
    double sum = 0.0;
    for (const auto& [row, ms] : unit.self_ms) {
      rep.self_ms[row] += ms / units;
      sum += ms;
    }
    rep.unit_ms += unit.wall_ms / units;
    if (unit.wall_ms > 0) {
      worst = std::max(worst, std::abs(sum - unit.wall_ms) / unit.wall_ms);
    }
  }
  rep.set_layer("trace.rows_sum_error_frac", worst);
  rep.record("trace attribution",
             worst <= kAttributionTolerance
                 ? std::vector<std::string>{}
                 : std::vector<std::string>{"self-time rows miss the unit wall by " +
                                            num(worst * 100) + " %"});
  const double plain = median(rep.latency_ms);
  rep.set_layer("trace.overhead_frac",
                plain > 0 ? median(rep.traced_latency_ms) / plain - 1.0 : 0.0);
}

void set_quality_layers(Report& rep) {
  rep.set_layer("quality.wirelength", static_cast<double>(rep.quality.wirelength));
  rep.set_layer("quality.via_count", static_cast<double>(rep.quality.via_count));
  rep.set_layer("quality.dead_vias", static_cast<double>(rep.quality.dead_vias));
}

// ---------------------------------------------------------------------------
// Shared timing loops

struct Options {
  std::string workload;
  int seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Run `setup` kSetupRepeats times, recording each wall time in
/// rep.setup_s; the last result is the one the run uses.
template <class F>
auto timed_setup(Report& rep, F&& setup) {
  decltype(setup()) result;
  for (int i = 0; i < kSetupRepeats; ++i) {
    result = {};  // the previous repetition's inputs do not stay alive
    const util::Timer timer;
    result = setup();
    rep.setup_s.push_back(timer.seconds());
  }
  return result;
}

/// Time units back to back for `seconds` (at least `min_units`).  `unit`
/// times its own call, so checks after the call stay untimed.
std::vector<UnitStats> closed_loop(double seconds, int min_units, int* next,
                                   const std::function<UnitStats(int)>& unit) {
  std::vector<UnitStats> stats;
  const util::Timer window;
  while (window.seconds() < seconds || static_cast<int>(stats.size()) < min_units) {
    stats.push_back(unit((*next)++));
  }
  return stats;
}

/// The timed window of a closed-loop workload.  Untraced, units run back to
/// back for the whole window; with --trace the first half runs untraced
/// and the second half under `session`, which stays installed for the
/// caller's standalone calls.  The check units have run and released
/// their routers before the window opens.
struct TimedPhase {
  std::vector<UnitStats> untraced;
  std::vector<UnitStats> traced;
};

TimedPhase closed_loop_phase(const Options& opt, Report& rep,
                             obs::TraceSession& session,
                             const std::function<UnitStats(int)>& unit) {
  TimedPhase phase;
  int next = 0;
  reset_peak_rss();
  phase.untraced = closed_loop(opt.trace ? opt.seconds / 2 : opt.seconds,
                               opt.trace ? 2 : 3, &next, unit);
  if (opt.trace) {
    session.install();
    phase.traced = closed_loop(opt.seconds / 2, 2, &next, unit);
  }
  rep.peak_rss_mb = peak_rss_mb();
  for (const UnitStats& s : phase.untraced) rep.latency_ms.push_back(s.wall_ms);
  for (const UnitStats& s : phase.traced) rep.traced_latency_ms.push_back(s.wall_ms);
  return phase;
}

/// Record every timed unit, with its own issues and any WL/#vias/#DV that
/// differ from its input's check unit.
void record_units(Report& rep, const TimedPhase& phase,
                  const std::vector<std::vector<Quality>>& expected) {
  int count = 0;
  for (const auto* units : {&phase.untraced, &phase.traced}) {
    for (const UnitStats& unit : *units) {
      std::vector<std::string> issues = unit.issues;
      const std::vector<Quality>& want = expected.at(unit.input);
      if (unit.quality.size() != want.size()) {
        issues.push_back(std::to_string(unit.quality.size()) + " rows, expected " +
                         std::to_string(want.size()));
      } else {
        for (std::size_t j = 0; j < want.size(); ++j) {
          for (auto& issue : same_quality("row " + std::to_string(j),
                                          unit.quality[j], want[j])) {
            issues.push_back(std::move(issue));
          }
        }
      }
      if (units == &phase.untraced && issues.empty()) ++rep.slo_met;
      rep.record("unit " + std::to_string(count++), issues);
    }
  }
}

/// Close the traced window: uninstall `session` and derive the per-layer
/// numbers from its spans and the untraced units.
void finish_trace(const Options& opt, Report& rep, obs::TraceSession& session,
                  const TimedPhase& phase) {
  if (!opt.trace) return;
  session.uninstall();
  layers_from_units(rep, phase.untraced, unit_traces(session.to_json(), is_unit_span));
}

std::vector<double> construct_ms(const netlist::PlacedNetlist& netlist,
                                 const core::FlowOptions& options) {
  return sample_ms(5, [&] {
    obs::Span span("bench.router_construct");
    const core::SadpRouter router(netlist, options);
  });
}

core::FlowOptions options_of(const api::FlowRequest& request) {
  std::vector<engine::FlowJob> jobs;
  if (const util::Status status = api::to_flow_jobs(request, &jobs);
      !status.is_ok() || jobs.empty()) {
    throw std::runtime_error("request does not materialize: " + status.to_string());
  }
  return jobs.front().config.options;
}

/// api.request_bytes and the time `parse` (the parser the server runs on
/// the line) takes for one request line, reported as `layer`.
template <class Parse>
void request_layers(Report& rep, const char* layer, const std::string& line,
                    Parse&& parse) {
  rep.set_layer("api.request_bytes", static_cast<double>(line.size()));
  rep.set_layer(layer, sample_ms(11, [&] {
                  obs::Span span("bench.parse_request");
                  if (!parse(line)) {
                    throw std::runtime_error("request line does not parse");
                  }
                }, 1e3));
}

/// api.parse_response_us: parse time of the row line of `outcome`.
void response_layer(Report& rep, const engine::JobOutcome& outcome) {
  const std::string row = api::response_row_line(outcome, 1, 1);
  rep.set_layer("api.parse_response_us", sample_ms(11, [&] {
                  obs::Span span("bench.parse_response");
                  if (!api::parse_response_line(row)) {
                    throw std::runtime_error("row does not parse");
                  }
                }, 1e3));
}

UnitStats stats_of(double wall_ms, const std::vector<engine::JobOutcome>& outcomes) {
  UnitStats stats;
  stats.wall_ms = wall_ms;
  for (const engine::JobOutcome& outcome : outcomes) stats.add(outcome);
  return stats;
}

// ---------------------------------------------------------------------------
// route_10x and dvi_exact: one FlowRequest per unit through api::dispatch

/// Set-up of a flow workload ends with routing its check unit: the request
/// with routers kept, validated after set-up.  Building the request alone
/// takes about a millisecond, too little to time steadily.
struct FlowSetup {
  api::FlowRequest request;
  std::vector<netlist::PlacedNetlist> netlists;  ///< per job, for validation
  api::DispatchResult check;
};

FlowSetup flow_setup(
    const std::vector<netlist::BenchSpec>& specs,
    const std::function<api::JobRequest(const netlist::BenchSpec&)>& job) {
  FlowSetup s;
  s.request.workers = 1;
  for (const netlist::BenchSpec& spec : specs) {
    s.netlists.push_back(netlist::generate(spec));
    s.request.jobs.push_back(job(spec));
  }
  api::DispatchOptions keep;
  keep.keep_router = true;
  s.check = api::dispatch(s.request, keep);
  return s;
}

/// Standalone exact solves on the check unit's routers: the node count the
/// DVI layer spends, and the same #DV the flow reported.
void exact_dvi_layers(Report& rep, const api::FlowRequest& request,
                      const api::DispatchResult& check) {
  double nodes = 0.0;
  int optimal = 0;
  std::vector<std::string> mismatches;
  for (const engine::JobOutcome& outcome : check.batch.outcomes) {
    if (!outcome.router) continue;
    const core::SadpRouter& router = *outcome.router;
    const core::DviProblem problem = core::build_dvi_problem(
        router.nets(), router.routing_grid(), router.turn_rules());
    core::DviExactParams params;
    params.time_limit_seconds = request.jobs.front().ilp_limit_seconds;
    const core::DviExactOutput exact =
        core::solve_dvi_exact(problem, router.via_db(), params);
    nodes += static_cast<double>(exact.nodes);
    optimal += exact.proven_optimal ? 1 : 0;
    if (exact.result.dead_vias != outcome.result.dvi.dead_vias) {
      mismatches.push_back(outcome.label + ": standalone exact DVI found " +
                           std::to_string(exact.result.dead_vias) +
                           " dead vias, the flow " +
                           std::to_string(outcome.result.dvi.dead_vias));
    }
  }
  rep.record("standalone exact DVI", mismatches);
  rep.set_layer("dvi.exact_nodes", nodes);
  const std::size_t jobs = std::max<std::size_t>(1, request.jobs.size());
  rep.set_layer("dvi.proven_optimal_frac",
                static_cast<double>(optimal) / static_cast<double>(jobs));
}

void run_flow_workload(const Options& opt, Report& rep, FlowSetup setup) {
  const api::FlowRequest& request = setup.request;

  // The check unit through the full validators; its WL/#vias/#DV are what
  // every timed unit must repeat.  Its routers are released before timing.
  api::DispatchResult& check = setup.check;
  std::vector<Quality> expected;
  std::vector<std::string> issues;
  if (!check.status.is_ok()) issues.push_back(check.status.to_string());
  for (std::size_t j = 0; j < check.batch.outcomes.size(); ++j) {
    const engine::JobOutcome& outcome = check.batch.outcomes[j];
    for (auto& issue : flow_full_issues(outcome, setup.netlists[j])) {
      issues.push_back(std::move(issue));
    }
    expected.push_back(quality_of(outcome.result));
    rep.quality += expected.back();
    rep.fixed_quality += expected.back();
  }
  rep.record("check unit", issues);
  if (opt.trace && request.jobs.front().dvi_method == core::DviMethod::kExact) {
    exact_dvi_layers(rep, request, check);
  }
  check = {};

  engine::JobOutcome last_outcome;
  const auto unit = [&](int index) {
    const util::Timer timer;
    api::DispatchResult run;
    {
      obs::Span span("bench.unit", index);
      run = api::dispatch(request);
    }
    UnitStats stats = stats_of(timer.millis(), run.batch.outcomes);
    if (!run.status.is_ok()) stats.issues.push_back(run.status.to_string());
    for (const engine::JobOutcome& outcome : run.batch.outcomes) {
      for (auto& issue : unit_issues(outcome)) stats.issues.push_back(std::move(issue));
    }
    if (!run.batch.outcomes.empty()) last_outcome = std::move(run.batch.outcomes.front());
    return stats;
  };
  obs::TraceSession session;
  const TimedPhase phase = closed_loop_phase(opt, rep, session, unit);
  record_units(rep, phase, {expected});
  set_quality_layers(rep);
  if (!opt.trace) return;

  rep.set_layer("router.construct_ms",
                construct_ms(setup.netlists.front(), options_of(request)));
  request_layers(rep, "api.parse_request_us", api::serialize_request(request),
                 [](const std::string& line) { return api::parse_request(line); });
  response_layer(rep, last_outcome);
  finish_trace(opt, rep, session, phase);
}

void route_10x(const Options& opt, const Sizes& sizes, Report& rep) {
  run_flow_workload(opt, rep, timed_setup(rep, [&] {
    return flow_setup({sizes.route}, [](const netlist::BenchSpec& spec) {
      return job_for(spec, "route_10x");
    });
  }));
}

void dvi_exact(const Options& opt, const Sizes& sizes, Report& rep) {
  run_flow_workload(opt, rep, timed_setup(rep, [&] {
    return flow_setup(sizes.dvi, [](const netlist::BenchSpec& spec) {
      api::JobRequest job = job_for(spec, spec.name);
      job.dvi_method = core::DviMethod::kExact;
      job.ilp_limit_seconds = 60.0;
      return job;
    });
  }));
}

// ---------------------------------------------------------------------------
// eco_stream: one FlowDeltaRequest per unit through api::dispatch_delta

/// A routed base design: its netlist, job and canonical solution text,
/// plus the outcome that kept its router until check_base releases it.
struct RoutedBase {
  netlist::PlacedNetlist netlist;
  api::JobRequest job;
  std::string solution_text;
  engine::JobOutcome outcome;
};

RoutedBase route_base(const netlist::BenchSpec& spec, const std::string& label) {
  RoutedBase base;
  base.netlist = netlist::generate(spec);
  base.job = job_for(spec, label);
  api::FlowRequest request;
  request.workers = 1;
  request.jobs.push_back(base.job);
  api::DispatchOptions keep;
  keep.keep_router = true;
  api::DispatchResult run = api::dispatch(request, keep);
  if (!run.status.is_ok() || run.batch.outcomes.size() != 1 ||
      !run.batch.outcomes.front().router) {
    throw std::runtime_error("routing the base " + spec.name + " failed: " +
                             run.status.to_string());
  }
  base.outcome = std::move(run.batch.outcomes.front());
  base.solution_text = core::solution_to_text(core::capture_solution(
      base.netlist.name, base.outcome.router->routing_grid(), base.job.style,
      base.outcome.router->nets()));
  return base;
}

/// The base is an input of its own and gets one full check, counted in
/// both quality sums (the bases are the same on every seed); its router is
/// released afterwards.
void check_base(Report& rep, RoutedBase& base) {
  rep.record("base " + base.job.label, flow_full_issues(base.outcome, base.netlist));
  rep.quality += quality_of(base.outcome.result);
  rep.fixed_quality += quality_of(base.outcome.result);
  base.outcome.router.reset();
}

/// Edits drawn from this fixed stream instead of the run's seed, so that
/// eco_stream's fixed_quality covers the ECO path too.
constexpr int kReferenceEdits = 4;

void eco_stream(const Options& opt, const Sizes& sizes, Report& rep) {
  struct EcoSetup {
    RoutedBase base;
    std::vector<core::EcoChange> edits;  ///< seeded ones, then the reference ones
  };
  EcoSetup setup = timed_setup(rep, [&] {
    EcoSetup s;
    s.base = route_base(sizes.eco_base, "eco_stream");
    const PinMap pins(s.base.netlist);
    util::Xoshiro256StarStar seeded(derive_seed(opt.seed, "eco_stream/edits"));
    util::Xoshiro256StarStar reference(derive_seed(0, "eco_stream/reference"));
    for (int i = 0; i < sizes.eco_edits + kReferenceEdits; ++i) {
      s.edits.push_back(draw_change(mix_kind(i), s.base.netlist, pins,
                                    i < sizes.eco_edits ? seeded : reference));
    }
    return s;
  });
  check_base(rep, setup.base);
  const RoutedBase& base = setup.base;
  const std::vector<core::EcoChange>& edits = setup.edits;

  // Every unit applies one edit to the same base (edits are not chained);
  // one request object is reused so the base text is held once.
  api::FlowDeltaRequest request;
  request.base = base.job;
  request.base_solution = base.solution_text;

  // One check unit per distinct edit, before the window so that their kept
  // routers stay out of the window's peak RSS.
  std::vector<std::vector<Quality>> expected;
  for (std::size_t e = 0; e < edits.size(); ++e) {
    request.changes = {edits[e]};
    api::DeltaDispatchOptions keep;
    keep.keep_router = true;
    const api::DeltaDispatchResult run = api::dispatch_delta(request, keep);
    rep.record("check edit " + std::to_string(e),
               delta_full_issues(run, base.netlist, request.changes));
    expected.push_back({quality_of(run.outcome.result)});
    rep.quality += expected.back().front();
    if (e >= static_cast<std::size_t>(sizes.eco_edits)) {
      rep.fixed_quality += expected.back().front();
    }
  }

  engine::JobOutcome last_outcome;
  const auto unit = [&](int index) {
    const std::size_t e = static_cast<std::size_t>(index) % edits.size();
    request.changes = {edits[e]};
    const util::Timer timer;
    api::DeltaDispatchResult run;
    {
      obs::Span span("bench.unit", index);
      run = api::dispatch_delta(request);
    }
    UnitStats stats;
    stats.wall_ms = timer.millis();
    stats.input = e;
    if (!run.status.is_ok()) {
      stats.issues.push_back("delta rejected: " + run.status.to_string());
      return stats;
    }
    stats.add(run.outcome);
    stats.issues = unit_issues(run.outcome);
    stats.nets_ripped = run.summary.nets_ripped;
    stats.rip_ratio = run.summary.nets_total > 0
                          ? static_cast<double>(run.summary.nets_ripped) /
                                run.summary.nets_total
                          : 0.0;
    last_outcome = std::move(run.outcome);
    return stats;
  };
  obs::TraceSession session;
  const TimedPhase phase = closed_loop_phase(opt, rep, session, unit);
  record_units(rep, phase, expected);
  set_quality_layers(rep);
  if (!opt.trace) return;

  rep.set_layer("solution.parse_ms", sample_ms(3, [&] {
                  obs::Span span("bench.parse_solution");
                  if (!core::parse_solution(base.solution_text)) {
                    throw std::runtime_error("base solution does not parse");
                  }
                }));
  std::vector<double> apply_ms;
  core::EcoEditOutcome edit;
  for (const core::EcoChange& change : edits) {
    apply_ms.push_back(sample_ms(1, [&] {
      obs::Span span("bench.apply_eco_changes");
      if (!core::apply_eco_changes(base.netlist, {change}, &edit).is_ok()) {
        throw std::runtime_error("edit does not apply");
      }
    }).front());
  }
  rep.set_layer("eco.apply_ms", apply_ms);
  api::FlowRequest as_flow;
  as_flow.jobs.push_back(base.job);
  rep.set_layer("router.construct_ms", construct_ms(edit.edited, options_of(as_flow)));
  request.changes = {edits.front()};
  request_layers(rep, "api.parse_delta_us", api::serialize_delta_request(request),
                 [](const std::string& line) { return api::parse_delta_request(line); });
  response_layer(rep, last_outcome);
  finish_trace(opt, rep, session, phase);
}

// ---------------------------------------------------------------------------
// service_mix: an open-loop request mix against an in-process RouteServer

struct ServiceSetup {
  std::unique_ptr<server::RouteServer> server;
  std::vector<api::FlowRequest> pool;  ///< one single-job request per design
  std::vector<std::string> pool_rows;  ///< journal object of each warm-up row
  std::vector<Quality> pool_quality;
  RoutedBase delta_base;
};

api::FlowRequest single_job(const netlist::BenchSpec& shape, const std::string& name,
                            int seed) {
  netlist::BenchSpec spec = shape;
  spec.name = name;
  spec.seed = derive_seed(seed, name);
  api::FlowRequest request;
  request.workers = 1;
  request.jobs.push_back(job_for(spec, name));
  return request;
}

ServiceSetup service_setup(const Sizes& sizes, int senders) {
  ServiceSetup s;
  server::ServerOptions options;
  options.pool_workers = worker_threads();
  // Room for a sender's next request while the previous runner still
  // releases its slot; a rejection here would be a benchmark artefact.
  options.max_requests = 2 * senders;
  options.quiet = true;
  s.server = std::make_unique<server::RouteServer>(options);
  if (const util::Status started = s.server->start(); !started.is_ok()) {
    throw std::runtime_error("cannot start the server: " + started.to_string());
  }
  // The pool is the same on every seed: hits never reach the engine, so its
  // designs only decide how long warming takes, which is set-up time.
  for (int i = 0; i < sizes.pool_designs; ++i) {
    s.pool.push_back(single_job(sizes.service_design, "svc_pool_" + std::to_string(i),
                                /*seed=*/0));
    const server::RemoteBatch batch =
        server::run_remote("127.0.0.1", s.server->port(), s.pool.back());
    if (!batch.all_ok() || batch.rows.size() != 1) {
      throw std::runtime_error("warming pool design " + std::to_string(i) +
                               " failed: " + batch.status.to_string());
    }
    s.pool_rows.push_back(engine::journal_line(batch.rows.front()));
    s.pool_quality.push_back(quality_of(batch.rows.front().result));
  }
  s.delta_base = route_base(sizes.delta_base, "svc_delta");
  return s;
}

struct Arrival {
  enum class Kind { kRepeat, kFresh, kDelta };
  double due_s = 0.0;
  Kind kind = Kind::kRepeat;
  int index = 0;  ///< pool design, fresh design or delta edit
};

/// What one open-loop request saw.
struct Served {
  double late_ms = 0.0;     ///< send instant minus due instant
  double latency_ms = 0.0;  ///< completion minus due instant
  double sent_ms = 0.0;     ///< completion minus send instant
  std::string cache;        ///< the row's cache marker
  std::string row_line;     ///< repeats: the row's journal object
  std::vector<std::string> issues;
  Quality quality;
  engine::JobOutcome row;   ///< misses and deltas: the executed row
};

/// The request mix: Poisson arrivals at `rate` for `seconds`, kinds dealt
/// in seeded shuffles of ten: 4 repeat a warmed pool design (cache hits),
/// 5 route a fresh design (misses, inserts and LRU evictions), 1 sends a
/// delta against the delta base.  Dealing exact proportions keeps each
/// percentile at the same rank within its class on every seed.
std::vector<Arrival> plan_arrivals(util::Xoshiro256StarStar& rng, double rate,
                                   double seconds, int pool, int* fresh, int* deltas) {
  using Kind = Arrival::Kind;
  std::vector<Kind> deck;
  std::vector<Arrival> plan;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    if (deck.empty()) {
      deck = {Kind::kRepeat, Kind::kRepeat, Kind::kRepeat, Kind::kRepeat, Kind::kFresh,
              Kind::kFresh,  Kind::kFresh,  Kind::kFresh,  Kind::kFresh,  Kind::kDelta};
      for (std::size_t i = deck.size() - 1; i > 0; --i) {
        std::swap(deck[i], deck[rng.below(i + 1)]);
      }
    }
    Arrival arrival;
    arrival.due_s = t;
    arrival.kind = deck.back();
    deck.pop_back();
    if (arrival.kind == Kind::kRepeat) {
      arrival.index = static_cast<int>(rng.below(static_cast<std::uint64_t>(pool)));
    } else {
      arrival.index = arrival.kind == Kind::kFresh ? (*fresh)++ : (*deltas)++;
    }
    plan.push_back(arrival);
  }
  return plan;
}

struct ServiceInputs {
  const ServiceSetup* setup = nullptr;
  std::vector<core::EcoChange> delta_edits;  ///< by delta index
  netlist::BenchSpec shape;
  int seed = 0;

  [[nodiscard]] api::FlowRequest fresh(int index) const {
    return single_job(shape, "svc_fresh_" + std::to_string(index), seed);
  }
  [[nodiscard]] api::FlowDeltaRequest delta(int index) const {
    api::FlowDeltaRequest request;
    request.base = setup->delta_base.job;
    request.base_solution = setup->delta_base.solution_text;
    request.changes = {delta_edits[static_cast<std::size_t>(index)]};
    return request;
  }
};

/// Send `plan` from `senders` threads, each request at its due instant (or
/// as soon as a sender is free), and check every response against what the
/// run already knows about its input.
std::vector<Served> open_loop(const ServiceInputs& inputs,
                              const std::vector<Arrival>& plan, int senders) {
  using Clock = std::chrono::steady_clock;
  const ServiceSetup& setup = *inputs.setup;
  const int port = setup.server->port();
  std::vector<Served> served(plan.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto ms_between = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  parallel_for(plan.size(), senders, [&](std::size_t k) {
    const Arrival& arrival = plan[k];
    Served& out = served[k];
    const bool is_delta = arrival.kind == Arrival::Kind::kDelta;
    api::FlowRequest flow;
    api::FlowDeltaRequest delta;
    if (arrival.kind == Arrival::Kind::kRepeat) {
      flow = setup.pool[static_cast<std::size_t>(arrival.index)];
    } else if (arrival.kind == Arrival::Kind::kFresh) {
      flow = inputs.fresh(arrival.index);
    } else {
      delta = inputs.delta(arrival.index);
    }
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(arrival.due_s));
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    server::RemoteBatch batch =
        is_delta ? server::run_remote_delta("127.0.0.1", port, delta)
                 : server::run_remote("127.0.0.1", port, flow);
    const Clock::time_point done = Clock::now();
    out.late_ms = ms_between(due, sent);
    out.latency_ms = ms_between(due, done);
    out.sent_ms = ms_between(sent, done);
    if (!batch.all_ok() || batch.rows.size() != 1 ||
        (is_delta && !batch.delta_received)) {
      out.issues.push_back("request failed: " + batch.status.to_string());
      return;
    }
    engine::JobOutcome& row = batch.rows.front();
    out.cache = batch.row_cache.front();
    out.quality = quality_of(row.result);
    out.issues = unit_issues(row);
    if (arrival.kind == Arrival::Kind::kRepeat) {
      const auto i = static_cast<std::size_t>(arrival.index);
      out.row_line = engine::journal_line(row);
      for (auto& issue : same_quality(row.label, out.quality, setup.pool_quality[i])) {
        out.issues.push_back(std::move(issue));
      }
    } else {
      out.row = std::move(row);
    }
  });
  return served;
}

/// Server-side request histograms (_sum and _count of each) and the
/// rejection counter, scraped over the control plane.
struct ServerScrape {
  std::map<std::string, double> values;

  static ServerScrape take(int port) {
    std::string text;
    if (const util::Status status = server::query_metrics("127.0.0.1", port, &text);
        !status.is_ok()) {
      throw std::runtime_error("metrics scrape failed: " + status.to_string());
    }
    ServerScrape scrape;
    std::size_t at = 0;
    while (at < text.size()) {
      const std::size_t end = std::min(text.find('\n', at), text.size());
      const std::string line = text.substr(at, end - at);
      at = end + 1;
      const std::size_t space = line.rfind(' ');
      if (line.empty() || line[0] == '#' || space == std::string::npos) continue;
      scrape.values[line.substr(0, space)] =
          std::strtod(line.c_str() + space + 1, nullptr);
    }
    return scrape;
  }

  /// Mean milliseconds of histogram `name` between `before` and this scrape.
  [[nodiscard]] double mean_ms_since(const ServerScrape& before,
                                     const std::string& name) const {
    const double count = delta(before, name + "_count");
    return count > 0 ? 1e3 * delta(before, name + "_sum") / count : 0.0;
  }

  [[nodiscard]] double delta(const ServerScrape& before, const std::string& key) const {
    const auto now = values.find(key);
    const auto then = before.values.find(key);
    return (now == values.end() ? 0.0 : now->second) -
           (then == before.values.end() ? 0.0 : then->second);
  }
};

/// The requests of one open-loop window with the plan they followed.
struct Window {
  std::vector<Arrival> plan;
  std::vector<Served> served;
};

/// A hit replays the row of the miss that stored its entry: the warm-up
/// row, or the row of a repeat that missed after an LRU eviction.  Every hit
/// row must be byte-identical to one of those.
void check_hit_rows(const ServiceSetup& setup, std::vector<Window*> windows) {
  std::vector<std::set<std::string>> miss_rows(setup.pool.size());
  for (std::size_t i = 0; i < setup.pool.size(); ++i) {
    miss_rows[i].insert(setup.pool_rows[i]);
  }
  for (const bool hits : {false, true}) {
    for (Window* window : windows) {
      for (std::size_t k = 0; k < window->plan.size(); ++k) {
        const Arrival& arrival = window->plan[k];
        Served& s = window->served[k];
        if (arrival.kind != Arrival::Kind::kRepeat || s.row_line.empty()) continue;
        auto& rows = miss_rows[static_cast<std::size_t>(arrival.index)];
        if (!hits && s.cache != "hit") rows.insert(s.row_line);
        if (hits && s.cache == "hit" && rows.count(s.row_line) == 0) {
          s.issues.push_back("hit row is not byte-identical to a miss row of its design");
        }
      }
    }
  }
}

/// Check units of the service: every distinct input once more in process,
/// routers kept, through the full validators, agreeing with the row the
/// server returned for it.
void service_check_units(Report& rep, const ServiceSetup& setup,
                         const ServiceInputs& inputs,
                         const std::vector<const Window*>& windows) {
  std::vector<std::pair<api::JobRequest, Quality>> flows;
  for (std::size_t i = 0; i < setup.pool.size(); ++i) {
    flows.emplace_back(setup.pool[i].jobs.front(), setup.pool_quality[i]);
  }
  struct DeltaCheck {
    int index = 0;
    Quality served;
    Quality checked;
    std::vector<std::string> issues;
  };
  std::vector<DeltaCheck> deltas;
  for (const Window* window : windows) {
    for (std::size_t k = 0; k < window->plan.size(); ++k) {
      const Arrival& arrival = window->plan[k];
      const Served& s = window->served[k];
      if (!s.issues.empty()) continue;
      if (arrival.kind == Arrival::Kind::kFresh) {
        flows.emplace_back(inputs.fresh(arrival.index).jobs.front(), s.quality);
      } else if (arrival.kind == Arrival::Kind::kDelta) {
        deltas.push_back({arrival.index, s.quality, {}, {}});
      }
    }
  }

  // Flows in small batches, so only a few kept routers are alive at once.
  const std::size_t kBatch = 8;
  for (std::size_t first = 0; first < flows.size(); first += kBatch) {
    api::FlowRequest batch;
    batch.workers = worker_threads();
    batch.keep_going = true;
    for (std::size_t i = first; i < std::min(flows.size(), first + kBatch); ++i) {
      batch.jobs.push_back(flows[i].first);
    }
    api::DispatchOptions keep;
    keep.keep_router = true;
    const api::DispatchResult run = api::dispatch(batch, keep);
    for (std::size_t j = 0; j < batch.jobs.size(); ++j) {
      const api::JobRequest& job = batch.jobs[j];
      std::vector<std::string> issues;
      if (j >= run.batch.outcomes.size()) {
        issues.push_back(job.label + ": no row " + run.status.to_string());
      } else {
        const engine::JobOutcome& outcome = run.batch.outcomes[j];
        issues = flow_full_issues(outcome, netlist::generate(*job.spec));
        for (auto& issue : same_quality(job.label + " (served)", flows[first + j].second,
                                        quality_of(outcome.result))) {
          issues.push_back(std::move(issue));
        }
        rep.quality += quality_of(outcome.result);
      }
      rep.record("check " + job.label, issues);
    }
  }

  parallel_for(deltas.size(), worker_threads(), [&](std::size_t i) {
    DeltaCheck& check = deltas[i];
    const api::FlowDeltaRequest request = inputs.delta(check.index);
    api::DeltaDispatchOptions keep;
    keep.keep_router = true;
    const api::DeltaDispatchResult run = api::dispatch_delta(request, keep);
    check.issues = delta_full_issues(run, setup.delta_base.netlist, request.changes);
    check.checked = quality_of(run.outcome.result);
    for (auto& issue : same_quality("delta (served)", check.served, check.checked)) {
      check.issues.push_back(std::move(issue));
    }
  });
  for (const DeltaCheck& check : deltas) {
    rep.quality += check.checked;
    rep.record("check delta " + std::to_string(check.index), check.issues);
  }
}

void service_mix(const Options& opt, const Sizes& sizes, Report& rep) {
  const int senders = worker_threads();
  ServiceSetup setup =
      timed_setup(rep, [&] { return service_setup(sizes, senders); });
  check_base(rep, setup.delta_base);
  server::RouteServer& server = *setup.server;

  ServiceInputs inputs;
  inputs.setup = &setup;
  inputs.shape = sizes.service_design;
  inputs.seed = opt.seed;
  int fresh = 0;
  int deltas = 0;
  util::Xoshiro256StarStar rng(derive_seed(opt.seed, "service_mix/arrivals"));
  const double seconds = opt.trace ? opt.seconds / 2 : opt.seconds;
  Window timed;
  Window traced;
  const auto plan = [&] {
    return plan_arrivals(rng, sizes.rate_rps, seconds, sizes.pool_designs, &fresh,
                         &deltas);
  };
  timed.plan = plan();
  if (opt.trace) traced.plan = plan();
  const PinMap pins(setup.delta_base.netlist);
  for (int i = 0; i < deltas; ++i) {
    inputs.delta_edits.push_back(
        draw_change(random_kind(rng), setup.delta_base.netlist, pins, rng));
  }

  for (const Quality& quality : setup.pool_quality) rep.fixed_quality += quality;

  // The window runs each delta on its own server thread.  How many overlap,
  // and which malloc arena each lands on, follow the arrival times, and
  // every arena that has held one keeps its ~30 MB: the window's peak
  // measured 140, 170 or 199 MB depending on the seed.  The gated peak is
  // therefore the set-up's (server, warmed pool, routed and checked delta
  // base), which runs one request at a time; the window's is a layer metric.
  rep.peak_rss_mb = peak_rss_mb();

  const ServerScrape before = ServerScrape::take(server.port());
  const std::size_t hits_before = server.cache_hits();
  const std::size_t misses_before = server.cache_misses();
  const std::size_t rejected_before = server.rejected();
  reset_peak_rss();
  timed.served = open_loop(inputs, timed.plan, senders);
  const ServerScrape after = ServerScrape::take(server.port());
  const double hits = static_cast<double>(server.cache_hits() - hits_before);
  const double lookups =
      hits + static_cast<double>(server.cache_misses() - misses_before);
  rep.set_layer("cache.hit_rate", lookups > 0 ? hits / lookups : 0.0);
  rep.set_layer("server.rejected",
                static_cast<double>(server.rejected() - rejected_before));
  rep.set_layer(
      "server.admission_wait_mean_ms",
      after.mean_ms_since(before, "sadp_server_request_admission_wait_seconds"));
  rep.set_layer("server.run_mean_ms",
                after.mean_ms_since(before, "sadp_server_request_run_seconds"));
  rep.set_layer("server.flush_mean_ms",
                after.mean_ms_since(before, "sadp_server_request_flush_seconds"));

  std::vector<UnitTrace> job_traces;
  if (opt.trace) {
    obs::TraceSession session;
    session.install();
    traced.served = open_loop(inputs, traced.plan, senders);
    session.uninstall();
    job_traces = unit_traces(session.to_json(), is_job_span);
  }
  rep.set_layer("server.window_peak_rss_mb", peak_rss_mb());
  check_hit_rows(setup, {&timed, &traced});

  // Per-request accounting of the untraced window; a failed request also
  // misses the SLO.
  std::vector<double> hit_ms, miss_ms, delta_ms, late_ms;
  std::vector<UnitStats> executed;
  for (std::size_t k = 0; k < timed.plan.size(); ++k) {
    const Served& s = timed.served[k];
    const Arrival::Kind kind = timed.plan[k].kind;
    rep.record("request " + std::to_string(k), s.issues);
    rep.latency_ms.push_back(s.latency_ms);
    late_ms.push_back(s.late_ms);
    if (s.issues.empty() && s.latency_ms <= kSloMs) ++rep.slo_met;
    (kind == Arrival::Kind::kDelta ? delta_ms : s.cache == "hit" ? hit_ms : miss_ms)
        .push_back(s.latency_ms);
    if (s.issues.empty() && kind != Arrival::Kind::kRepeat) {
      UnitStats stats;
      stats.wall_ms = s.sent_ms;
      stats.add(s.row);
      executed.push_back(stats);
    }
  }
  for (std::size_t k = 0; k < traced.plan.size(); ++k) {
    rep.record("traced request " + std::to_string(k), traced.served[k].issues);
    rep.traced_latency_ms.push_back(traced.served[k].latency_ms);
  }
  rep.set_layer("cache.hit_p50_ms", hit_ms);
  rep.set_layer("cache.miss_p50_ms", miss_ms);
  rep.set_layer("delta.p50_ms", delta_ms);
  rep.set_layer("gen.late_p99_ms", percentile(late_ms, 0.99));

  service_check_units(rep, setup, inputs, {&timed, &traced});
  set_quality_layers(rep);
  if (!opt.trace) return;

  layers_from_units(rep, executed, job_traces);
  const api::FlowRequest& pool_request = setup.pool.front();
  rep.set_layer("router.construct_ms",
                construct_ms(netlist::generate(*pool_request.jobs.front().spec),
                             options_of(pool_request)));
  request_layers(rep, "api.parse_request_us", api::serialize_request(pool_request),
                 [](const std::string& line) { return api::parse_request(line); });
  if (!inputs.delta_edits.empty()) {
    const std::string delta_line = api::serialize_delta_request(inputs.delta(0));
    rep.set_layer("api.parse_delta_us", sample_ms(11, [&] {
                    obs::Span span("bench.parse_delta");
                    if (!api::parse_delta_request(delta_line)) {
                      throw std::runtime_error("delta line does not parse");
                    }
                  }, 1e3));
  }
  for (const Served& s : timed.served) {
    if (s.row.label.empty()) continue;
    response_layer(rep, s.row);
    break;
  }
  rep.set_layer("solution.parse_ms", sample_ms(3, [&] {
                  if (!core::parse_solution(setup.delta_base.solution_text)) {
                    throw std::runtime_error("base solution does not parse");
                  }
                }));
}

// ---------------------------------------------------------------------------
// Entry points

void run_workload(const Options& opt, const Sizes& sizes, Report& rep) {
  rep.workload = opt.workload;
  rep.seed = opt.seed;
  rep.seconds = opt.seconds;
  rep.traced = opt.trace;
  try {
    if (opt.workload == "route_10x") {
      route_10x(opt, sizes, rep);
    } else if (opt.workload == "dvi_exact") {
      dvi_exact(opt, sizes, rep);
    } else if (opt.workload == "eco_stream") {
      eco_stream(opt, sizes, rep);
    } else if (opt.workload == "service_mix") {
      service_mix(opt, sizes, rep);
    } else {
      rep.record("workload", {"unknown workload '" + opt.workload + "'"});
    }
  } catch (const std::exception& e) {
    rep.record("run", {e.what()});
  }
}

/// Every workload at toy sizes, traced: a broken benchmark fails here.
int smoke() {
  const Sizes sizes = smoke_sizes();
  int status = 0;
  for (const char* workload : {"route_10x", "dvi_exact", "eco_stream", "service_mix"}) {
    Options opt;
    opt.workload = workload;
    opt.seconds = 1.0;
    opt.trace = true;
    const util::Timer timer;
    Report rep;
    run_workload(opt, sizes, rep);
    const bool ok = rep.failed == 0 && !rep.latency_ms.empty() &&
                    !rep.traced_latency_ms.empty() && rep.quality.wirelength > 0;
    std::printf("smoke %-12s %s: %lld units, %lld failed, %.2fs\n", workload,
                ok ? "ok" : "FAILED", rep.attempted, rep.failed, timer.seconds());
    if (!ok) status = 1;
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool smoke_mode = false;
  util::ArgParser parser(
      "end-to-end benchmark of the router, DVI, ECO and service paths");
  parser.add_string("--workload", &opt.workload,
                    "route_10x, dvi_exact, eco_stream or service_mix", "NAME");
  parser.add_int("--seed", &opt.seed, "workload seed (inputs are a function of it)", "S");
  parser.add_double("--seconds", &opt.seconds, "length of the timed window", "T");
  parser.add_flag("--trace", &opt.trace,
                  "trace half the window and add the per-layer numbers");
  parser.add_flag("--smoke", &smoke_mode, "run every workload at toy sizes and exit");
  if (!parser.parse(argc, argv)) return 2;
  if (smoke_mode) return smoke();
  if (!(opt.seconds > 0.0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  Report rep;
  run_workload(opt, full_sizes(), rep);
  std::printf("%s\n", rep.to_json().c_str());
  return rep.failed == 0 ? 0 : 1;
}
