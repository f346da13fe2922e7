// Microbenchmarks of the performance-critical kernels (google-benchmark).
// Not a paper table; used to track the costs the paper's complexity claims
// rest on: O(1) FVP classification, O(n) FVP scanning, O(n log n) DVI.
#include <benchmark/benchmark.h>

#include <memory>
#include <utility>

#include "core/cost_maps.hpp"
#include "core/dvi_exact.hpp"
#include "core/dvi_heuristic.hpp"
#include "core/flow.hpp"
#include "core/maze_router.hpp"
#include "core/solution_io.hpp"
#include "ilp/bnb.hpp"
#include "ilp/simplex.hpp"
#include "netlist/bench_gen.hpp"
#include "util/rng.hpp"
#include "via/coloring.hpp"
#include "via/decomp_graph.hpp"
#include "via/fvp.hpp"
#include "via/via_db.hpp"

namespace {

using namespace sadp;

void BM_FvpClassify(benchmark::State& state) {
  int mask = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(via::is_fvp(static_cast<via::WindowMask>(mask)));
    mask = (mask + 1) & 511;
  }
}
BENCHMARK(BM_FvpClassify);

void BM_WouldCreateFvp(benchmark::State& state) {
  const int side = 64;
  via::ViaDb db(side, side, 1);
  util::Xoshiro256StarStar rng(42);
  for (int i = 0; i < side * side / 16; ++i) {
    const grid::Point p{static_cast<int>(rng.below(side)),
                        static_cast<int>(rng.below(side))};
    if (!db.would_create_fvp(1, p) && !db.has(1, p)) db.add(1, p);
  }
  std::uint64_t q = 0;
  for (auto _ : state) {
    const grid::Point p{static_cast<int>(q % side),
                        static_cast<int>((q / side) % side)};
    benchmark::DoNotOptimize(db.would_create_fvp(1, p));
    q += 37;
  }
}
BENCHMARK(BM_WouldCreateFvp);

void BM_FvpScan(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  via::ViaDb db(side, side, 1);
  util::Xoshiro256StarStar rng(7);
  for (int i = 0; i < side * side / 16; ++i) {
    const grid::Point p{static_cast<int>(rng.below(side)),
                        static_cast<int>(rng.below(side))};
    if (!db.has(1, p)) db.add(1, p);
  }
  for (auto _ : state) benchmark::DoNotOptimize(db.scan_fvps(1));
  state.SetComplexityN(side * side);
}
BENCHMARK(BM_FvpScan)->Arg(64)->Arg(128)->Arg(256)->Complexity();

std::vector<std::pair<grid::Point, int>> random_spread_vias(int side, int count,
                                                            std::uint64_t seed) {
  util::Xoshiro256StarStar rng(seed);
  via::ViaDb db(side, side, 1);
  std::vector<std::pair<grid::Point, int>> out;
  while (static_cast<int>(out.size()) < count) {
    const grid::Point p{static_cast<int>(rng.below(side)),
                        static_cast<int>(rng.below(side))};
    if (!db.has(1, p) && !db.would_create_fvp(1, p)) {
      db.add(1, p);
      out.push_back({p, 1});
    }
  }
  return out;
}

void BM_ScanAllFvps(benchmark::State& state) {
  // Incremental-index scan cost as a function of the number of *live* FVPs
  // (never a grid rescan): place deliberately-dense via clusters.
  const int side = 128;
  via::ViaDb db(side, side, 2);
  util::Xoshiro256StarStar rng(19);
  for (int i = 0; i < side * side / 8; ++i) {
    const grid::Point p{static_cast<int>(rng.below(side)),
                        static_cast<int>(rng.below(side))};
    const int layer = 1 + static_cast<int>(rng.below(2));
    if (!db.has(layer, p)) db.add(layer, p);
  }
  for (auto _ : state) benchmark::DoNotOptimize(db.scan_all_fvps());
  state.counters["live_fvps"] = static_cast<double>(db.fvp_count());
}
BENCHMARK(BM_ScanAllFvps);

/// A populated cost-map fixture: many overlapping via nets plus history
/// bumps, approximating mid-negotiation map density.
struct CostMapFixture {
  grid::RoutingGrid routing{96, 96, 3};
  via::ViaDb vias{96, 96, 2};
  grid::TurnRules rules = grid::TurnRules::sim_cut();
  core::FlowOptions options;
  std::unique_ptr<core::CostMaps> costs;
  std::vector<core::RoutedNet> nets;

  CostMapFixture() {
    options.consider_dvi = true;
    options.consider_tpl = true;
    costs = std::make_unique<core::CostMaps>(routing, rules, options);
    util::Xoshiro256StarStar rng(23);
    for (grid::NetId id = 0; id < 120; ++id) {
      const grid::Point at{2 + static_cast<int>(rng.below(92)),
                           2 + static_cast<int>(rng.below(92))};
      core::RoutedNet net(id);
      net.add_segment(2, at, grid::Dir::kEast);
      net.add_segment(2, at + grid::step(grid::Dir::kWest), grid::Dir::kEast);
      net.add_segment(3, at, grid::Dir::kNorth);
      net.add_segment(3, at + grid::step(grid::Dir::kSouth), grid::Dir::kNorth);
      net.add_via(2, at);
      net.apply_to(routing, vias);
      costs->add_net_costs(net);
      nets.push_back(std::move(net));
    }
    for (int i = 0; i < 400; ++i) {
      const grid::Point p{static_cast<int>(rng.below(96)),
                          static_cast<int>(rng.below(96))};
      costs->bump_via_history(1 + static_cast<int>(rng.below(2)), p, 1.0);
      costs->bump_metal_history(2 + static_cast<int>(rng.below(2)), p, 1.0);
    }
  }
};

CostMapFixture& cost_fixture() {
  static CostMapFixture f;
  return f;
}

void BM_ViaPenalty(benchmark::State& state) {
  // The pre-fusion vertex-cost expression: history + four component loads.
  auto& f = cost_fixture();
  std::uint64_t q = 0;
  for (auto _ : state) {
    const grid::Point p{static_cast<int>(q % 96), static_cast<int>((q / 96) % 96)};
    const int layer = 1 + static_cast<int>(q & 1);
    benchmark::DoNotOptimize(f.costs->via_history(layer, p) +
                             f.costs->via_penalty(layer, p));
    q += 41;
  }
}
BENCHMARK(BM_ViaPenalty);

void BM_FusedViaCost(benchmark::State& state) {
  // The fused single-load replacement on the identical access pattern.
  auto& f = cost_fixture();
  std::uint64_t q = 0;
  for (auto _ : state) {
    const grid::Point p{static_cast<int>(q % 96), static_cast<int>((q / 96) % 96)};
    const int layer = 1 + static_cast<int>(q & 1);
    benchmark::DoNotOptimize(f.costs->fused_via_cost(layer, p));
    q += 41;
  }
}
BENCHMARK(BM_FusedViaCost);

void BM_MazeCongested(benchmark::State& state) {
  // One corner-to-corner maze search across a synthetic congested mid-band:
  // the steady-state reroute workload (reused open list, fused cost loads,
  // occupancy counts on every expansion).
  grid::RoutingGrid routing(64, 64, 3);
  via::ViaDb vias(64, 64, 2);
  const grid::TurnRules rules = grid::TurnRules::sim_cut();
  core::FlowOptions options;
  options.consider_dvi = true;
  options.consider_tpl = true;
  core::CostMaps costs(routing, rules, options);
  // A band of horizontal blocker wires with staggered single-point gaps,
  // plus history on the band, forces long detours through priced vertices.
  std::vector<core::RoutedNet> blockers;
  for (int y = 20; y < 44; y += 2) {
    core::RoutedNet net(100 + y);
    for (int x = 0; x < 63; ++x) {
      if (x == (y * 7) % 61) continue;
      net.add_segment(2, {x, y}, grid::Dir::kEast);
    }
    net.apply_to(routing, vias);
    costs.add_net_costs(net);
    blockers.push_back(std::move(net));
  }
  for (int y = 20; y < 44; ++y) {
    for (int x = 0; x < 64; ++x) costs.bump_metal_history(3, {x, y}, 2.0);
  }
  core::MazeRouter maze(routing, rules, costs, vias);
  maze.set_present_factor(4.0);
  const std::vector<core::MetalKey> sources{core::metal_key(2, {2, 2})};
  std::uint64_t pops = 0;
  for (auto _ : state) {
    core::RoutedNet net(7);
    net.add_metal(2, {2, 2}, 0);
    std::vector<core::MetalKey> touched;
    benchmark::DoNotOptimize(
        maze.route_connection(net, sources, {61, 61}, &touched));
    pops += maze.last_pops();
  }
  state.counters["pops/search"] =
      static_cast<double>(pops) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_MazeCongested)->Unit(benchmark::kMicrosecond);

void BM_WelshPowell(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto points = random_spread_vias(128, n, 11);
  const via::DecompGraph graph = via::DecompGraph::from_located(points);
  for (auto _ : state) benchmark::DoNotOptimize(via::welsh_powell(graph));
}
BENCHMARK(BM_WelshPowell)->Arg(256)->Arg(1024);

void BM_ExactColoring(benchmark::State& state) {
  const auto points = random_spread_vias(128, 512, 13);
  const via::DecompGraph graph = via::DecompGraph::from_located(points);
  for (auto _ : state) benchmark::DoNotOptimize(via::exact_three_coloring(graph));
}
BENCHMARK(BM_ExactColoring);

/// A design routed once with DVI+TPL-aware costs, for the flow-level kernels.
struct RoutedFixture {
  netlist::PlacedNetlist instance;
  std::unique_ptr<core::SadpRouter> router;
  core::DviProblem problem;

  explicit RoutedFixture(const netlist::BenchSpec& spec) {
    instance = netlist::generate(spec);
    core::FlowOptions options;
    options.consider_dvi = true;
    options.consider_tpl = true;
    router = std::make_unique<core::SadpRouter>(instance, options);
    (void)router->run();
    problem = core::build_dvi_problem(router->nets(), router->routing_grid(),
                                      router->turn_rules());
  }
};

RoutedFixture& fixture() {
  static RoutedFixture f([] {
    netlist::BenchSpec spec;
    spec.name = "micro";
    spec.width = 96;
    spec.height = 96;
    spec.num_nets = 90;
    return spec;
  }());
  return f;
}

void BM_RoutingFlow(benchmark::State& state) {
  for (auto _ : state) {
    core::FlowOptions options;
    options.consider_dvi = true;
    options.consider_tpl = true;
    core::SadpRouter router(fixture().instance, options);
    benchmark::DoNotOptimize(router.run());
  }
}
BENCHMARK(BM_RoutingFlow)->Unit(benchmark::kMillisecond);

void BM_DviHeuristic(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::run_dvi_heuristic(f.problem, f.router->via_db()));
  }
}
BENCHMARK(BM_DviHeuristic)->Unit(benchmark::kMillisecond);

void BM_BuildDviProblem(benchmark::State& state) {
  auto& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_dvi_problem(
        f.router->nets(), f.router->routing_grid(), f.router->turn_rules()));
  }
}
BENCHMARK(BM_BuildDviProblem)->Unit(benchmark::kMillisecond);

/// efc_s (scaled), as the end-to-end dvi_exact workload routes it.  Its
/// exact DVI proves the optimum (#DV 31) in 2,118 nodes per solve, so the
/// heuristic warm start takes more of a solve than the DFS does.
RoutedFixture& efc() {
  static RoutedFixture f(*netlist::spec_for("efc_s", true));
  return f;
}

void BM_DviExact(benchmark::State& state) {
  // Per solve: the heuristic warm start and the component split.  Per node:
  // the bound's recount (would_create_fvp over the undecided vias'
  // candidates), the FVP cut plus ViaDb::add/remove window upkeep, and one
  // budget poll every 256 nodes.
  auto& f = efc();
  double nodes = 0.0;
  for (auto _ : state) {
    const core::DviExactOutput out =
        core::solve_dvi_exact(f.problem, f.router->via_db());
    nodes += static_cast<double>(out.nodes);
    benchmark::DoNotOptimize(out.result.dead_vias);
  }
  state.counters["nodes/solve"] = nodes / static_cast<double>(state.iterations());
  state.counters["nodes/s"] = benchmark::Counter(nodes, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DviExact)->Unit(benchmark::kMillisecond);

/// ecc_10x (689x705, 4180 nets) routed once with DVI+TPL-aware costs: the
/// base design of an ECO request, for the layers every delta pays before
/// any search runs.  Routing it takes a few seconds, once per process.
struct EcoBaseFixture {
  netlist::PlacedNetlist instance;
  core::FlowOptions options;
  core::RoutedSolution solution;
  std::string text;

  EcoBaseFixture() {
    instance = netlist::generate(*netlist::spec_for("ecc_10x", true));
    options.consider_dvi = true;
    options.consider_tpl = true;
    core::SadpRouter router(instance, options);
    (void)router.run();
    solution = core::capture_solution(instance.name, router.routing_grid(),
                                      options.style, router.nets());
    text = core::solution_to_text(solution);
  }
};

EcoBaseFixture& eco_base() {
  static EcoBaseFixture f;
  return f;
}

void BM_ParseSolution(benchmark::State& state) {
  const std::string& text = eco_base().text;
  for (auto _ : state) benchmark::DoNotOptimize(core::parse_solution(text));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ParseSolution)->Unit(benchmark::kMillisecond);

void BM_SolutionToText(benchmark::State& state) {
  const core::RoutedSolution& solution = eco_base().solution;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solution_to_text(solution));
  }
}
BENCHMARK(BM_SolutionToText)->Unit(benchmark::kMillisecond);

void BM_RouterConstruct(benchmark::State& state) {
  // Construct + destroy: whole-grid state the router sets up for every
  // job and every ECO request.
  const EcoBaseFixture& f = eco_base();
  for (auto _ : state) {
    const core::SadpRouter router(f.instance, f.options);
    benchmark::DoNotOptimize(&router);
  }
}
BENCHMARK(BM_RouterConstruct)->Unit(benchmark::kMillisecond);

void BM_AdoptBase(benchmark::State& state) {
  // Construct, adopt every net of the routed base, destroy: the warm
  // seeding (occupancy, cost records, FVP windows) an ECO request pays
  // before any search runs.
  const EcoBaseFixture& f = eco_base();
  for (auto _ : state) {
    core::SadpRouter router(f.instance, f.options);
    for (std::size_t i = 0; i < f.solution.nets.size(); ++i) {
      router.adopt_base_net(static_cast<grid::NetId>(i), f.solution.nets[i]);
    }
    benchmark::DoNotOptimize(&router);
  }
}
BENCHMARK(BM_AdoptBase)->Unit(benchmark::kMillisecond);

void BM_SimplexRandom(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Xoshiro256StarStar rng(3);
  ilp::Model m;
  for (int v = 0; v < n; ++v) m.add_var();
  std::vector<ilp::LinTerm> obj;
  for (int v = 0; v < n; ++v) obj.push_back({v, rng.uniform()});
  m.set_objective(std::move(obj), true);
  for (int c = 0; c < n; ++c) {
    std::vector<ilp::LinTerm> terms;
    for (int v = 0; v < n; ++v) {
      if (rng.chance(0.3)) terms.push_back({v, 1.0 + rng.uniform()});
    }
    if (!terms.empty()) {
      m.add_constraint(std::move(terms), ilp::Sense::kLe,
                       1.0 + static_cast<double>(n) / 8.0);
    }
  }
  for (auto _ : state) benchmark::DoNotOptimize(ilp::solve_lp_relaxation(m));
}
BENCHMARK(BM_SimplexRandom)->Arg(16)->Arg(64);

void BM_BnbCliques(benchmark::State& state) {
  // Chain of cliques: the structure of the C1/C2 rows.
  const int n = static_cast<int>(state.range(0));
  ilp::Model m;
  for (int v = 0; v < n; ++v) m.add_var();
  std::vector<ilp::LinTerm> obj;
  for (int v = 0; v < n; ++v) obj.push_back({v, 1.0});
  m.set_objective(std::move(obj), true);
  for (int v = 0; v + 3 < n; v += 2) {
    m.add_constraint(
        {{v, 1.0}, {v + 1, 1.0}, {v + 2, 1.0}, {v + 3, 1.0}},
        ilp::Sense::kLe, 1.0);
  }
  for (auto _ : state) benchmark::DoNotOptimize(ilp::solve(m));
}
BENCHMARK(BM_BnbCliques)->Arg(32)->Arg(128);

void BM_BenchGen(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(netlist::generate_named("ecc_s", true));
  }
}
BENCHMARK(BM_BenchGen)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
