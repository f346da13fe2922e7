// The SADP-aware detailed router (paper Section III, Fig. 8).
//
// Flow:
//   1. routing-graph modeling over the colored grid (pin stubs applied),
//   2. independent routing iterations with the cost-assignment scheme
//      (Algorithm 1) applied after each net,
//   3. negotiated-congestion rip-up and reroute,
//   4. (when TPL is considered) via-layer TPL-violation-removal R&R
//      (Algorithm 2): a priority queue holds congestions (higher priority)
//      and FVPs; via locations that would create an FVP are hard-blocked
//      during rerouting; history costs escalate on recreated violations,
//   5. decomposition-graph construction and the greedy Welsh-Powell
//      3-colorability check, with R&R fixes for any residual conflicts.
//
// Every entry point runs this one schedule: step 2 is route_shortest_first,
// steps 3-4 are negotiate, and finish_run retries unrouted nets and runs
// step 5.  Only the nets and the starting present factor differ:
//   - run(), serial: every net, then negotiation, both at the initial factor;
//   - run(), partitioned (DESIGN.md section 14): the boundary nets at
//     initial x growth^2, each region's nets in its own sub-world router
//     (congestion negotiation from growth^2), then negotiation of the
//     merged state at initial x growth^4;
//   - run_eco() (DESIGN.md section 16): the dirty nets, then negotiation,
//     both at initial x growth^4 over the adopted base state.
//
// The router owns the shared databases (grid, via DB, cost maps) and the
// per-net routed geometry; the post-routing DVI stage (core/flow.hpp)
// reads them through the accessors.
#pragma once

#include <memory>
#include <vector>

#include "core/cost_maps.hpp"
#include "core/maze_router.hpp"
#include "core/params.hpp"
#include "core/routed_net.hpp"
#include "grid/routing_grid.hpp"
#include "grid/turns.hpp"
#include "netlist/netlist.hpp"
#include "util/timer.hpp"
#include "via/via_db.hpp"

namespace sadp::core {

/// Outcome of the routing flow (one row of the paper's Tables III/IV,
/// before the DVI columns).
struct RoutingReport {
  bool routed_all = false;          ///< 100% routability achieved
  int unrouted_nets = 0;
  long long wirelength = 0;         ///< "WL"
  int via_count = 0;                ///< "#Vias"
  double route_seconds = 0.0;       ///< "CPU(s)"
  std::size_t rr_iterations = 0;    ///< total rip-up/reroute iterations
  std::size_t queue_peak = 0;       ///< peak size of the violation queue
  std::size_t remaining_congestion = 0;
  std::size_t remaining_fvps = 0;   ///< FVP windows left after Algorithm 2
  int uncolorable_vias = 0;         ///< Welsh-Powell residual (expected 0)

  /// Search-effort perf counters (maze router + FVP cache), cumulative over
  /// the whole flow; deterministic for a given seed, so they double as
  /// cheap cross-run equivalence fingerprints.
  std::uint64_t maze_pops = 0;         ///< heap pops over all maze searches
  std::uint64_t maze_relaxations = 0;  ///< successful distance improvements
  std::uint64_t maze_searches = 0;     ///< individual maze searches run
  std::uint64_t heap_reuse = 0;        ///< searches with no open-list regrowth
  std::uint64_t fvp_cache_hits = 0;    ///< FVP queries served by the cache

  /// Per-search pop-count distribution (util::Histogram percentiles over
  /// all maze searches of the flow).  Deterministic like the counters
  /// above — the p95/max expose the pathological-search tail that the
  /// cumulative maze_pops total averages away.
  std::uint64_t maze_pops_p50 = 0;
  std::uint64_t maze_pops_p95 = 0;
  std::uint64_t maze_pops_max = 0;

  /// Per-phase wall-clock breakdown (Fig. 8 phases).  In a partitioned run
  /// initial_routing_seconds covers the concurrent region phase and
  /// congestion_rr/tpl_rr cover the reconcile loops on the merged state.
  double initial_routing_seconds = 0.0;
  double congestion_rr_seconds = 0.0;
  double tpl_rr_seconds = 0.0;
  double coloring_seconds = 0.0;

  /// Partition-parallel routing (DESIGN.md section 14).  partitions echoes
  /// the requested K; partition_regions is the effective region count (0
  /// when the run was serial — K = 1 or the grid too small to shard).
  int partitions = 1;
  int partition_regions = 0;
  int boundary_nets = 0;            ///< nets routed by the boundary pass
  double partition_seconds = 0.0;   ///< concurrent region phase (incl. merge)
  double reconcile_seconds = 0.0;   ///< serial negotiation of the merged state

  /// Finer partitioned-run breakdown (all 0 on serial runs).
  /// partition_seconds = boundary + concurrent regions + merge;
  /// region_seconds_max / region_seconds_mean is the load-imbalance ratio —
  /// the concurrent phase ends with the slowest region, so a ratio far
  /// above 1 means the cut left one region carrying the work.
  double boundary_seconds = 0.0;     ///< serial spanning-net pre-pass
  double merge_seconds = 0.0;        ///< serial fold of region worlds
  double region_seconds_max = 0.0;   ///< slowest region's wall clock
  double region_seconds_mean = 0.0;  ///< mean region wall clock
};

class SadpRouter {
 public:
  SadpRouter(const netlist::PlacedNetlist& netlist, FlowOptions options);

  /// Run the complete flow of Fig. 8 (through the 3-colorability check;
  /// post-routing DVI is a separate stage, see run_dvi_tail in flow.hpp).
  RoutingReport run();

  // --- Incremental ECO re-route (DESIGN.md section 16) ---------------------
  // Warm-start protocol, used instead of run(): for every net whose base
  // geometry survives the edit call adopt_base_net (occupancy, history and
  // FVP state seed warm); leave the dirty nets on their fresh pin stubs; add
  // blockages with add_obstacle; then run_eco(dirty) rips and reroutes only
  // the dirty subset and finishes with the normal negotiation/coloring tail.

  /// Replace net `id`'s fresh pin stubs with `base_net`'s routed geometry
  /// (ids may differ — the geometry is rebuilt under `id`) and seed the
  /// databases and cost records with it.  Only valid before any run.
  void adopt_base_net(grid::NetId id, const RoutedNet& base_net);

  /// Apply foreign routed geometry as immovable occupancy (ECO blockages,
  /// partition boundary nets).  Obstacle net ids lie past nets_.size() so
  /// rip-up never selects them; the maze prices their cells as
  /// occupied-by-another-net.
  void add_obstacle(const RoutedNet& net);

  /// Warm-state flow: rip + reroute exactly the `dirty` nets against the
  /// adopted base state through the serial schedule's passes, resumed at
  /// the reconcile's present factor instead of restarting the schedule,
  /// then run the standard tail — retry, TPL coloring fix, report assembly.
  /// Nets outside `dirty` are touched only if negotiation itself rips them.
  RoutingReport run_eco(const std::vector<grid::NetId>& dirty);

  // --- Accessors for the DVI stages and for validation ---------------------
  /// The netlist this router routes (for an ECO, the edited one).
  [[nodiscard]] const netlist::PlacedNetlist& netlist() const noexcept {
    return netlist_;
  }
  [[nodiscard]] const grid::RoutingGrid& routing_grid() const noexcept {
    return *grid_;
  }
  [[nodiscard]] const via::ViaDb& via_db() const noexcept { return *vias_; }
  [[nodiscard]] const grid::TurnRules& turn_rules() const noexcept { return rules_; }
  [[nodiscard]] const std::vector<RoutedNet>& nets() const noexcept { return nets_; }
  [[nodiscard]] const FlowOptions& options() const noexcept { return options_; }

 private:
  // One violation unit for the R&R queues.
  struct Violation {
    enum class Kind { kCongestionMetal, kCongestionVia, kFvp } kind;
    int layer;          ///< metal layer, via layer, or FVP via layer
    grid::Point at;     ///< vertex or FVP window origin
    std::uint64_t seq;  ///< FIFO tiebreak

    /// Congestion outranks FVP (paper Section III-C).
    [[nodiscard]] bool higher_priority_than(const Violation& other) const noexcept {
      const bool a_cong = kind != Kind::kFvp;
      const bool b_cong = other.kind != Kind::kFvp;
      if (a_cong != b_cong) return a_cong;
      return seq < other.seq;
    }
  };

  void build_pin_stubs();
  /// Every net's id, in netlist order.
  [[nodiscard]] std::vector<grid::NetId> all_net_ids() const;

  /// Phase 2 over `ids`: stable-sort them by pin bounding-box half
  /// perimeter, then rip and route each at `present_factor` with FVP
  /// blocking off (initial routing, the partition boundary pass, the ECO
  /// rip-up).  Stops at a fired cancel token.
  void route_shortest_first(std::vector<grid::NetId> ids, double present_factor);

  /// Phases 3-4: the congestion loop, then the FVP loop when TPL is on,
  /// both starting at `start_factor`, under the `congestion_rr`/`tpl_rr`
  /// spans; adds their iterations and wall time to `report`.
  void negotiate(RoutingReport& report, double start_factor);

  /// Phases 2-4 of the flow, single-world (K = 1 path).
  void run_serial_body(RoutingReport& report);

  /// Partition-parallel phases 2-4: shard, route region sub-worlds
  /// concurrently, merge, reconcile (DESIGN.md section 14).  Returns false
  /// when the instance cannot be sharded into >= 2 regions, in which case
  /// the caller falls back to run_serial_body (and the result is
  /// bit-identical to a K = 1 run).
  bool run_partitioned_body(RoutingReport& report);

  /// The unified R&R loop: congestion-only (phase 3) or congestion + FVP
  /// (phase 4 / Algorithm 2), starting at `start_present_factor` (capped at
  /// the maximum).  Returns iterations executed.
  std::size_t ripup_reroute_loop(bool consider_fvps, double start_present_factor);

  void coloring_fix_loop(RoutingReport& report);

  /// Replace net `id`'s pin stubs with `source`'s geometry shifted by
  /// `offset`, rebuilt under `id` with `rip_count` rips, then apply it and
  /// add its costs (ECO adoption and the partition merge).
  void install_net(grid::NetId id, const RoutedNet& source, grid::Point offset,
                   int rip_count);

  void rip_net(grid::NetId id);
  /// Route all pin connections of the net and re-apply it; returns false
  /// when some connection could not be routed (net left unrouted).
  bool route_net(grid::NetId id);

  /// Shared tail of run() and run_eco(): retry unrouted nets, the TPL
  /// coloring fix loop, and report assembly (timer = whole-run clock).
  void finish_run(RoutingReport& report, util::Timer& timer);

  /// Corners where the net's materialized geometry contains a forbidden
  /// turn (possible only through path self-crossing; see route_net).
  [[nodiscard]] std::vector<std::pair<int, grid::Point>> forbidden_turn_corners(
      const RoutedNet& net) const;

  [[nodiscard]] bool violation_still_valid(const Violation& v) const;
  [[nodiscard]] grid::NetId choose_ripup_net(const Violation& v) const;

  /// Push new violations created by net `id`'s current geometry.
  void push_net_violations(grid::NetId id, bool consider_fvps);
  void push_violation(Violation v);

  netlist::PlacedNetlist netlist_;
  FlowOptions options_;
  grid::TurnRules rules_;
  std::unique_ptr<grid::RoutingGrid> grid_;
  std::unique_ptr<via::ViaDb> vias_;
  std::unique_ptr<CostMaps> costs_;
  std::unique_ptr<MazeRouter> maze_;
  std::vector<RoutedNet> nets_;

  // Violation queue state (rebuilt per phase).
  std::vector<Violation> heap_;
  std::uint64_t next_seq_ = 0;
  std::size_t heap_peak_ = 0;  ///< high-water mark across all phases

  double present_factor_ = 1.0;
  std::vector<grid::NetId> unrouted_;

  /// FVP-cache hits accumulated from merged region worlds (their ViaDbs are
  /// destroyed at merge time, so the counter is folded in here).
  std::uint64_t region_fvp_cache_hits_ = 0;
};

}  // namespace sadp::core
