#include "core/router.hpp"

#include <algorithm>
#include <exception>
#include <set>
#include <string>
#include <unordered_set>

#include "core/partition.hpp"
#include "obs/trace.hpp"
#include "util/executor.hpp"
#include "util/status.hpp"
#include "util/timer.hpp"
#include "via/coloring.hpp"
#include "via/decomp_graph.hpp"

namespace sadp::core {

namespace {

// The negotiated-congestion schedule of [20], which the paper inherits.
constexpr double kPresentFactorInitial = 1.0;  ///< first-round overlap penalty
constexpr double kPresentFactorGrowth = 1.6;   ///< growth per escalation
constexpr double kPresentFactorMax = 512.0;
constexpr double kHistoryIncrement = 1.0;
/// Hard cap on rip-up/reroute iterations, as a multiple of the net count.
constexpr double kMaxIterationsPerNet = 40.0;

// The schedule's escalated present factors, each multiplied left to right
// from the initial factor (the order fixes the bits every row reads).

/// initial x growth^2: prices the partition boundary pass and starts region
/// congestion negotiation.
constexpr double kRegionalFactor =
    kPresentFactorInitial * kPresentFactorGrowth * kPresentFactorGrowth;

/// initial x growth^4: resumes negotiation on a merged or adopted state
/// (partition reconcile, ECO).  A merged grid carries each region's
/// already-negotiated pressure, and its few remaining cross-cut conflicts
/// resolve in roughly half the iterations at this level than at growth^2
/// (measured; quality is unchanged because history costs, not the present
/// factor, carry the placement memory).
constexpr double kResumedFactor = kPresentFactorInitial * kPresentFactorGrowth *
                                  kPresentFactorGrowth * kPresentFactorGrowth *
                                  kPresentFactorGrowth;

}  // namespace

SadpRouter::SadpRouter(const netlist::PlacedNetlist& netlist, FlowOptions options)
    : netlist_(netlist),
      options_(options),
      rules_(grid::TurnRules::for_style(options.style)) {
  // External input: fail loudly in every build type instead of routing a
  // malformed design (the release-mode assert was undefined behavior bait).
  if (!netlist_.valid()) {
    throw FlowError(util::StatusCode::kInvalidInput,
                    "netlist '" + netlist_.name +
                        "' is invalid (empty, out-of-bounds pins, or bad "
                        "layer count)");
  }
  grid_ = std::make_unique<grid::RoutingGrid>(netlist_.width, netlist_.height,
                                              netlist_.num_metal_layers);
  vias_ = std::make_unique<via::ViaDb>(netlist_.width, netlist_.height,
                                       grid_->num_via_layers());
  costs_ = std::make_unique<CostMaps>(*grid_, rules_, options_);
  maze_ = std::make_unique<MazeRouter>(*grid_, rules_, *costs_, *vias_);

  nets_.reserve(netlist_.nets.size());
  for (const auto& net : netlist_.nets) nets_.emplace_back(net.id);
  build_pin_stubs();
}

void SadpRouter::build_pin_stubs() {
  // Every pin is a metal-1 terminal: pad on metal 1, mandatory via up to
  // metal 2, landing pad on metal 2.  Stubs are immovable.
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    RoutedNet& routed = nets_[i];
    for (const auto& pin : netlist_.nets[i].pins) {
      routed.add_metal(1, pin.at, 0);
      routed.add_metal(2, pin.at, 0);
      routed.add_via(1, pin.at, /*is_pin_via=*/true);
    }
    routed.apply_to(*grid_, *vias_);
  }
}

void SadpRouter::add_obstacle(const RoutedNet& net) {
  net.apply_to(*grid_, *vias_);
}

void SadpRouter::rip_net(grid::NetId id) {
  RoutedNet& net = nets_[static_cast<std::size_t>(id)];
  costs_->remove_net_costs(net);
  net.remove_from(*grid_, *vias_);
  net.clear_routing();
}

bool SadpRouter::route_net(grid::NetId id) {
  // Static name + the net id as the span id: the trace stays allocation-free
  // per net, and flow_report can still rank the slowest nets.
  obs::Span net_span("route_net", id);
  RoutedNet& net = nets_[static_cast<std::size_t>(id)];
  const auto& pins = netlist_.nets[static_cast<std::size_t>(id)].pins;

  // The maze search hard-excludes forbidden turns against the incoming
  // travel direction and the net's already-materialized arms, but a path
  // that crosses ITSELF merges two leg directions at one point only at
  // materialization time — rarely producing a forbidden L the search never
  // saw.  Detect that after materialization, penalize the corner, and
  // reroute; a couple of attempts always clears it in practice.
  bool ok = true;
  for (int attempt = 0; attempt < 4; ++attempt) {
    // Grow a connected tree from pin 0, always connecting the pin nearest
    // to the current tree next.  Each pending pin caches its Manhattan
    // distance to the tree; after a connection only the newly added tree
    // points are compared, so selection is O(|new| x |pending|) instead of
    // rescanning the whole tree every time.
    std::vector<MetalKey> tree;
    tree.push_back(metal_key(2, pins.front().at));
    std::vector<grid::Point> pending;
    std::vector<int> pending_dist;
    for (std::size_t k = 1; k < pins.size(); ++k) {
      pending.push_back(pins[k].at);
      pending_dist.push_back(grid::manhattan(pins.front().at, pins[k].at));
    }

    ok = true;
    while (!pending.empty() && ok) {
      // Nearest pending pin to the tree (cached; first minimum wins, the
      // tiebreak of the full rescan this replaces).
      std::size_t best = 0;
      int best_dist = INT32_MAX;
      for (std::size_t k = 0; k < pending.size(); ++k) {
        if (pending_dist[k] < best_dist) {
          best_dist = pending_dist[k];
          best = k;
        }
      }
      const grid::Point target = pending[best];
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best));
      pending_dist.erase(pending_dist.begin() +
                         static_cast<std::ptrdiff_t>(best));

      std::vector<MetalKey> new_points;
      if (!maze_->route_connection(net, tree, target, &new_points)) {
        ok = false;
        break;
      }
      tree.insert(tree.end(), new_points.begin(), new_points.end());
      tree.push_back(metal_key(2, target));
      for (std::size_t k = 0; k < pending.size(); ++k) {
        int d = std::min(pending_dist[k], grid::manhattan(target, pending[k]));
        for (const MetalKey key : new_points) {
          d = std::min(d, grid::manhattan(key_point(key), pending[k]));
        }
        pending_dist[k] = d;
      }
    }
    if (!ok) break;

    const auto bad_corners = forbidden_turn_corners(net);
    if (bad_corners.empty()) break;
    for (const auto& [layer, p] : bad_corners) {
      costs_->bump_metal_history(layer, p, kHistoryIncrement * 8.0);
    }
    net.clear_routing();
  }

  net.set_routed(ok);
  net.apply_to(*grid_, *vias_);
  costs_->add_net_costs(net);
  if (ok) {
    unrouted_.erase(std::remove(unrouted_.begin(), unrouted_.end(), id),
                    unrouted_.end());
  } else if (std::find(unrouted_.begin(), unrouted_.end(), id) == unrouted_.end()) {
    unrouted_.push_back(id);
  }
  return ok;
}

std::vector<std::pair<int, grid::Point>> SadpRouter::forbidden_turn_corners(
    const RoutedNet& net) const {
  std::vector<std::pair<int, grid::Point>> corners;
  for (const auto& [key, arms] : net.metal()) {
    const int layer = key_layer(key);
    if (layer < 2) continue;
    const grid::Point p = key_point(key);
    for (grid::Dir h : {grid::Dir::kEast, grid::Dir::kWest}) {
      if (!grid::has_arm(arms, h)) continue;
      for (grid::Dir v : {grid::Dir::kNorth, grid::Dir::kSouth}) {
        if (!grid::has_arm(arms, v)) continue;
        if (rules_.classify(p, grid::turn_kind(h, v)) ==
            grid::TurnClass::kForbidden) {
          corners.push_back({layer, p});
        }
      }
    }
  }
  return corners;
}

std::vector<grid::NetId> SadpRouter::all_net_ids() const {
  std::vector<grid::NetId> ids;
  ids.reserve(netlist_.nets.size());
  for (const auto& net : netlist_.nets) ids.push_back(net.id);
  return ids;
}

void SadpRouter::route_shortest_first(std::vector<grid::NetId> ids,
                                      double present_factor) {
  // Short nets first: they have the least flexibility and lock in the least
  // routing resource.  Ties keep the caller's order.
  auto net_span = [&](grid::NetId id) {
    const auto& pins = netlist_.nets[static_cast<std::size_t>(id)].pins;
    int lo_x = pins[0].at.x, hi_x = lo_x, lo_y = pins[0].at.y, hi_y = lo_y;
    for (const auto& pin : pins) {
      lo_x = std::min(lo_x, pin.at.x);
      hi_x = std::max(hi_x, pin.at.x);
      lo_y = std::min(lo_y, pin.at.y);
      hi_y = std::max(hi_y, pin.at.y);
    }
    return (hi_x - lo_x) + (hi_y - lo_y);
  };
  std::stable_sort(ids.begin(), ids.end(), [&](grid::NetId a, grid::NetId b) {
    return net_span(a) < net_span(b);
  });

  maze_->set_fvp_blocking(false);
  maze_->set_present_factor(present_factor);
  for (const grid::NetId id : ids) {
    if (options_.cancel.stop_requested()) return;
    rip_net(id);
    route_net(id);
  }
}

// --- Violation queue ---------------------------------------------------------
//
// Duplicates are tolerated in the heap: validity is re-checked at pop time,
// so a stale duplicate is simply discarded.

void SadpRouter::push_violation(Violation v) {
  v.seq = next_seq_++;
  heap_.push_back(v);
  std::push_heap(heap_.begin(), heap_.end(),
                 [](const Violation& a, const Violation& b) {
                   return b.higher_priority_than(a);
                 });
  if (heap_.size() > heap_peak_) heap_peak_ = heap_.size();
}

bool SadpRouter::violation_still_valid(const Violation& v) const {
  switch (v.kind) {
    case Violation::Kind::kCongestionMetal:
      return grid_->metal_congested(v.layer, v.at);
    case Violation::Kind::kCongestionVia:
      return grid_->via_congested(v.layer, v.at);
    case Violation::Kind::kFvp:
      return vias_->window_is_fvp(v.layer, v.at);
  }
  return false;
}

grid::NetId SadpRouter::choose_ripup_net(const Violation& v) const {
  // Fairness: the candidate ripped the fewest times so far, ties by id.
  grid::NetId best = grid::kNoNet;
  auto consider = [&](grid::NetId id) {
    if (id == grid::kNoNet) return;
    // Obstacle ids (partition boundary geometry injected into a region
    // sub-world) lie past the netlist range and are immovable.
    if (static_cast<std::size_t>(id) >= nets_.size()) return;
    if (best == grid::kNoNet ||
        nets_[static_cast<std::size_t>(id)].rip_count() <
            nets_[static_cast<std::size_t>(best)].rip_count() ||
        (nets_[static_cast<std::size_t>(id)].rip_count() ==
             nets_[static_cast<std::size_t>(best)].rip_count() &&
         id < best)) {
      best = id;
    }
  };

  switch (v.kind) {
    case Violation::Kind::kCongestionMetal:
      for (const auto& occ : grid_->metal_occupants(v.layer, v.at)) consider(occ.net);
      break;
    case Violation::Kind::kCongestionVia:
      for (const grid::NetId id : grid_->via_occupants(v.layer, v.at)) consider(id);
      break;
    case Violation::Kind::kFvp:
      // Candidates: nets with a movable (non-pin) via inside the window
      // (O(1) per occupant via the RoutedNet movable-via index).
      for (int dy = 0; dy < via::kWindowSize; ++dy) {
        for (int dx = 0; dx < via::kWindowSize; ++dx) {
          const grid::Point cell{v.at.x + dx, v.at.y + dy};
          if (!grid_->in_bounds(cell)) continue;
          for (const grid::NetId id : grid_->via_occupants(v.layer, cell)) {
            if (id == grid::kNoNet ||
                static_cast<std::size_t>(id) >= nets_.size()) {
              continue;  // obstacle vias are immovable
            }
            if (nets_[static_cast<std::size_t>(id)].has_movable_via_at(v.layer,
                                                                       cell)) {
              consider(id);
            }
          }
        }
      }
      break;
  }
  return best;
}

void SadpRouter::push_net_violations(grid::NetId id, bool consider_fvps) {
  const RoutedNet& net = nets_[static_cast<std::size_t>(id)];
  for (const auto& [key, arms] : net.metal()) {
    const int layer = key_layer(key);
    if (!grid_->routable(layer)) continue;
    const grid::Point p = key_point(key);
    if (grid_->metal_congested(layer, p)) {
      push_violation(Violation{Violation::Kind::kCongestionMetal, layer, p, 0});
    }
  }
  // The same FVP window overlaps up to nine of the net's vias; pushing (and
  // history-bumping) it once per via bloated the heap and queue_peak, so
  // windows already handled in this call are skipped.
  std::vector<via::FvpWindow> seen_fvps;
  for (const auto& via : net.vias()) {
    if (grid_->via_congested(via.via_layer, via.at)) {
      push_violation(
          Violation{Violation::Kind::kCongestionVia, via.via_layer, via.at, 0});
    }
    if (!consider_fvps) continue;
    for (int oy = via.at.y - via::kWindowSize + 1; oy <= via.at.y; ++oy) {
      for (int ox = via.at.x - via::kWindowSize + 1; ox <= via.at.x; ++ox) {
        const grid::Point origin{ox, oy};
        if (!vias_->window_is_fvp(via.via_layer, origin)) continue;
        const via::FvpWindow window{via.via_layer, origin};
        if (std::find(seen_fvps.begin(), seen_fvps.end(), window) !=
            seen_fvps.end()) {
          continue;
        }
        seen_fvps.push_back(window);
        push_violation(Violation{Violation::Kind::kFvp, via.via_layer, origin, 0});
        // Reroute created an FVP: make its vias more expensive (Alg. 2).
        for (int dy = 0; dy < via::kWindowSize; ++dy) {
          for (int dx = 0; dx < via::kWindowSize; ++dx) {
            const grid::Point cell{ox + dx, oy + dy};
            if (grid_->in_bounds(cell) && vias_->has(via.via_layer, cell)) {
              costs_->bump_via_history(via.via_layer, cell, kHistoryIncrement);
            }
          }
        }
      }
    }
  }
}

std::size_t SadpRouter::ripup_reroute_loop(bool consider_fvps,
                                           double start_present_factor) {
  heap_.clear();
  next_seq_ = 0;

  maze_->set_fvp_blocking(consider_fvps);
  present_factor_ = std::min(start_present_factor, kPresentFactorMax);
  maze_->set_present_factor(present_factor_);

  // Seed with all current violations.
  for (const auto& c : grid_->collect_congestion()) {
    push_violation(Violation{c.is_via ? Violation::Kind::kCongestionVia
                                      : Violation::Kind::kCongestionMetal,
                             c.layer, c.p, 0});
  }
  if (consider_fvps) {
    for (const auto& fvp : vias_->scan_all_fvps()) {
      push_violation(Violation{Violation::Kind::kFvp, fvp.via_layer, fvp.origin, 0});
    }
  }

  const std::size_t cap = static_cast<std::size_t>(
      kMaxIterationsPerNet *
      static_cast<double>(std::max<std::size_t>(nets_.size(), 1)));
  const std::size_t escalate_every = std::max<std::size_t>(32, nets_.size() / 4);

  std::size_t iterations = 0;
  auto heap_less = [](const Violation& a, const Violation& b) {
    return b.higher_priority_than(a);
  };

  while (!heap_.empty() && iterations < cap) {
    if (options_.cancel.stop_requested()) break;
    std::pop_heap(heap_.begin(), heap_.end(), heap_less);
    const Violation v = heap_.back();
    heap_.pop_back();

    if (!violation_still_valid(v)) continue;

    ++iterations;
    obs::Span iter_span(consider_fvps ? "tpl_rr_iter" : "congestion_rr_iter",
                        static_cast<std::int64_t>(iterations));
    if (iterations % escalate_every == 0 && present_factor_ < kPresentFactorMax) {
      present_factor_ *= kPresentFactorGrowth;
      maze_->set_present_factor(present_factor_);
    }

    // History escalation at the violating vertex (negotiation).
    switch (v.kind) {
      case Violation::Kind::kCongestionMetal:
        costs_->bump_metal_history(v.layer, v.at, kHistoryIncrement);
        break;
      case Violation::Kind::kCongestionVia:
        costs_->bump_via_history(v.layer, v.at, kHistoryIncrement);
        break;
      case Violation::Kind::kFvp:
        break;  // FVP history is bumped on creation (push_net_violations)
    }

    const grid::NetId rip = choose_ripup_net(v);
    if (rip == grid::kNoNet) continue;  // unresolvable (should not happen)

    nets_[static_cast<std::size_t>(rip)].note_ripped();
    rip_net(rip);
    route_net(rip);
    push_net_violations(rip, consider_fvps);

    // The ripped net may still leave the violation in place (another pair of
    // nets congests the vertex, or other vias keep the FVP): re-check.
    if (violation_still_valid(v)) push_violation(v);

    // Convergence telemetry: one multi-series counter sample per iteration.
    // Every series is an O(1) read with no side effects (fvp_count and
    // congestion_count are incrementally maintained; history_cost_sum is a
    // running total), so sampling cannot perturb the routing result.
    if (obs::tracing_enabled()) {
      obs::counter("rr",
                   {{"fvps", static_cast<double>(vias_->fvp_count())},
                    {"queue", static_cast<double>(heap_.size())},
                    {"congestion", static_cast<double>(grid_->congestion_count())},
                    {"maze_pops", static_cast<double>(maze_->stats().pops)},
                    {"history_sum", costs_->history_cost_sum()}});
    }
  }
  return iterations;
}

void SadpRouter::coloring_fix_loop(RoutingReport& report) {
  for (int round = 0; round < 6; ++round) {
    obs::Span round_span("coloring_round", round);
    if (options_.cancel.stop_requested()) return;
    const via::DecompGraph graph = via::DecompGraph::build_all_layers(*vias_);
    const via::ColoringResult result = via::welsh_powell(graph);
    if (result.complete()) {
      report.uncolorable_vias = 0;
      return;
    }
    // The greedy check failed; an exact check may still succeed (Welsh-
    // Powell is only an upper-bound heuristic).
    if (via::three_colorable(graph)) {
      report.uncolorable_vias = 0;
      return;
    }
    report.uncolorable_vias = static_cast<int>(result.uncolored.size());

    // Rip the owners of uncolorable vias and bump history so reroutes spread
    // the vias out.
    std::set<grid::NetId> owners;
    for (int v : result.uncolored) {
      const grid::Point p = graph.vertex_point(v);
      const int layer = graph.vertex_layer(v);
      costs_->bump_via_history(layer, p, kHistoryIncrement * 4);
      for (const grid::NetId id : grid_->via_occupants(layer, p)) {
        if (id == grid::kNoNet || static_cast<std::size_t>(id) >= nets_.size()) {
          continue;
        }
        if (nets_[static_cast<std::size_t>(id)].has_movable_via_at(layer, p)) {
          owners.insert(id);
        }
      }
    }
    if (owners.empty()) return;
    for (const grid::NetId id : owners) {
      nets_[static_cast<std::size_t>(id)].note_ripped();
      rip_net(id);
      route_net(id);
    }
    report.rr_iterations += owners.size();
    // A reroute can create congestion or FVPs; clean them up.
    ripup_reroute_loop(options_.consider_tpl, kPresentFactorInitial);
  }
}

void SadpRouter::negotiate(RoutingReport& report, double start_factor) {
  util::Timer phase;
  {
    obs::Span span("congestion_rr");
    report.rr_iterations +=
        ripup_reroute_loop(/*consider_fvps=*/false, start_factor);
  }
  report.congestion_rr_seconds = phase.seconds();

  if (options_.consider_tpl) {
    phase.reset();
    obs::Span span("tpl_rr");
    report.rr_iterations +=
        ripup_reroute_loop(/*consider_fvps=*/true, start_factor);
    span.end();
    report.tpl_rr_seconds = phase.seconds();
  }
}

void SadpRouter::run_serial_body(RoutingReport& report) {
  util::Timer phase;
  {
    obs::Span span("initial_routing");
    route_shortest_first(all_net_ids(), kPresentFactorInitial);
  }
  report.initial_routing_seconds = phase.seconds();
  negotiate(report, kPresentFactorInitial);
}

bool SadpRouter::run_partitioned_body(RoutingReport& report) {
  const PartitionPlan plan = plan_partitions(netlist_, options_.partitions);
  if (plan.regions.size() < 2) return false;
  const std::size_t num_regions = plan.regions.size();
  report.partition_regions = static_cast<int>(num_regions);
  report.boundary_nets = static_cast<int>(plan.boundary.size());

  util::Timer phase;
  util::Timer sub_phase;

  // Boundary nets first, serially, on the master grid while it holds only
  // pin stubs: a boundary net routed into an empty grid costs what it would
  // in serial initial routing, instead of a far more expensive search over
  // a fully merged, congested grid afterwards.  Their geometry is then
  // injected into every overlapping region sub-world as immovable obstacles
  // so the regions route *around* the spanning nets they cannot see past
  // their cut otherwise.
  {
    // The grid holds only pin stubs here, so the regional (escalated)
    // present factor costs nothing in search effort but keeps boundary
    // routes off the pin pads of yet-unrouted nets — overlaps the region
    // sub-worlds could never resolve (both sides immovable there).
    obs::Span span("partition.boundary");
    route_shortest_first(plan.boundary, kRegionalFactor);
  }
  report.boundary_seconds = sub_phase.seconds();
  // Build the region sub-worlds serially: each is a complete netlist over
  // the region window, pins translated by -offset.  Window origins are
  // aligned to the turn-rule period (partition.hpp), so every periodic
  // classification in a sub-world matches the same grid coordinates.
  struct RegionWork {
    netlist::PlacedNetlist sub;
    grid::Point offset;
    std::vector<grid::NetId> global_ids;  ///< local net id -> global net id
    std::vector<RoutedNet> obstacles;     ///< boundary geometry, clipped
    std::unique_ptr<SadpRouter> router;
    std::size_t rr_iterations = 0;
    double seconds = 0.0;  ///< this region's wall clock (imbalance metric)
    std::exception_ptr error;
  };
  std::vector<RegionWork> works(num_regions);
  for (std::size_t r = 0; r < num_regions; ++r) {
    RegionWork& work = works[r];
    work.offset = plan.region_offset(r);
    work.sub.name = netlist_.name + "#r" + std::to_string(r);
    work.sub.width = plan.region_width(r, netlist_.width);
    work.sub.height = plan.region_height(r, netlist_.height);
    work.sub.num_metal_layers = netlist_.num_metal_layers;
    for (const grid::NetId g : plan.regions[r].nets) {
      const auto& src = netlist_.nets[static_cast<std::size_t>(g)];
      netlist::Net local;
      local.id = static_cast<grid::NetId>(work.sub.nets.size());
      local.name = src.name;
      local.pins.reserve(src.pins.size());
      for (const auto& pin : src.pins) {
        local.pins.push_back(netlist::Pin{
            {pin.at.x - work.offset.x, pin.at.y - work.offset.y}});
      }
      work.sub.nets.push_back(std::move(local));
      work.global_ids.push_back(g);
    }

    // Pin-stub cells of this region's nets: obstacle geometry landing on
    // one would be an immovable-vs-immovable overlap the sub-world cannot
    // resolve (pin stubs survive rip-up).  Those cells are skipped below;
    // the true conflict still exists on the master grid, where reconcile
    // can rip the boundary net.
    std::unordered_set<std::int64_t> stub_keys;
    for (const auto& local : work.sub.nets) {
      for (const auto& pin : local.pins) {
        stub_keys.insert(metal_key(1, pin.at).v);
        stub_keys.insert(metal_key(2, pin.at).v);
      }
    }

    // Clip every boundary net's routed geometry to this region's window.
    // Arm bits that would point outside the sub-grid are stripped; the
    // occupancy is what matters for avoidance, not the severed arm.
    const int win_lo = plan.regions[r].window_lo;
    const int win_hi = plan.regions[r].window_hi;
    grid::NetId obstacle_id = static_cast<grid::NetId>(work.sub.nets.size());
    for (const grid::NetId b : plan.boundary) {
      const RoutedNet& src = nets_[static_cast<std::size_t>(b)];
      RoutedNet clipped(obstacle_id);
      bool any = false;
      for (const auto& [key, arms] : src.metal()) {
        const grid::Point p = key_point(key);
        const int c = plan.cut_along_x ? p.x : p.y;
        if (c < win_lo || c > win_hi) continue;
        const grid::Point q{p.x - work.offset.x, p.y - work.offset.y};
        const int layer = key_layer(key);
        if (layer <= 2 && stub_keys.count(metal_key(layer, q).v) != 0) {
          continue;
        }
        grid::ArmMask mask = arms;
        for (const grid::Dir d : grid::kPlanarDirs) {
          const grid::Point n{q.x + grid::step(d).x, q.y + grid::step(d).y};
          if (n.x < 0 || n.x >= work.sub.width || n.y < 0 ||
              n.y >= work.sub.height) {
            mask = static_cast<grid::ArmMask>(mask & ~grid::arm_bit(d));
          }
        }
        clipped.add_metal(layer, q, mask);
        any = true;
      }
      for (const auto& via : src.vias()) {
        const int c = plan.cut_along_x ? via.at.x : via.at.y;
        if (c < win_lo || c > win_hi) continue;
        const grid::Point q{via.at.x - work.offset.x,
                            via.at.y - work.offset.y};
        if (via.via_layer == 1 && stub_keys.count(metal_key(1, q).v) != 0) {
          continue;
        }
        clipped.add_via(via.via_layer, q, via.is_pin_via);
        any = true;
      }
      if (any) {
        work.obstacles.push_back(std::move(clipped));
        ++obstacle_id;
      }
    }
  }

  // Region phases run concurrently; each worker owns a private router over
  // its sub-world (grid, via DB, cost maps, maze state), so cross-region
  // writes are impossible by construction — workers share nothing mutable.
  FlowOptions region_options = options_;
  region_options.partitions = 1;
  region_options.executor = nullptr;  // regions never nest
  util::run_tasks(
      options_.executor, static_cast<int>(num_regions), [&](int r) {
        RegionWork& work = works[static_cast<std::size_t>(r)];
        if (work.sub.nets.empty()) return;
        util::Timer region_timer;
        try {
          obs::Span span("partition.region", r);
          work.router =
              std::make_unique<SadpRouter>(work.sub, region_options);
          SadpRouter& sub = *work.router;
          for (const RoutedNet& obstacle : work.obstacles) {
            sub.add_obstacle(obstacle);
          }
          sub.route_shortest_first(sub.all_net_ids(), kPresentFactorInitial);
          // Region congestion negotiation starts pre-escalated: sub-worlds
          // are small and their conflicts dense, so the slow pressure ramp
          // tuned for full-grid negotiation only burns iterations here
          // (measured ~30% fewer region R&R iterations at equal quality).
          // The TPL loop keeps the initial factor.
          work.rr_iterations += sub.ripup_reroute_loop(
              /*consider_fvps=*/false, kRegionalFactor);
          if (region_options.consider_tpl) {
            work.rr_iterations += sub.ripup_reroute_loop(
                /*consider_fvps=*/true, kPresentFactorInitial);
          }
        } catch (...) {
          work.error = std::current_exception();
        }
        work.seconds = region_timer.seconds();
      });
  for (auto& work : works) {
    if (work.error) std::rethrow_exception(work.error);
  }
  {
    double total = 0.0;
    for (const RegionWork& work : works) {
      report.region_seconds_max = std::max(report.region_seconds_max,
                                           work.seconds);
      total += work.seconds;
    }
    report.region_seconds_mean = total / static_cast<double>(num_regions);
  }

  // Serial merge in region order: translate each region net back into grid
  // coordinates, apply it, and rebuild its cost record; then fold the
  // region's negotiation history and perf counters into the master state.
  sub_phase.reset();
  {
    obs::Span span("partition.merge");
    for (std::size_t r = 0; r < num_regions; ++r) {
      RegionWork& work = works[r];
      if (!work.router) continue;
      const SadpRouter& sub = *work.router;
      for (std::size_t li = 0; li < work.global_ids.size(); ++li) {
        const RoutedNet& routed = sub.nets_[li];
        install_net(work.global_ids[li], routed, work.offset,
                    routed.rip_count());
      }
      costs_->merge_history_from(*sub.costs_, work.offset);
      maze_->absorb_stats(*sub.maze_);
      region_fvp_cache_hits_ += sub.vias_->fvp_cache_hits();
      report.rr_iterations += work.rr_iterations;
      heap_peak_ = std::max(heap_peak_, sub.heap_peak_);
      work.router.reset();  // free the region world before reconcile
    }
  }
  report.merge_seconds = sub_phase.seconds();
  report.partition_seconds = phase.seconds();
  report.initial_routing_seconds = report.partition_seconds;

  // Serial reconcile on the merged state: the boundary nets are already in
  // place from the pre-region pass, so reconcile is purely the negotiation
  // loops at the resumed present factor — resolving the overlaps and FVPs
  // the regions could not see across their cuts (boundary nets are rippable
  // here like any other) without restarting the pressure schedule.
  phase.reset();
  {
    obs::Span span("partition.reconcile");
    negotiate(report, kResumedFactor);
  }
  report.reconcile_seconds = phase.seconds();
  return true;
}

RoutingReport SadpRouter::run() {
  util::Timer timer;
  RoutingReport report;
  report.partitions = std::max(options_.partitions, 1);

  bool partitioned = false;
  if (options_.partitions > 1) partitioned = run_partitioned_body(report);
  if (!partitioned) run_serial_body(report);

  finish_run(report, timer);
  return report;
}

void SadpRouter::adopt_base_net(grid::NetId id, const RoutedNet& base_net) {
  install_net(id, base_net, {0, 0}, /*rip_count=*/0);
}

void SadpRouter::install_net(grid::NetId id, const RoutedNet& source,
                             grid::Point offset, int rip_count) {
  RoutedNet& net = nets_[static_cast<std::size_t>(id)];
  net.remove_from(*grid_, *vias_);  // pin stubs only at this point
  // Key by key in the source's iteration order: that insertion order fixes
  // the rebuilt net's metal() order, which the AMC walk and
  // push_net_violations follow.
  RoutedNet rebuilt(id);
  for (const auto& [key, arms] : source.metal()) {
    const grid::Point p = key_point(key);
    rebuilt.add_metal(key_layer(key), {p.x + offset.x, p.y + offset.y}, arms);
  }
  for (const auto& via : source.vias()) {
    rebuilt.add_via(via.via_layer, {via.at.x + offset.x, via.at.y + offset.y},
                    via.is_pin_via);
  }
  rebuilt.set_routed(source.routed());
  for (int i = 0; i < rip_count; ++i) rebuilt.note_ripped();
  net = std::move(rebuilt);
  net.apply_to(*grid_, *vias_);
  costs_->add_net_costs(net);
  if (!net.routed() &&
      std::find(unrouted_.begin(), unrouted_.end(), id) == unrouted_.end()) {
    unrouted_.push_back(id);
  }
}

RoutingReport SadpRouter::run_eco(const std::vector<grid::NetId>& dirty) {
  util::Timer timer;
  RoutingReport report;
  report.partitions = 1;

  // The base solution already carries a fully negotiated placement, so the
  // dirty subset reroutes at the reconcile's resumed present factor:
  // restarting the schedule would let the fresh nets trample the adopted
  // state that history costs are there to defend.
  util::Timer phase;
  {
    obs::Span span("eco.ripup");
    span.set_str("dirty_nets", std::to_string(dirty.size()));
    route_shortest_first(dirty, kResumedFactor);
  }
  report.initial_routing_seconds = phase.seconds();

  {
    obs::Span span("eco.reroute");
    negotiate(report, kResumedFactor);
  }

  finish_run(report, timer);
  return report;
}

void SadpRouter::finish_run(RoutingReport& report, util::Timer& timer) {
  // Retry any nets that failed during the noisy phases.
  if (!options_.cancel.stop_requested()) {
    obs::Span span("retry_unrouted");
    std::vector<grid::NetId> retry;
    std::swap(retry, unrouted_);
    for (const grid::NetId id : retry) {
      rip_net(id);
      route_net(id);
    }
    if (!unrouted_.empty()) {
      report.rr_iterations +=
          ripup_reroute_loop(options_.consider_tpl, kPresentFactorInitial);
    }
  }

  if (options_.consider_tpl) {
    util::Timer coloring_phase;
    obs::Span span("coloring_fix");
    coloring_fix_loop(report);
    span.end();
    report.coloring_seconds = coloring_phase.seconds();
  }

  report.remaining_congestion = grid_->congestion_count();
  report.remaining_fvps = vias_->fvp_count();
  report.queue_peak = heap_peak_;
  report.maze_pops = maze_->stats().pops;
  report.maze_relaxations = maze_->stats().relaxations;
  report.maze_searches = maze_->stats().searches;
  report.heap_reuse = maze_->stats().heap_reused;
  report.fvp_cache_hits = vias_->fvp_cache_hits() + region_fvp_cache_hits_;
  report.maze_pops_p50 = maze_->search_pops().percentile(0.50);
  report.maze_pops_p95 = maze_->search_pops().percentile(0.95);
  report.maze_pops_max = maze_->search_pops().max();
  report.unrouted_nets = static_cast<int>(unrouted_.size());
  report.routed_all = unrouted_.empty() && report.remaining_congestion == 0;

  for (const auto& net : nets_) {
    report.wirelength += net.wirelength();
    report.via_count += net.via_count();
  }
  report.route_seconds = timer.seconds();
}

}  // namespace sadp::core
