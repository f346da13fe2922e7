// Incremental ECO re-route (DESIGN.md section 16).
//
// Production routing traffic is dominated by deltas — move a pin, add or
// remove a net, block a region, re-ask.  Instead of paying a full re-route,
// run_eco_flow loads a saved base solution, applies a change list to the
// base netlist, seeds the router's occupancy/history/FVP state warm from the
// surviving base geometry, and rips up only the nets intersecting the dirty
// region.  Negotiation then resumes at the reconcile-level escalated present
// factor and incremental DVI runs on the re-routed subset only.
//
// Dirty-region rule: the dirty rects are the added blockage rects, the old
// and new cells of every moved pin, and the pin cells of every added net.
// A net is dirty when it is itself changed (pin moved, freshly added) or
// when any of its base metal points or vias (x/y, any layer) lies inside a
// dirty rect.  Removed nets merely free their geometry — freed space is not
// dirty.  Untouched nets keep their base geometry bit-identically.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "core/solution_io.hpp"
#include "netlist/netlist.hpp"
#include "util/status.hpp"

namespace sadp::core {

/// One edit of an ECO change list (wire: `changes` of sadp.flow_delta.v1).
struct EcoChange {
  enum class Kind { kAddNet, kRemoveNet, kMovePin, kAddBlockage };
  Kind kind = Kind::kMovePin;

  grid::NetId net = grid::kNoNet;  ///< remove_net / move_pin: base net id
  int pin = 0;                     ///< move_pin: pin index within the net
  grid::Point to{};                ///< move_pin: new pin location

  std::string name;                ///< add_net: net name
  std::vector<grid::Point> pins;   ///< add_net: pin locations (>= 2)

  grid::Point rect_lo{};           ///< add_blockage: inclusive cell rect
  grid::Point rect_hi{};
};

/// Wire token of a change kind: add_net / remove_net / move_pin /
/// add_blockage.
[[nodiscard]] const char* eco_change_kind_name(EcoChange::Kind kind) noexcept;
[[nodiscard]] std::optional<EcoChange::Kind> parse_eco_change_kind(
    const std::string& name);

/// Everything apply_eco_changes derives from a change list.
struct EcoEditOutcome {
  netlist::PlacedNetlist edited;
  /// base-id -> edited-id; grid::kNoNet for removed nets.  Surviving nets
  /// are renumbered dense in base order; added nets take fresh ids at the
  /// end.
  std::vector<grid::NetId> base_to_new;
  /// Inclusive dirty rects: blockage rects, moved-pin old/new cells and
  /// added-net pin cells as 1x1 rects.
  std::vector<std::pair<grid::Point, grid::Point>> dirty_rects;
  /// Edited ids of structurally changed nets (moved-pin + added) —
  /// unconditionally dirty regardless of geometry.
  std::vector<grid::NetId> changed_nets;
  /// The blockage rects alone (subset of dirty_rects), for obstacle
  /// construction.
  std::vector<std::pair<grid::Point, grid::Point>> blockage_rects;
};

/// Apply the change list to `base`.  Purely structural — no routing state.
/// Changes are applied in order; net ids in changes always refer to base
/// ids.  Rejects out-of-range ids, double removals, out-of-bounds points,
/// degenerate rects and blockages covering a pin of the edited netlist.
[[nodiscard]] util::Status apply_eco_changes(
    const netlist::PlacedNetlist& base, const std::vector<EcoChange>& changes,
    EcoEditOutcome* out);

/// The `delta` summary row of an ECO response.
struct EcoSummary {
  int nets_ripped = 0;     ///< nets re-routed from fresh pin stubs
  int nets_untouched = 0;  ///< nets adopted from the base bit-identically
  int nets_total = 0;      ///< nets in the edited netlist
  int changes = 0;         ///< change-list entries applied
  std::vector<grid::NetId> ripped_ids;  ///< edited-netlist ids, ascending
  double load_seconds = 0.0;    ///< eco.load: base apply + warm seeding
  std::string base_fingerprint;  ///< fnv1a-64 hex of the canonical base text
};

/// A finished ECO flow: the warm re-route's FlowRun (router, table row,
/// status) plus the delta summary.  The edited netlist it ran against is
/// flow.router->netlist().  flow.result.dvi covers only the re-routed
/// subset (incremental DVI).
struct EcoRun {
  FlowRun flow;
  EcoSummary summary;
};

/// Fingerprint of a base solution: fnv1a-64 of its canonical text, as a
/// 16-digit lowercase hex string.  Cache keys and delta summaries both use
/// it, so a client can verify the server patched the base it sent.
[[nodiscard]] std::string solution_fingerprint(const RoutedSolution& solution);

/// Run the incremental flow: edit `base` per `changes`, warm-start from
/// `base_solution`, rip + re-route the dirty subset, run incremental DVI.
/// Returns kInvalidInput (with *out untouched apart from partial summary
/// fields) when the base/changes are inconsistent; a cooperative cancel is
/// reported through out->flow.status like run_flow.  Only the solution's
/// header is checked against `base`: its points must lie inside that header,
/// which parse_solution guarantees for solutions read from text.
[[nodiscard]] util::Status run_eco_flow(const netlist::PlacedNetlist& base,
                                        const RoutedSolution& base_solution,
                                        const std::vector<EcoChange>& changes,
                                        const FlowConfig& config, EcoRun* out);

}  // namespace sadp::core
