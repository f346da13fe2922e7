// Solution validation: independent checks of the router's guarantees,
// used by the integration tests and available to library users.
#pragma once

#include <string>
#include <vector>

#include "core/dvic.hpp"
#include "core/router.hpp"
#include "netlist/netlist.hpp"

namespace sadp::core {

struct ValidationIssue {
  std::string what;
};

/// Every net's metal + vias form one connected component containing all of
/// its pins (connectivity through vias and unit-adjacent same-layer arms).
[[nodiscard]] std::vector<ValidationIssue> check_connectivity(
    const std::vector<RoutedNet>& nets, const netlist::PlacedNetlist& netlist);

/// No grid vertex (metal or via) is occupied by more than one net.
[[nodiscard]] std::vector<ValidationIssue> check_no_congestion(
    const grid::RoutingGrid& grid);

/// No net contains a forbidden turn under the rule table.
[[nodiscard]] std::vector<ValidationIssue> check_no_forbidden_turns(
    const std::vector<RoutedNet>& nets, const grid::TurnRules& rules);

/// No FVP window exists on any via layer.
[[nodiscard]] std::vector<ValidationIssue> check_no_fvps(const via::ViaDb& vias);

/// The via decomposition graph (all layers) is 3-colorable (exact check).
[[nodiscard]] std::vector<ValidationIssue> check_tpl_colorable(
    const via::ViaDb& vias);

/// A DVI solution is legal: it has one entry per single via of `problem`,
/// each insertion is at a feasible DVIC, no two redundant vias share a
/// location, and the combined via set (per layer) is still 3-colorable.  The
/// last check needs 3-colorable originals, so only `expect_tpl_clean` runs
/// it (as in validate_routing).
[[nodiscard]] std::vector<ValidationIssue> check_dvi_solution(
    const SadpRouter& router, const DviProblem& problem,
    const std::vector<int>& inserted, const std::vector<grid::Point>& inserted_at,
    bool expect_tpl_clean = true);

/// Run every applicable check for a finished flow.
[[nodiscard]] std::vector<ValidationIssue> validate_routing(
    const SadpRouter& router, const netlist::PlacedNetlist& netlist,
    bool expect_tpl_clean);

}  // namespace sadp::core
