// Reconstructions of the paper's concept figures, each verified by the
// library machinery rather than drawn by hand:
//
//   --fig2   same-color via pitch and a TPL violation SADP routing misses
//   --fig4   turn classification + mask synthesis / DRC per flavour
//   --fig6   DVI feasibility incl. the one-unit-extension exception
//   --fig7   FVP classification of 3x3 via patterns
//   --fig10  blocked via locations during TPL-violation-removal R&R
//   --fig11  wheel via patterns: FVP-free but not 3-colorable
//   --fig12  TPL-aware DVI on two adjacent vias
//
// With no argument, every demo runs.
#include <cstdio>
#include <cstring>
#include <vector>

#include "core/dvi_heuristic.hpp"
#include "core/dvic.hpp"
#include "grid/routing_grid.hpp"
#include "grid/turns.hpp"
#include "sadp/decomposition.hpp"
#include "via/coloring.hpp"
#include "via/decomp_graph.hpp"
#include "via/fvp.hpp"
#include "via/via_db.hpp"

using namespace sadp;

namespace {

void fig2() {
  std::printf("== Fig. 2: same-color via pitch ==\n");
  std::printf("conflict predicate: two vias cannot share a TPL color iff\n"
              "0 < dx^2 + dy^2 < 8  (every pair in a 3x3 window except exact\n"
              "diagonally opposite corners). Around a via at the center:\n\n");
  for (int dy = 2; dy >= -2; --dy) {
    std::printf("  ");
    for (int dx = -2; dx <= 2; ++dx) {
      if (dx == 0 && dy == 0) {
        std::printf(" V ");
      } else {
        std::printf(" %c ", via::vias_conflict({0, 0}, {dx, dy}) ? 'd' : 's');
      }
    }
    std::printf("\n");
  }
  std::printf("  (V via, d different-color location, s same-color location)\n\n");

  // A via pattern an SADP-aware router could produce that is not TPL
  // decomposable: a K4 (2x2 block).
  via::ViaDb db(8, 8, 1);
  db.add(1, {3, 3});
  db.add(1, {4, 3});
  db.add(1, {3, 4});
  db.add(1, {4, 4});
  const via::DecompGraph graph = via::DecompGraph::build_all_layers(db);
  const via::ColoringResult coloring = via::welsh_powell(graph);
  std::printf("a 2x2 via block (legal for SADP metal!) has %zu uncolorable "
              "via(s) in TPL\n-- this is why the router must consider via-layer "
              "TPL explicitly.\n\n",
              coloring.uncolored.size());
}

void fig4() {
  std::printf("== Fig. 4: turn classification and mask synthesis ==\n");
  for (grid::SadpStyle style : {grid::SadpStyle::kSim, grid::SadpStyle::kSid}) {
    const grid::TurnRules rules = grid::TurnRules::for_style(style);
    std::printf("%s type:\n", grid::style_name(style));
    for (int cls = 0; cls < 4; ++cls) {
      const grid::Point corner{10 + cls / 2, 10 + cls % 2};
      for (grid::TurnKind kind : grid::kTurnKinds) {
        const grid::TurnClass tc = rules.classify(corner, kind);
        // Build the L-shape at this corner and decompose it.
        litho::LayerPattern pattern;
        grid::Dir h = (kind == grid::TurnKind::kNE || kind == grid::TurnKind::kSE)
                          ? grid::Dir::kEast
                          : grid::Dir::kWest;
        grid::Dir v = (kind == grid::TurnKind::kNE || kind == grid::TurnKind::kNW)
                          ? grid::Dir::kNorth
                          : grid::Dir::kSouth;
        pattern.points.push_back(
            {corner, static_cast<grid::ArmMask>(grid::arm_bit(h) | grid::arm_bit(v))});
        for (int step = 1; step <= 2; ++step) {
          grid::Point ph = corner, pv = corner;
          for (int s = 0; s < step; ++s) {
            ph = ph + grid::step(h);
            pv = pv + grid::step(v);
          }
          const grid::ArmMask h_arms = static_cast<grid::ArmMask>(
              grid::arm_bit(grid::opposite(h)) | (step < 2 ? grid::arm_bit(h) : 0));
          const grid::ArmMask v_arms = static_cast<grid::ArmMask>(
              grid::arm_bit(grid::opposite(v)) | (step < 2 ? grid::arm_bit(v) : 0));
          pattern.points.push_back({ph, h_arms});
          pattern.points.push_back({pv, v_arms});
        }
        const litho::LayerDecomposition decomposition =
            litho::decompose_layer(pattern, style);
        std::printf("  corner parity (%d,%d) turn %s: %-13s -> mask DRC "
                    "violations: %zu\n",
                    corner.x & 1, corner.y & 1, grid::turn_name(kind),
                    grid::turn_class_name(tc), decomposition.violations.size());
      }
    }
  }
  std::printf("\n");
}

void fig6() {
  std::printf("== Fig. 6: DVI feasibility of a single via ==\n");
  const grid::TurnRules rules = grid::TurnRules::sim_cut();
  grid::RoutingGrid routing_grid(20, 20, 3);
  via::ViaDb vias(20, 20, 2);

  // A via connecting a westbound metal-2 wire and a northbound metal-3
  // wire, at each of the four parity classes.
  for (int cls = 0; cls < 4; ++cls) {
    const grid::Point at{10 + cls / 2, 10 + cls % 2};
    core::RoutedNet net(0);
    net.add_segment(2, at, grid::Dir::kWest);
    net.add_segment(2, at + grid::step(grid::Dir::kWest), grid::Dir::kWest);
    net.add_segment(3, at, grid::Dir::kNorth);
    net.add_segment(3, at + grid::step(grid::Dir::kNorth), grid::Dir::kNorth);
    net.add_via(2, at);
    net.apply_to(routing_grid, vias);
    const auto feasible = core::feasible_dvics(routing_grid, rules, net, 2, at);
    std::printf("  via at parity (%d,%d), metal2 runs W, metal3 runs N: "
                "%zu feasible DVIC(s):",
                at.x & 1, at.y & 1, feasible.size());
    for (const auto& d : feasible) {
      const grid::Point delta = d - at;
      const char* dir = delta.x > 0   ? "E"
                        : delta.x < 0 ? "W"
                        : delta.y > 0 ? "N"
                                      : "S";
      std::printf(" %s", dir);
    }
    std::printf("\n");
    net.remove_from(routing_grid, vias);
  }
  std::printf("  (the asymmetry between classes is the Fig. 6 story: the\n"
              "   same wire orientations give different feasible DVIC sets\n"
              "   depending on the colored-grid position)\n\n");
}

void fig7() {
  std::printf("== Fig. 7: 3x3 via patterns and 3-colorability ==\n");
  struct Case {
    const char* label;
    std::vector<grid::Point> cells;
  };
  const Case cases[4] = {
      {"(a) 4 corners + center (5 vias)", {{0, 0}, {2, 0}, {0, 2}, {2, 2}, {1, 1}}},
      {"(b) 5 vias, one off-corner", {{0, 0}, {2, 0}, {0, 2}, {1, 2}, {1, 1}}},
      {"(c) 4 vias with diagonal corners", {{0, 0}, {2, 2}, {1, 0}, {1, 1}}},
      {"(d) 4 vias, no diagonal pair", {{0, 0}, {1, 0}, {0, 1}, {1, 1}}},
  };
  for (const Case& c : cases) {
    via::WindowMask mask = 0;
    for (const auto& p : c.cells) {
      mask |= via::WindowMask{1} << via::window_bit(p.x, p.y);
    }
    std::printf("  %s: chromatic number %d -> %s\n", c.label,
                via::window_chromatic_number(mask),
                via::is_fvp(mask) ? "FVP" : "not an FVP");
  }
  std::printf("\n");
}

void fig10() {
  std::printf("== Fig. 10: blocked via locations ==\n");
  via::ViaDb db(9, 9, 1);
  db.add(1, {3, 3});
  db.add(1, {4, 3});
  db.add(1, {3, 4});
  db.add(1, {5, 5});
  std::printf("  existing vias at (3,3) (4,3) (3,4) (5,5); grid (x right, y up):\n");
  for (int y = 6; y >= 2; --y) {
    std::printf("   ");
    for (int x = 2; x <= 6; ++x) {
      char c = '.';
      if (db.has(1, {x, y})) {
        c = 'V';
      } else if (db.would_create_fvp(1, {x, y})) {
        c = 'X';
      }
      std::printf(" %c", c);
    }
    std::printf("\n");
  }
  std::printf("  (V existing via, X blocked for rerouting, . available)\n\n");
}

void fig11() {
  std::printf("== Fig. 11: wheel via patterns ==\n");
  // Search 5x5 neighborhoods for via sets that contain no FVP window yet
  // whose decomposition graph is not 3-colorable -- the patterns the final
  // Welsh-Powell check exists for.
  int found = 0;
  for (std::uint32_t seed = 1; seed < 4000000 && found < 2; ++seed) {
    // Enumerate 7-subsets of the 5x5 grid pseudo-exhaustively via seed bits.
    std::vector<grid::Point> cells;
    std::uint32_t bits = seed * 2654435761u;
    for (int i = 0; i < 25 && cells.size() < 7; ++i) {
      if ((bits >> (i % 31)) & 1u) cells.push_back({i % 5, i / 5});
      bits = bits * 1664525u + 1013904223u;
    }
    if (cells.size() < 5) continue;
    via::ViaDb db(5, 5, 1);
    bool duplicate = false;
    for (const auto& p : cells) {
      if (db.has(1, p)) duplicate = true;
      else db.add(1, p);
    }
    if (duplicate || !db.scan_fvps(1).empty()) continue;
    const via::DecompGraph graph = via::DecompGraph::build_all_layers(db);
    if (via::three_colorable(graph)) continue;
    ++found;
    std::printf("  FVP-free but uncolorable %zu-via pattern:\n", cells.size());
    for (int y = 4; y >= 0; --y) {
      std::printf("   ");
      for (int x = 0; x < 5; ++x) std::printf(" %c", db.has(1, {x, y}) ? 'V' : '.');
      std::printf("\n");
    }
  }
  if (found == 0) {
    std::printf("  (no wheel pattern found in the sampled subsets -- they are "
                "rare,\n   which matches the paper's observation that the final "
                "check never fired)\n");
  }
  std::printf("\n");
}

void fig12() {
  std::printf("== Fig. 12: TPL-aware DVI on two adjacent single vias ==\n");
  // Two single vias one track apart; naive independent insertion at the
  // mutually closest DVICs yields a 2x2-ish cluster that is not
  // 3-colorable; Algorithm 3 avoids it.
  core::DviProblem problem;
  problem.vias.push_back(core::SingleVia{0, 1, {3, 3}, false});
  problem.vias.push_back(core::SingleVia{1, 1, {5, 3}, false});
  problem.feasible = {{{3, 4}, {3, 2}, {4, 3}}, {{5, 4}, {5, 2}, {4, 3}}};

  via::ViaDb db(9, 9, 1);
  db.add(1, {3, 3});
  db.add(1, {5, 3});
  const core::DviHeuristicOutput out = core::run_dvi_heuristic(problem, db);
  for (int i = 0; i < 2; ++i) {
    if (out.result.inserted[static_cast<std::size_t>(i)] >= 0) {
      const grid::Point p = out.inserted_at[static_cast<std::size_t>(i)];
      std::printf("  via %d protected by redundant via at (%d,%d), TPL color %d\n",
                  i, p.x, p.y, out.redundant_color[static_cast<std::size_t>(i)]);
    } else {
      std::printf("  via %d left dead\n", i);
    }
  }
  std::printf("  dead vias: %d, uncolorable: %d (both protected, both layers "
              "TPL-clean)\n\n",
              out.result.dead_vias, out.result.uncolorable);
}

}  // namespace

int main(int argc, char** argv) {
  const bool all = argc < 2;
  auto want = [&](const char* flag) {
    if (all) return true;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], flag) == 0) return true;
    }
    return false;
  };
  if (want("--fig2")) fig2();
  if (want("--fig4")) fig4();
  if (want("--fig6")) fig6();
  if (want("--fig7")) fig7();
  if (want("--fig10")) fig10();
  if (want("--fig11")) fig11();
  if (want("--fig12")) fig12();
  return 0;
}
