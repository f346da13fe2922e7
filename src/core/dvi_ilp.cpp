#include "core/dvi_ilp.hpp"

#include <unordered_map>

#include "via/coloring.hpp"

namespace sadp::core {

DviIlp build_dvi_ilp(const DviProblem& problem) {
  DviIlp out;
  ilp::Model& m = out.model;
  const int n = problem.num_vias();
  // B: a single uncolorable via can never be traded for insertions.  B':
  // deactivates the color constraints of non-inserted DVICs.
  const double uncolorable_penalty = static_cast<double>(n) + 1.0;
  constexpr double kBPrime = 4.0;

  // --- Variables -------------------------------------------------------------
  out.vars.via_color.resize(static_cast<std::size_t>(n));
  out.vars.insert.resize(static_cast<std::size_t>(n));
  out.vars.dvic_color.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& vc = out.vars.via_color[static_cast<std::size_t>(i)];
    vc[0] = m.add_var("oV" + std::to_string(i));
    vc[1] = m.add_var("gV" + std::to_string(i));
    vc[2] = m.add_var("bV" + std::to_string(i));
    vc[3] = m.add_var("uV" + std::to_string(i));
    const auto& cands = problem.feasible[static_cast<std::size_t>(i)];
    for (int k = 0; k < static_cast<int>(cands.size()); ++k) {
      const std::string suffix = std::to_string(i) + "_" + std::to_string(k);
      out.vars.insert[static_cast<std::size_t>(i)].push_back(m.add_var("D" + suffix));
      out.vars.dvic_color[static_cast<std::size_t>(i)].push_back(
          {m.add_var("oD" + suffix), m.add_var("gD" + suffix),
           m.add_var("bD" + suffix)});
    }
  }

  // --- Objective: maximize sum D - B * sum uV ---------------------------------
  std::vector<ilp::LinTerm> objective;
  for (int i = 0; i < n; ++i) {
    for (const ilp::VarId d : out.vars.insert[static_cast<std::size_t>(i)]) {
      objective.push_back({d, 1.0});
    }
    objective.push_back(
        {out.vars.via_color[static_cast<std::size_t>(i)][3], -uncolorable_penalty});
  }
  m.set_objective(std::move(objective), /*maximize=*/true);

  // --- C1: at most one redundant via per single via ---------------------------
  for (int i = 0; i < n; ++i) {
    const auto& d_vars = out.vars.insert[static_cast<std::size_t>(i)];
    if (d_vars.empty()) continue;
    std::vector<ilp::LinTerm> terms;
    for (const ilp::VarId d : d_vars) terms.push_back({d, 1.0});
    m.add_constraint(std::move(terms), ilp::Sense::kLe, 1.0);
  }

  // Spatial indices.
  const DviSites sites(problem);
  std::unordered_map<std::int64_t, int> via_at;
  for (int i = 0; i < n; ++i) {
    const auto& via = problem.vias[static_cast<std::size_t>(i)];
    via_at[grid::site_key(via.via_layer, via.at)] = i;
  }
  auto via_index_at = [&](int layer, grid::Point p) {
    const auto it = via_at.find(grid::site_key(layer, p));
    return it == via_at.end() ? -1 : it->second;
  };

  auto d_var = [&](const DvicRef& r) {
    return out.vars.insert[static_cast<std::size_t>(r.via)]
                          [static_cast<std::size_t>(r.k)];
  };
  auto dc_var = [&](const DvicRef& r, int c) {
    return out.vars.dvic_color[static_cast<std::size_t>(r.via)]
                              [static_cast<std::size_t>(r.k)][static_cast<std::size_t>(c)];
  };

  // --- C2: conflicting DVICs (same location) ----------------------------------
  for (const auto& [key, refs] : sites) {
    for (std::size_t a = 0; a < refs.size(); ++a) {
      for (std::size_t b = a + 1; b < refs.size(); ++b) {
        if (refs[a].via == refs[b].via) continue;  // covered by C1
        m.add_constraint({{d_var(refs[a]), 1.0}, {d_var(refs[b]), 1.0}},
                         ilp::Sense::kLe, 1.0);
      }
    }
  }

  // --- C3: exactly one color (or uncolorable) per via -------------------------
  for (int i = 0; i < n; ++i) {
    const auto& vc = out.vars.via_color[static_cast<std::size_t>(i)];
    m.add_constraint(
        {{vc[0], 1.0}, {vc[1], 1.0}, {vc[2], 1.0}, {vc[3], 1.0}},
        ilp::Sense::kEq, 1.0);
  }

  // --- C4: inserted redundant vias take exactly one color ---------------------
  for (int i = 0; i < n; ++i) {
    const auto& cands = problem.feasible[static_cast<std::size_t>(i)];
    for (int k = 0; k < static_cast<int>(cands.size()); ++k) {
      const DvicRef r{i, k};
      // oD + gD + bD - B'(D - 1) >= 1   and   oD + gD + bD + B'(D - 1) <= 1
      m.add_constraint({{dc_var(r, 0), 1.0},
                        {dc_var(r, 1), 1.0},
                        {dc_var(r, 2), 1.0},
                        {d_var(r), -kBPrime}},
                       ilp::Sense::kGe, 1.0 - kBPrime);
      m.add_constraint({{dc_var(r, 0), 1.0},
                        {dc_var(r, 1), 1.0},
                        {dc_var(r, 2), 1.0},
                        {d_var(r), kBPrime}},
                       ilp::Sense::kLe, 1.0 + kBPrime);
    }
  }

  // --- C5/C6/C7: same-color-pitch exclusions ----------------------------------
  for (int i = 0; i < n; ++i) {
    const auto& via = problem.vias[static_cast<std::size_t>(i)];
    const auto& vc_i = out.vars.via_color[static_cast<std::size_t>(i)];
    // C5: via-via pairs (emit once, i < i').
    for (const grid::Point d : via::kConflictOffsets) {
      const int j = via_index_at(via.via_layer, via.at + d);
      if (j <= i) continue;
      const auto& vc_j = out.vars.via_color[static_cast<std::size_t>(j)];
      for (int c = 0; c < 3; ++c) {
        m.add_constraint({{vc_i[static_cast<std::size_t>(c)], 1.0},
                          {vc_j[static_cast<std::size_t>(c)], 1.0}},
                         ilp::Sense::kLe, 1.0);
      }
    }

    // C6: via i vs DVICs of any via (including its own) within pitch:
    //   oV_i + oD + B'(D - 1) <= 1.
    for (const grid::Point d : via::kConflictOffsets) {
      for (const DvicRef& r : sites.at(via.via_layer, via.at + d)) {
        for (int c = 0; c < 3; ++c) {
          m.add_constraint({{vc_i[static_cast<std::size_t>(c)], 1.0},
                            {dc_var(r, c), 1.0},
                            {d_var(r), kBPrime}},
                           ilp::Sense::kLe, 1.0 + kBPrime);
        }
      }
    }

    // C7: DVIC of via i vs DVIC of via i' (i < i') within pitch:
    //   oD + oD' + B'(D + D' - 2) <= 1.
    const auto& cands = problem.feasible[static_cast<std::size_t>(i)];
    for (int k = 0; k < static_cast<int>(cands.size()); ++k) {
      const DvicRef r{i, k};
      for (const grid::Point d : via::kConflictOffsets) {
        for (const DvicRef& r2 :
             sites.at(via.via_layer, cands[static_cast<std::size_t>(k)] + d)) {
          if (r2.via <= i) continue;
          for (int c = 0; c < 3; ++c) {
            m.add_constraint({{dc_var(r, c), 1.0},
                              {dc_var(r2, c), 1.0},
                              {d_var(r), kBPrime},
                              {d_var(r2), kBPrime}},
                             ilp::Sense::kLe, 1.0 + 2.0 * kBPrime);
          }
        }
      }
    }
  }
  // --- Colorability cuts (valid inequalities) ---------------------------------
  // Implied by C3-C7, added to prune the search early:
  //  * any 2x2 block of colored vias is a K4 in the conflict graph, so at
  //    most 3 of its cells may hold a colored via;
  //  * any 3x3 window holds at most 5 colored vias (FVP rule 1).
  // A via with uV=1 takes no color and is exempt, hence the (1 - uV) terms.
  {
    // Window origins worth checking: around every DVIC location.
    std::unordered_map<std::int64_t, char> seen;
    auto emit_window_cut = [&](int layer, grid::Point origin, int size, int cap) {
      std::vector<ilp::LinTerm> terms;
      double rhs = cap;
      int population = 0;
      int d_count = 0;
      for (int dy = 0; dy < size; ++dy) {
        for (int dx = 0; dx < size; ++dx) {
          const grid::Point q{origin.x + dx, origin.y + dy};
          const int existing_via = via_index_at(layer, q);
          if (existing_via >= 0) {
            // (1 - uV) contribution: move the 1 to the rhs, keep +uV slack.
            rhs -= 1.0;
            terms.push_back(
                {out.vars.via_color[static_cast<std::size_t>(existing_via)][3], -1.0});
            ++population;
          }
          for (const DvicRef& r : sites.at(layer, q)) {
            terms.push_back({d_var(r), 1.0});
            ++population;
            ++d_count;
          }
        }
      }
      // Only binding when enough candidates exist to exceed the cap.
      if (d_count > 0 && population > cap) {
        m.add_constraint(std::move(terms), ilp::Sense::kLe, rhs);
      }
    };

    for (const auto& [key, refs] : sites) {
      const int layer = grid::site_layer(key);
      const grid::Point p = grid::site_point(key);
      for (int oy = p.y - 1; oy <= p.y; ++oy) {
        for (int ox = p.x - 1; ox <= p.x; ++ox) {
          const std::int64_t wkey = grid::site_key(layer, {ox, oy}) * 2;
          if (seen.emplace(wkey, 1).second) emit_window_cut(layer, {ox, oy}, 2, 3);
        }
      }
      for (int oy = p.y - 2; oy <= p.y; ++oy) {
        for (int ox = p.x - 2; ox <= p.x; ++ox) {
          const std::int64_t wkey = grid::site_key(layer, {ox, oy}) * 2 + 1;
          if (seen.emplace(wkey, 1).second) emit_window_cut(layer, {ox, oy}, 3, 5);
        }
      }
    }
  }
  return out;
}

DviIlpOutput solve_dvi_ilp(const DviProblem& problem,
                           const DviHeuristicOutput* warm_start,
                           const util::SolverBudget& budget) {
  DviIlpOutput out;
  const int n = problem.num_vias();

  DviIlp ilp_problem = build_dvi_ilp(problem);

  // Map the warm start's insertions and coloring onto the ILP variables.
  std::vector<int> warm;
  ilp::BnbParams bnb;
  if (warm_start != nullptr) {
    warm.assign(static_cast<std::size_t>(ilp_problem.model.num_vars()), 0);
    for (int i = 0; i < n; ++i) {
      const int color = warm_start->original_color[static_cast<std::size_t>(i)];
      const auto& vc = ilp_problem.vars.via_color[static_cast<std::size_t>(i)];
      warm[static_cast<std::size_t>(vc[color == via::kUncolored ? 3 : color])] = 1;
      const int k = warm_start->result.inserted[static_cast<std::size_t>(i)];
      if (k < 0) continue;
      warm[static_cast<std::size_t>(
          ilp_problem.vars.insert[static_cast<std::size_t>(i)]
                                 [static_cast<std::size_t>(k)])] = 1;
      const int dc = warm_start->redundant_color[static_cast<std::size_t>(i)];
      warm[static_cast<std::size_t>(
          ilp_problem.vars.dvic_color[static_cast<std::size_t>(i)]
                                     [static_cast<std::size_t>(k)]
                                     [static_cast<std::size_t>(dc)])] = 1;
    }
    bnb.warm_start = &warm;
  }

  const ilp::Solution solution = ilp::solve(ilp_problem.model, bnb, budget);
  out.status = solution.status;

  out.result.inserted.assign(static_cast<std::size_t>(n), -1);
  out.inserted_at.assign(static_cast<std::size_t>(n), {});
  if (solution.status == ilp::SolveStatus::kOptimal ||
      solution.status == ilp::SolveStatus::kFeasible) {
    for (int i = 0; i < n; ++i) {
      const auto& d_vars = ilp_problem.vars.insert[static_cast<std::size_t>(i)];
      for (int k = 0; k < static_cast<int>(d_vars.size()); ++k) {
        if (solution.value[static_cast<std::size_t>(d_vars[static_cast<std::size_t>(k)])]) {
          out.result.inserted[static_cast<std::size_t>(i)] = k;
          out.inserted_at[static_cast<std::size_t>(i)] =
              problem.feasible[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)];
          break;
        }
      }
      if (solution.value[static_cast<std::size_t>(
              ilp_problem.vars.via_color[static_cast<std::size_t>(i)][3])]) {
        ++out.result.uncolorable;
      }
    }
  }
  for (int i = 0; i < n; ++i) {
    if (out.result.inserted[static_cast<std::size_t>(i)] < 0) {
      ++out.result.dead_vias;
    }
  }
  out.result.seconds = budget.seconds();
  return out;
}

}  // namespace sadp::core
