#include "core/dvi_exact.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>

#include "core/dvi_heuristic.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"
#include "via/coloring.hpp"
#include "via/decomp_graph.hpp"

namespace sadp::core {

namespace {

/// Union-find over via indices.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(static_cast<std::size_t>(n)) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int find(int x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }
  void unite(int a, int b) { parent_[static_cast<std::size_t>(find(a))] = find(b); }

 private:
  std::vector<int> parent_;
};

/// Choices below are component-local: entry j is the candidate index
/// inserted for via comp[j], or -1 for none.
class ExactSolver {
 public:
  ExactSolver(const DviProblem& problem, via::ViaDb db, const DviExactParams& params)
      : problem_(problem),
        db_(std::move(db)),
        params_(params),
        budget_(params.time_limit_seconds, params.cancel) {}

  DviExactOutput run() {
    DviExactOutput out;
    const int n = problem_.num_vias();
    out.result.inserted.assign(static_cast<std::size_t>(n), -1);
    out.inserted_at.assign(static_cast<std::size_t>(n), {});
    out.proven_optimal = true;

    // Warm start every component from the heuristic.
    const DviHeuristicOutput warm = run_dvi_heuristic(problem_, db_, DviParams{});

    // Spatial components: vias interact only within Chebyshev distance 4 of
    // their centers (on the same layer).  Bucketed by 4x4 cells so the
    // pairing stays near-linear.
    UnionFind uf(n);
    {
      std::unordered_map<std::int64_t, std::vector<int>> buckets;
      auto bucket_key = [](int layer, int cx, int cy) {
        return (static_cast<std::int64_t>(layer) << 48) ^
               (static_cast<std::int64_t>(static_cast<std::uint32_t>(cx)) << 24) ^
               static_cast<std::int64_t>(static_cast<std::uint32_t>(cy));
      };
      for (int i = 0; i < n; ++i) {
        const auto& via = problem_.vias[static_cast<std::size_t>(i)];
        buckets[bucket_key(via.via_layer, via.at.x / 4, via.at.y / 4)].push_back(i);
      }
      // Two vias interact iff some pair of their features (the via itself
      // or any feasible candidate) coincides or lies within same-color
      // pitch — exactly the variable sharing of the C2/C5/C6/C7 rows.
      // Feature 0 of via i is the via itself, feature k > 0 its candidate
      // k - 1.
      auto num_features = [&](int i) {
        return problem_.feasible[static_cast<std::size_t>(i)].size() + 1;
      };
      auto feature = [&](int i, std::size_t k) {
        const auto v = static_cast<std::size_t>(i);
        return k == 0 ? problem_.vias[v].at : problem_.feasible[v][k - 1];
      };
      auto interact = [&](int i, int j) {
        for (std::size_t a = 0; a < num_features(i); ++a) {
          const grid::Point p = feature(i, a);
          for (std::size_t b = 0; b < num_features(j); ++b) {
            const grid::Point q = feature(j, b);
            if (p == q || via::vias_conflict(p, q)) return true;
          }
        }
        return false;
      };
      for (int i = 0; i < n; ++i) {
        const auto& via = problem_.vias[static_cast<std::size_t>(i)];
        for (int dcx = -1; dcx <= 1; ++dcx) {
          for (int dcy = -1; dcy <= 1; ++dcy) {
            const auto it = buckets.find(bucket_key(
                via.via_layer, via.at.x / 4 + dcx, via.at.y / 4 + dcy));
            if (it == buckets.end()) continue;
            for (const int j : it->second) {
              if (j > i &&
                  grid::chebyshev(
                      via.at, problem_.vias[static_cast<std::size_t>(j)].at) <= 6 &&
                  interact(i, j)) {
                uf.unite(i, j);
              }
            }
          }
        }
      }
    }
    std::vector<std::vector<int>> comps;
    {
      std::vector<int> comp_of(static_cast<std::size_t>(n), -1);
      for (int i = 0; i < n; ++i) {
        const int root = uf.find(i);
        if (comp_of[static_cast<std::size_t>(root)] < 0) {
          comp_of[static_cast<std::size_t>(root)] = static_cast<int>(comps.size());
          comps.emplace_back();
        }
        comps[static_cast<std::size_t>(comp_of[static_cast<std::size_t>(root)])]
            .push_back(i);
      }
    }

    // Residual uncolorable count is inherited from the heuristic's greedy
    // pre-coloring (only ever nonzero for no-TPL routing inputs).
    out.result.uncolorable = warm.result.uncolorable;

    std::vector<int> choice;
    for (const auto& comp : comps) {
      choice.clear();
      for (const int i : comp) {
        choice.push_back(warm.result.inserted[static_cast<std::size_t>(i)]);
      }
      // With no budget left a component keeps the heuristic warm start, and
      // so do the remaining ones; a search stopped short keeps its incumbent.
      if (budget_.exhausted() || !solve_component(comp, choice)) {
        out.proven_optimal = false;
      }
      commit(comp, choice, out);
    }

    for (int i = 0; i < n; ++i) {
      if (out.result.inserted[static_cast<std::size_t>(i)] < 0) {
        ++out.result.dead_vias;
      }
    }
    out.result.seconds = budget_.seconds();
    out.nodes = nodes_;
    return out;
  }

 private:
  /// Exact 3-colorability of the component's originals plus the insertions
  /// of `choice`.
  [[nodiscard]] bool component_colorable(const std::vector<int>& comp,
                                         const std::vector<int>& choice) {
    std::vector<std::pair<grid::Point, int>> located;
    located.reserve(comp.size() * 2);
    for (const int i : comp) {
      located.push_back({problem_.vias[static_cast<std::size_t>(i)].at,
                         problem_.vias[static_cast<std::size_t>(i)].via_layer});
    }
    for (std::size_t j = 0; j < comp.size(); ++j) {
      const int k = choice[j];
      if (k < 0) continue;
      const auto i = static_cast<std::size_t>(comp[j]);
      located.push_back({problem_.feasible[i][static_cast<std::size_t>(k)],
                         problem_.vias[i].via_layer});
    }
    return via::three_colorable(via::DecompGraph::from_located(located),
                                /*budget=*/2'000'000);
  }

  /// Branch over the component's insertion choices.  `best_choice` enters
  /// holding the warm start's (valid) choice and leaves holding the best
  /// one found.  False when that is not proven optimal: the search stopped
  /// short, or the originals alone are uncolorable.
  [[nodiscard]] bool solve_component(const std::vector<int>& comp,
                                     std::vector<int>& best_choice) {
    // Order: fewest candidates first (most constrained), as positions in comp.
    std::vector<std::size_t> order(comp.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    auto num_candidates = [&](std::size_t j) {
      return problem_.feasible[static_cast<std::size_t>(comp[j])].size();
    };
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return num_candidates(a) < num_candidates(b);
    });

    int best = static_cast<int>(std::count_if(best_choice.begin(), best_choice.end(),
                                              [](int k) { return k >= 0; }));
    std::vector<int> choice(comp.size(), -1);

    // If the originals alone are uncolorable (no-TPL arms), exactness over
    // colorability is off the table; keep the heuristic answer.
    if (!component_colorable(comp, choice)) return false;

    const int total = static_cast<int>(comp.size());
    bool aborted = false;
    std::size_t component_nodes = 0;

    // DFS over the insertion choices with the FVP cut; colors at leaves.
    auto dfs = [&](auto&& self, int depth, int inserted) -> void {
      if (aborted) return;
      if (++nodes_ > params_.node_limit ||
          ++component_nodes > params_.component_node_limit ||
          budget_.node_exhausted(component_nodes)) {
        aborted = true;
        return;
      }
      if (inserted + (total - depth) <= best) return;  // bound
      if (depth == total) {
        if (inserted > best && component_colorable(comp, choice)) {
          best = inserted;
          best_choice = choice;
        }
        return;
      }
      const std::size_t j = order[static_cast<std::size_t>(depth)];
      const auto i = static_cast<std::size_t>(comp[j]);
      const auto& cands = problem_.feasible[i];
      const int layer = problem_.vias[i].via_layer;
      // Try inserting first (maximization), then skipping.
      for (int k = 0; k < static_cast<int>(cands.size()); ++k) {
        const grid::Point p = cands[static_cast<std::size_t>(k)];
        if (db_.has(layer, p)) continue;             // used location / via
        if (db_.would_create_fvp(layer, p)) continue;  // valid cut
        db_.add(layer, p);
        choice[j] = k;
        self(self, depth + 1, inserted + 1);
        choice[j] = -1;
        db_.remove(layer, p);
        if (aborted) return;
      }
      self(self, depth + 1, inserted);
    };
    dfs(dfs, 0, 0);
    return !aborted;
  }

  void commit(const std::vector<int>& comp, const std::vector<int>& choice,
              DviExactOutput& out) {
    for (std::size_t j = 0; j < comp.size(); ++j) {
      const auto i = static_cast<std::size_t>(comp[j]);
      const int k = choice[j];
      out.result.inserted[i] = k;
      if (k >= 0) {
        const grid::Point p = problem_.feasible[i][static_cast<std::size_t>(k)];
        out.inserted_at[i] = p;
        // Keep committed insertions visible to later components' FVP checks
        // (they cannot interact, but the shared db must stay consistent).
        db_.add(problem_.vias[i].via_layer, p);
      }
    }
  }

  const DviProblem& problem_;
  via::ViaDb db_;
  DviExactParams params_;
  const util::SolverBudget budget_;
  std::size_t nodes_ = 0;
};

}  // namespace

DviExactOutput solve_dvi_exact(const DviProblem& problem, const via::ViaDb& vias,
                               const DviExactParams& params) {
  obs::Span span("dvi_exact", static_cast<std::int64_t>(problem.num_vias()));
  ExactSolver solver(problem, vias, params);
  return solver.run();
}

}  // namespace sadp::core
