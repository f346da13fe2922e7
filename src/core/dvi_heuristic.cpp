#include "core/dvi_heuristic.hpp"

#include <algorithm>
#include <queue>

#include "core/params.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"
#include "via/coloring.hpp"
#include "via/decomp_graph.hpp"

namespace sadp::core {

namespace {

struct HeapEntry {
  double dp;
  int via;
  int k;
  friend bool operator<(const HeapEntry& a, const HeapEntry& b) {
    if (a.dp != b.dp) return a.dp > b.dp;  // min-heap on DP
    if (a.via != b.via) return a.via > b.via;
    return a.k > b.k;
  }
};

class Heuristic {
 public:
  Heuristic(const DviProblem& problem, via::ViaDb db,
            const DviHeuristicOptions& options)
      : problem_(problem),
        db_(std::move(db)),
        options_(options),
        sites_(problem) {
    protected_.assign(static_cast<std::size_t>(problem_.num_vias()), false);
  }

  DviHeuristicOutput run() {
    util::Timer timer;
    DviHeuristicOutput out;
    out.result.inserted.assign(static_cast<std::size_t>(problem_.num_vias()), -1);
    out.inserted_at.assign(static_cast<std::size_t>(problem_.num_vias()), {});
    out.original_color.assign(static_cast<std::size_t>(problem_.num_vias()),
                              via::kUncolored);
    out.redundant_color.assign(static_cast<std::size_t>(problem_.num_vias()),
                               via::kUncolored);

    // TPL pre-coloring on the existing vias.
    std::vector<std::pair<grid::Point, int>> located;
    located.reserve(static_cast<std::size_t>(problem_.num_vias()));
    for (const auto& via : problem_.vias) located.push_back({via.at, via.via_layer});
    const via::DecompGraph pre_graph = via::DecompGraph::from_located(located);
    via::ColoringResult pre = via::welsh_powell(pre_graph);
    const int pre_uncolored = static_cast<int>(pre.uncolored.size());
    for (int i = 0; i < problem_.num_vias(); ++i) {
      out.original_color[static_cast<std::size_t>(i)] =
          pre.color[static_cast<std::size_t>(i)];
    }

    // Fixed features so far (originals, then kept redundant vias) and their
    // colors; repair passes extend both.
    std::vector<std::pair<grid::Point, int>> fixed = located;
    std::vector<int> fixed_colors = pre.color;

    const int passes = 1 + std::max(options_.repair_passes, 0);
    for (int pass = 0; pass < passes; ++pass) {
      // One priority-queue insertion sweep over the unprotected vias
      // (Algorithm 3's main loop; in pass 0 this is exactly the paper).
      std::priority_queue<HeapEntry> pq;
      for (int i = 0; i < problem_.num_vias(); ++i) {
        if (protected_[static_cast<std::size_t>(i)]) continue;
        const auto& cands = problem_.feasible[static_cast<std::size_t>(i)];
        for (int k = 0; k < static_cast<int>(cands.size()); ++k) {
          pq.push(HeapEntry{compute_dp(i, k), i, k});
        }
      }
      std::vector<int> pass_vias;
      while (!pq.empty()) {
        const HeapEntry top = pq.top();
        pq.pop();
        if (!valid(top.via, top.k)) continue;
        const double dp = compute_dp(top.via, top.k);
        if (dp != top.dp) {
          pq.push(HeapEntry{dp, top.via, top.k});
          continue;
        }
        insert(top.via, top.k, out);
        pass_vias.push_back(top.via);
      }
      if (pass_vias.empty()) break;

      // TPL coloring of this pass's insertions with all earlier colors
      // fixed; un-insert (and unprotect) any uncolorable redundancy.
      std::vector<std::pair<grid::Point, int>> all = fixed;
      std::vector<int> vertex_of(pass_vias.size());
      for (std::size_t k = 0; k < pass_vias.size(); ++k) {
        const int i = pass_vias[k];
        vertex_of[k] = static_cast<int>(all.size());
        all.push_back({out.inserted_at[static_cast<std::size_t>(i)],
                       problem_.vias[static_cast<std::size_t>(i)].via_layer});
      }
      const via::DecompGraph graph = via::DecompGraph::from_located(all);
      std::vector<int> seed(all.size(), via::kUncolored);
      std::copy(fixed_colors.begin(), fixed_colors.end(), seed.begin());
      via::ColoringResult coloring = via::welsh_powell_extend(graph, std::move(seed));

      for (std::size_t k = 0; k < pass_vias.size(); ++k) {
        const int i = pass_vias[k];
        const int color = coloring.color[static_cast<std::size_t>(vertex_of[k])];
        if (color == via::kUncolored) {
          // Un-insert the redundant via (and let a repair pass retry).
          db_.remove(problem_.vias[static_cast<std::size_t>(i)].via_layer,
                     out.inserted_at[static_cast<std::size_t>(i)]);
          out.result.inserted[static_cast<std::size_t>(i)] = -1;
          protected_[static_cast<std::size_t>(i)] = false;
        } else {
          out.redundant_color[static_cast<std::size_t>(i)] = color;
          fixed.push_back({out.inserted_at[static_cast<std::size_t>(i)],
                           problem_.vias[static_cast<std::size_t>(i)].via_layer});
          fixed_colors.push_back(color);
        }
      }
    }

    out.result.dead_vias = 0;
    for (int i = 0; i < problem_.num_vias(); ++i) {
      if (out.result.inserted[static_cast<std::size_t>(i)] < 0) {
        ++out.result.dead_vias;
      }
    }
    // Residual uncolorable vias: only ever the pre-coloring leftovers (the
    // router hands us TPL-decomposable layers, so this is normally 0).
    out.result.uncolorable = pre_uncolored;
    out.result.seconds = timer.seconds();
    return out;
  }

 private:
  [[nodiscard]] grid::Point loc(int via, int k) const {
    return problem_.feasible[static_cast<std::size_t>(via)][static_cast<std::size_t>(k)];
  }
  [[nodiscard]] int layer(int via) const {
    return problem_.vias[static_cast<std::size_t>(via)].via_layer;
  }

  /// Validity test of Algorithm 3 (three conditions, all must be false):
  /// a redundant via at a conflicting DVIC (same location), the via already
  /// protected, or the insertion would create an FVP.
  [[nodiscard]] bool valid(int via, int k) {
    if (protected_[static_cast<std::size_t>(via)]) return false;
    const grid::Point p = loc(via, k);
    if (db_.has(layer(via), p)) return false;  // conflicting DVIC used
    return !db_.would_create_fvp(layer(via), p);
  }

  /// The DVI penalty DP (Section III-E).
  [[nodiscard]] double compute_dp(int via, int k) {
    const grid::Point p = loc(via, k);
    const int v_layer = layer(via);

    // Conflicting DVICs: those of other, unprotected vias at p.
    const auto live = [&](const DvicRef& ref) {
      return ref.via != via && !protected_[static_cast<std::size_t>(ref.via)];
    };
    const auto here = sites_.at(v_layer, p);
    const int conflicting =
        static_cast<int>(std::count_if(here.begin(), here.end(), live));

    // Killed DVICs: feasible DVICs of unprotected neighbors that become
    // FVP-creating once a redundant via lands at p.  The scan is the whole
    // 5x5 window, not kConflictOffsets: a cell at (+-2, +-2) shares one 3x3
    // window with p, so a via at p can kill a DVIC there even though the
    // two sites do not conflict.
    int killed = 0;
    for (int dy = -2; dy <= 2; ++dy) {
      for (int dx = -2; dx <= 2; ++dx) {
        if (dx == 0 && dy == 0) continue;
        const grid::Point q{p.x + dx, p.y + dy};
        const auto there = sites_.at(v_layer, q);
        if (std::none_of(there.begin(), there.end(), live) || db_.has(v_layer, q)) {
          continue;
        }
        if (db_.would_create_fvp(v_layer, q)) continue;  // already dead
        if (would_kill(v_layer, p, q)) ++killed;
      }
    }

    const double feas =
        static_cast<double>(problem_.feasible[static_cast<std::size_t>(via)].size());
    return kDviDelta * feas + kDviLambda * conflicting + kDviMu * killed;
  }

  /// Would inserting at `p` make a later insertion at `q` create an FVP?
  [[nodiscard]] bool would_kill(int v_layer, grid::Point p, grid::Point q) {
    db_.add(v_layer, p);  // scoped probe, removed right after the check
    const bool killed = db_.would_create_fvp(v_layer, q);
    db_.remove(v_layer, p);
    return killed;
  }

  void insert(int via, int k, DviHeuristicOutput& out) {
    const grid::Point p = loc(via, k);
    db_.add(layer(via), p);
    protected_[static_cast<std::size_t>(via)] = true;
    out.result.inserted[static_cast<std::size_t>(via)] = k;
    out.inserted_at[static_cast<std::size_t>(via)] = p;
  }

  const DviProblem& problem_;
  via::ViaDb db_;
  DviHeuristicOptions options_;
  DviSites sites_;
  std::vector<char> protected_;
};

}  // namespace

DviHeuristicOutput run_dvi_heuristic(const DviProblem& problem,
                                     const via::ViaDb& vias,
                                     const DviHeuristicOptions& options) {
  obs::Span span("dvi_heuristic", static_cast<std::int64_t>(problem.num_vias()));
  Heuristic heuristic(problem, vias, options);
  return heuristic.run();
}

}  // namespace sadp::core
