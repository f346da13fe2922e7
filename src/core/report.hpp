// Design statistics and the human-readable report of a finished flow
// (`sadp_route --stats`).  A run's machine-readable record is the journal
// object, written as metrics by engine::metrics_json.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "core/dvic.hpp"
#include "core/flow.hpp"
#include "core/router.hpp"

namespace sadp::core {

/// Per-metal-layer statistics of a routed design.
struct LayerStats {
  int layer = 0;
  long long occupied_points = 0;
  long long wire_segments = 0;       ///< unit segments on this layer
  long long preferred_segments = 0;  ///< segments in the preferred direction
  double utilization = 0.0;          ///< occupied / total grid points
};

/// Aggregate statistics of a routed design.
struct DesignStats {
  std::vector<LayerStats> layers;
  std::vector<long long> vias_per_layer;  ///< index = via layer - 1
  long long preferred_turns = 0;
  long long non_preferred_turns = 0;
  /// Histogram of feasible-DVIC counts (index 0..4).
  std::array<long long, 5> dvic_histogram{};
};

/// Walk the routed nets and compute the statistics.
[[nodiscard]] DesignStats collect_design_stats(const SadpRouter& router);

/// Render an ExperimentResult (+ stats) as a human-readable text report.
[[nodiscard]] std::string render_text_report(const ExperimentResult& result,
                                             const DesignStats& stats);

}  // namespace sadp::core
