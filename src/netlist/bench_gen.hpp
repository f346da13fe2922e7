// Synthetic benchmark generator.
//
// The paper evaluates on six benchmarks from PARR [18] (Table I), which are
// not publicly distributable.  As documented in DESIGN.md, we substitute
// deterministic synthetic placed netlists with the same names, net counts
// and grid dimensions.  Pins are clustered per net (local nets dominate,
// matching the paper's routed wirelength of ~20 grid units per net) and are
// kept at Chebyshev distance >= 3 from each other so that the mandatory
// pin vias on via layer 1 can never form an unfixable FVP among themselves.
//
// Every instance is produced by a seeded PRNG keyed on the benchmark name,
// so repeated runs (and runs on different machines) see identical inputs.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "util/status.hpp"

namespace sadp::netlist {

/// Generation parameters for one synthetic instance.
struct BenchSpec {
  std::string name;
  int width = 0;
  int height = 0;
  int num_nets = 0;
  int num_metal_layers = 3;
  /// Cluster radius for normal nets; pins of a net fall within this
  /// Chebyshev distance of the net center.
  int local_radius = 9;
  /// Fraction of nets that are "global" (larger radius), stressing the
  /// rip-up-and-reroute machinery.
  double global_net_fraction = 0.03;
  /// Minimum Chebyshev distance between any two pins (across all nets).
  int min_pin_spacing = 3;
  /// When true, pins snap to standard-cell-like rows: y coordinates are
  /// multiples of `row_pitch`, mimicking row-based placements where pins
  /// sit on cell boundaries.  Off by default (the Table I substitutes use
  /// unconstrained placements).
  bool row_structured = false;
  int row_pitch = 6;
  std::uint64_t seed = 0;  ///< 0 = derive from name.
  /// Area-scale multiplier, resolved at generation time: net count scales
  /// by `scale`, linear dimensions by sqrt(scale), so pin density is
  /// preserved.  1.0 = no scaling.  See resolve_scale().
  double scale = 1.0;
};

/// Statistics row of the paper's Table I.
struct BenchStats {
  std::string name;
  int num_nets = 0;
  int width = 0;
  int height = 0;
};

/// The six Table I benchmarks: name -> (#nets, grid size).
[[nodiscard]] std::vector<BenchStats> paper_benchmarks();

/// Scaled-down companions (suffix "_s"): half the linear dimensions and a
/// quarter of the nets, preserving density; these are the default for the
/// fast benchmark harness.
[[nodiscard]] std::vector<BenchStats> scaled_benchmarks();

/// Spec for a named paper benchmark, either full scale or scaled.
///
/// Also resolves the partition-benchmark family (DESIGN.md section 14):
/// "<base>_10x" is the base benchmark with scale = 10 (10x the nets on 10x
/// the area), and "<base>_10x_ramp" additionally raises global_net_fraction
/// and local_radius — a congestion ramp that stresses the reconcile pass.
[[nodiscard]] std::optional<BenchSpec> spec_for(const std::string& name,
                                                bool scaled);

/// Fold BenchSpec::scale into the explicit fields (num_nets *= scale,
/// width/height *= sqrt(scale)) and reset scale to 1.  Identity when scale
/// is already 1.
[[nodiscard]] BenchSpec resolve_scale(BenchSpec spec);

/// Check a spec before generation: grid at least 16x16, a positive net
/// count, and enough area for the requested pins at min_pin_spacing.  A
/// scale is checked before it is resolved: the scaled net count must fit an
/// int and each scaled side grid::kMaxSide.
/// Returns kInvalidInput with a human-readable message on violations.
[[nodiscard]] util::Status validate_spec(const BenchSpec& spec);

/// Generate a synthetic instance from a spec.  Deterministic in the spec.
/// Throws sadp::FlowError (kInvalidInput) on invalid or unsatisfiable specs
/// — in all build types, not just debug.
[[nodiscard]] PlacedNetlist generate(const BenchSpec& spec);

/// Convenience: generate a named paper benchmark.  Throws sadp::FlowError
/// (kInvalidInput) when `name` is not a Table I benchmark.
[[nodiscard]] PlacedNetlist generate_named(const std::string& name, bool scaled);

}  // namespace sadp::netlist
