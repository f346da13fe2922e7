#include "netlist/bench_gen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <tuple>

#include "util/rng.hpp"

namespace sadp::netlist {

namespace {

const std::vector<BenchStats>& table1() {
  static const std::vector<BenchStats> rows = {
      {"ecc", 1671, 436, 446}, {"efc", 2219, 406, 421}, {"ctl", 2706, 496, 503},
      {"alu", 3108, 406, 408}, {"div", 5813, 636, 646}, {"top", 22201, 1176, 1179},
  };
  return rows;
}

/// Occupancy bitmap enforcing the minimum pin spacing.
class PinField {
 public:
  PinField(int width, int height) : width_(width), height_(height) {
    taken_.assign(static_cast<std::size_t>(width) * height, 0);
  }

  [[nodiscard]] bool can_place(grid::Point p, int spacing) const {
    for (int dy = -spacing + 1; dy <= spacing - 1; ++dy) {
      for (int dx = -spacing + 1; dx <= spacing - 1; ++dx) {
        const int x = p.x + dx, y = p.y + dy;
        if (x < 0 || x >= width_ || y < 0 || y >= height_) continue;
        if (taken_[static_cast<std::size_t>(y) * width_ + x]) return false;
      }
    }
    return true;
  }

  void place(grid::Point p) {
    taken_[static_cast<std::size_t>(p.y) * width_ + p.x] = 1;
  }

 private:
  int width_;
  int height_;
  std::vector<char> taken_;
};

/// Number of pins for the next net: 60% 2-pin, 25% 3-pin, 15% 4-pin.
int draw_pin_count(util::Xoshiro256StarStar& rng) {
  const double u = rng.uniform();
  if (u < 0.60) return 2;
  if (u < 0.85) return 3;
  return 4;
}

}  // namespace

std::vector<BenchStats> paper_benchmarks() { return table1(); }

std::vector<BenchStats> scaled_benchmarks() {
  std::vector<BenchStats> rows;
  for (const auto& full : table1()) {
    rows.push_back(BenchStats{full.name + "_s", (full.num_nets + 3) / 4,
                              (full.width + 1) / 2, (full.height + 1) / 2});
  }
  return rows;
}

std::optional<BenchSpec> spec_for(const std::string& name, bool scaled) {
  // Partition family: "<base>_10x" / "<base>_10x_ramp" resolve the base
  // benchmark and scale it by 10 in area; the ramp variant also raises the
  // global-net fraction and cluster radius so congestion — and with it the
  // cross-cut reconcile work — ramps up.
  const auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::string(suffix).size();
    return name.size() > n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends_with("_10x") || ends_with("_10x_ramp")) {
    const bool ramp = ends_with("_10x_ramp");
    const std::string base = name.substr(0, name.size() - (ramp ? 9 : 4));
    auto spec = spec_for(base, scaled);
    if (!spec.has_value()) return std::nullopt;
    spec->name = name;
    spec->scale = 10.0;
    if (ramp) {
      spec->global_net_fraction = 0.10;
      spec->local_radius = 14;
    }
    return spec;
  }

  const auto rows = scaled ? scaled_benchmarks() : paper_benchmarks();
  const std::string wanted = scaled && name.size() >= 2 &&
                                     name.compare(name.size() - 2, 2, "_s") == 0
                                 ? name
                                 : (scaled ? name + "_s" : name);
  for (const auto& row : rows) {
    if (row.name != wanted) continue;
    BenchSpec spec;
    spec.name = row.name;
    spec.width = row.width;
    spec.height = row.height;
    spec.num_nets = row.num_nets;
    return spec;
  }
  return std::nullopt;
}

BenchSpec resolve_scale(BenchSpec spec) {
  if (spec.scale == 1.0) return spec;
  const double linear = std::sqrt(spec.scale);
  spec.width = static_cast<int>(std::lround(spec.width * linear));
  spec.height = static_cast<int>(std::lround(spec.height * linear));
  spec.num_nets = static_cast<int>(std::lround(spec.num_nets * spec.scale));
  spec.scale = 1.0;
  return spec;
}

util::Status validate_spec(const BenchSpec& spec) {
  if (!(spec.scale > 0.0)) {
    return util::Status::invalid_input("benchmark spec '" + spec.name +
                                       "' needs scale > 0, got " +
                                       std::to_string(spec.scale));
  }
  if (spec.scale != 1.0) {
    // resolve_scale casts the scaled sizes to int, and a side must also fit
    // the site key's coordinates, so both are checked before it runs.
    const double linear = std::sqrt(spec.scale);
    for (const auto& [field, size, limit] :
         {std::tuple{"width", spec.width * linear, grid::kMaxSide},
          std::tuple{"height", spec.height * linear, grid::kMaxSide},
          std::tuple{"num_nets", spec.num_nets * spec.scale,
                     std::numeric_limits<int>::max()}}) {
      if (!(std::abs(std::round(size)) <= limit)) {
        char detail[128];
        std::snprintf(detail, sizeof detail,
                      "' at scale %g resolves %s to %.0f, past its limit %d",
                      spec.scale, field, std::round(size), limit);
        return util::Status::invalid_input("benchmark spec '" + spec.name + detail);
      }
    }
    return validate_spec(resolve_scale(spec));
  }
  if (spec.width < 16 || spec.height < 16) {
    return util::Status::invalid_input(
        "benchmark spec '" + spec.name + "' needs a grid of at least 16x16, got " +
        std::to_string(spec.width) + "x" + std::to_string(spec.height));
  }
  if (spec.num_nets <= 0) {
    return util::Status::invalid_input("benchmark spec '" + spec.name +
                                       "' needs a positive net count, got " +
                                       std::to_string(spec.num_nets));
  }
  if (spec.min_pin_spacing < 1) {
    return util::Status::invalid_input(
        "benchmark spec '" + spec.name + "' needs min_pin_spacing >= 1, got " +
        std::to_string(spec.min_pin_spacing));
  }
  // Capacity sanity: at min_pin_spacing s, each placed pin excludes a
  // (2s-1)^2 neighborhood, so the grid can hold at most area/s^2-ish pins.
  // Worst case every net draws 4 pins.
  const long long spacing = spec.min_pin_spacing;
  const long long capacity = (static_cast<long long>(spec.width) *
                              spec.height) /
                             (spacing * spacing);
  const long long worst_case_pins = 4LL * spec.num_nets;
  if (worst_case_pins > capacity) {
    return util::Status::invalid_input(
        "benchmark spec '" + spec.name + "' cannot fit " +
        std::to_string(worst_case_pins) + " pins at spacing " +
        std::to_string(spacing) + " into a " + std::to_string(spec.width) +
        "x" + std::to_string(spec.height) + " grid (capacity ~" +
        std::to_string(capacity) + ")");
  }
  return util::Status::ok();
}

PlacedNetlist generate(const BenchSpec& raw_spec) {
  if (const util::Status valid = validate_spec(raw_spec); !valid.is_ok()) {
    throw FlowError(valid.code(), valid.message());
  }
  const BenchSpec spec = resolve_scale(raw_spec);
  const std::uint64_t seed =
      spec.seed != 0 ? spec.seed : util::fnv1a(spec.name) ^ 0xA5A5A5A5DEADBEEFull;
  util::Xoshiro256StarStar rng(seed);

  PlacedNetlist out;
  out.name = spec.name;
  out.width = spec.width;
  out.height = spec.height;
  out.num_metal_layers = spec.num_metal_layers;
  out.nets.reserve(static_cast<std::size_t>(spec.num_nets));

  PinField field(spec.width, spec.height);
  const int global_radius = std::max(spec.local_radius * 2,
                                     std::min(spec.width, spec.height) / 6);

  for (int n = 0; n < spec.num_nets; ++n) {
    Net net;
    net.id = n;
    net.name = spec.name + "_n" + std::to_string(n);
    const int pin_count = draw_pin_count(rng);
    const int radius = rng.chance(spec.global_net_fraction) ? global_radius
                                                            : spec.local_radius;

    // Retry with fresh centers until the whole cluster fits; with the low
    // pin densities of the Table I instances this converges immediately.
    bool placed_net = false;
    for (int attempt = 0; attempt < 1000 && !placed_net; ++attempt) {
      const grid::Point center{
          static_cast<int>(rng.range(0, spec.width - 1)),
          static_cast<int>(rng.range(0, spec.height - 1))};
      std::vector<grid::Point> pins;
      for (int trial = 0; trial < 200 && static_cast<int>(pins.size()) < pin_count;
           ++trial) {
        grid::Point p{
            static_cast<int>(rng.range(center.x - radius, center.x + radius)),
            static_cast<int>(rng.range(center.y - radius, center.y + radius))};
        p.x = std::clamp(p.x, 0, spec.width - 1);
        p.y = std::clamp(p.y, 0, spec.height - 1);
        if (spec.row_structured && spec.row_pitch > 1) {
          // Snap to the nearest cell row inside the grid.
          p.y = std::clamp((p.y / spec.row_pitch) * spec.row_pitch, 0,
                           ((spec.height - 1) / spec.row_pitch) * spec.row_pitch);
        }
        bool clear = field.can_place(p, spec.min_pin_spacing);
        for (const auto& q : pins) {
          clear = clear && grid::chebyshev(p, q) >= spec.min_pin_spacing;
        }
        if (clear) pins.push_back(p);
      }
      if (static_cast<int>(pins.size()) == pin_count) {
        for (const auto& p : pins) {
          field.place(p);
          net.pins.push_back(Pin{p});
        }
        placed_net = true;
      }
    }
    if (!placed_net) {
      throw FlowError(util::StatusCode::kInvalidInput,
                      "benchmark spec '" + spec.name +
                          "' is too dense: could not place a " +
                          std::to_string(pin_count) + "-pin cluster for net " +
                          std::to_string(n) + " after 1000 attempts");
    }
    out.nets.push_back(std::move(net));
  }
  return out;
}

PlacedNetlist generate_named(const std::string& name, bool scaled) {
  const auto spec = spec_for(name, scaled);
  if (!spec.has_value()) {
    throw FlowError(util::StatusCode::kInvalidInput,
                    "unknown benchmark '" + name +
                        "' (expected one of the Table I names: ecc, efc, ctl, "
                        "alu, div, top)");
  }
  return generate(*spec);
}

}  // namespace sadp::netlist
