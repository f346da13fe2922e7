// Differential tests of the incremental hot-path state against from-scratch
// oracles.
//
// The router's inner loops read three pieces of incrementally-maintained
// state: the ViaDb per-window FVP cache, the CostMaps fused vertex-cost
// arrays, and the RoutingGrid distinct-net occupancy counts.  Each is a pure
// function of the underlying occupancy/cost components; these tests churn
// the structures with randomized (but seeded, hence reproducible)
// add/remove sequences and verify after every step that the cached state is
// bit-identical to a naive recomputation.  Two compact representations are
// checked against the straightforward ones they replaced, kept here as
// oracles: CostMaps' per-via DVIC-mask records against recording every
// deposit, and RoutingGrid's inline occupants against a vector per slot.  A
// final test runs the whole flow twice and checks the result rows —
// including the perf counters — are bit-identical run to run.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/cost_maps.hpp"
#include "core/flow.hpp"
#include "core/routed_net.hpp"
#include "grid/routing_grid.hpp"
#include "grid/turns.hpp"
#include "netlist/bench_gen.hpp"
#include "via/fvp.hpp"
#include "via/via_db.hpp"

namespace sadp {
namespace {

// --- ViaDb: incremental FVP state vs. occupancy rescans ----------------------

/// Window mask recomputed from scratch out of ViaDb::has() — the quantity
/// the per-window cache must always equal.
via::WindowMask oracle_mask(const via::ViaDb& db, int layer, grid::Point origin) {
  via::WindowMask mask = 0;
  for (int dy = 0; dy < via::kWindowSize; ++dy) {
    for (int dx = 0; dx < via::kWindowSize; ++dx) {
      const grid::Point p{origin.x + dx, origin.y + dy};
      if (db.in_bounds(p) && db.has(layer, p)) {
        mask |= via::WindowMask{1} << via::window_bit(dx, dy);
      }
    }
  }
  return mask;
}

/// Row-major from-scratch FVP scan (the pre-incremental implementation).
std::vector<via::FvpWindow> oracle_scan(const via::ViaDb& db, int layer) {
  std::vector<via::FvpWindow> fvps;
  for (int oy = -(via::kWindowSize - 1); oy < db.height(); ++oy) {
    for (int ox = -(via::kWindowSize - 1); ox < db.width(); ++ox) {
      const grid::Point origin{ox, oy};
      if (via::is_fvp(oracle_mask(db, layer, origin))) {
        fvps.push_back({layer, origin});
      }
    }
  }
  return fvps;
}

void expect_via_db_matches_oracle(const via::ViaDb& db, int step) {
  std::size_t oracle_fvp_count = 0;
  for (int layer = 1; layer <= db.num_via_layers(); ++layer) {
    for (int oy = -(via::kWindowSize - 1); oy < db.height(); ++oy) {
      for (int ox = -(via::kWindowSize - 1); ox < db.width(); ++ox) {
        const grid::Point origin{ox, oy};
        const via::WindowMask want = oracle_mask(db, layer, origin);
        ASSERT_EQ(db.window_mask(layer, origin), want)
            << "step " << step << " layer " << layer << " origin (" << ox
            << "," << oy << ")";
        ASSERT_EQ(db.window_is_fvp(layer, origin), via::is_fvp(want))
            << "step " << step << " layer " << layer << " origin (" << ox
            << "," << oy << ")";
        if (via::is_fvp(want)) ++oracle_fvp_count;
      }
    }
    ASSERT_EQ(db.scan_fvps(layer), oracle_scan(db, layer)) << "step " << step;
  }
  ASSERT_EQ(db.fvp_count(), oracle_fvp_count) << "step " << step;

  // The point predicates: would_create_fvp / in_fvp against hypothetical /
  // current oracle masks of the nine windows containing each point.
  for (int layer = 1; layer <= db.num_via_layers(); ++layer) {
    for (int y = 0; y < db.height(); ++y) {
      for (int x = 0; x < db.width(); ++x) {
        const grid::Point p{x, y};
        bool want_would = false;
        bool want_in = false;
        for (int dy = -(via::kWindowSize - 1); dy <= 0; ++dy) {
          for (int dx = -(via::kWindowSize - 1); dx <= 0; ++dx) {
            const grid::Point origin{x + dx, y + dy};
            const via::WindowMask cur = oracle_mask(db, layer, origin);
            const auto bit = via::WindowMask{1} << via::window_bit(-dx, -dy);
            want_would = want_would || via::is_fvp(static_cast<via::WindowMask>(cur | bit));
            want_in = want_in || via::is_fvp(cur);
          }
        }
        ASSERT_EQ(db.would_create_fvp(layer, p), want_would)
            << "step " << step << " layer " << layer << " p (" << x << "," << y << ")";
        ASSERT_EQ(db.in_fvp(layer, p), want_in)
            << "step " << step << " layer " << layer << " p (" << x << "," << y << ")";
      }
    }
  }
}

TEST(ViaDbIncremental, MatchesFromScratchOracleUnderRandomChurn) {
  constexpr int kWidth = 12, kHeight = 10, kLayers = 2, kSteps = 300;
  via::ViaDb db(kWidth, kHeight, kLayers);
  std::mt19937 rng(20160607);  // seeded: failures replay exactly
  std::uniform_int_distribution<int> layer_dist(1, kLayers);
  std::uniform_int_distribution<int> x_dist(0, kWidth - 1);
  std::uniform_int_distribution<int> y_dist(0, kHeight - 1);
  std::uniform_int_distribution<int> op_dist(0, 99);

  // Live via occurrences (with refcounted duplicates, as congested nets
  // produce them), so removals always target a present via.
  std::vector<std::pair<int, grid::Point>> live;

  for (int step = 0; step < kSteps; ++step) {
    const bool removing = !live.empty() && op_dist(rng) < 45;
    if (removing) {
      std::uniform_int_distribution<std::size_t> pick(0, live.size() - 1);
      const std::size_t i = pick(rng);
      db.remove(live[i].first, live[i].second);
      live[i] = live.back();
      live.pop_back();
    } else {
      const int layer = layer_dist(rng);
      const grid::Point p{x_dist(rng), y_dist(rng)};
      db.add(layer, p);
      live.emplace_back(layer, p);
    }
    // Full oracle sweep every few steps, cheap spot checks otherwise.
    if (step % 10 == 0 || step == kSteps - 1) {
      expect_via_db_matches_oracle(db, step);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  // Drain to empty: the cache must come back to the all-clear state.
  while (!live.empty()) {
    db.remove(live.back().first, live.back().second);
    live.pop_back();
  }
  expect_via_db_matches_oracle(db, kSteps);
  EXPECT_EQ(db.fvp_count(), 0u);
}

// --- CostMaps: fused arrays vs. component sums -------------------------------

struct CostFixture {
  grid::RoutingGrid routing{20, 20, 3};
  via::ViaDb vias{20, 20, 2};
  grid::TurnRules rules = grid::TurnRules::sim_cut();
};

/// A small random L-shaped net with one movable via, the geometry
/// add_net_costs expects (metal on both via layers, applied to the grid).
core::RoutedNet random_via_net(CostFixture& f, grid::NetId id, std::mt19937& rng) {
  std::uniform_int_distribution<int> coord(3, 16);
  std::uniform_int_distribution<int> flip(0, 1);
  const grid::Point at{coord(rng), coord(rng)};
  const grid::Dir m2_dir = flip(rng) ? grid::Dir::kEast : grid::Dir::kWest;
  const grid::Dir m3_dir = flip(rng) ? grid::Dir::kNorth : grid::Dir::kSouth;
  core::RoutedNet net(id);
  net.add_segment(2, at, m2_dir);
  net.add_segment(2, at + grid::step(m2_dir), m2_dir);
  net.add_segment(3, at, m3_dir);
  net.add_segment(3, at + grid::step(m3_dir), m3_dir);
  net.add_via(2, at);
  net.apply_to(f.routing, f.vias);
  return net;
}

void expect_fused_matches_components(const core::CostMaps& costs,
                                     const grid::RoutingGrid& grid, int step) {
  for (int layer = 2; layer <= grid.num_metal_layers(); ++layer) {
    for (int y = 0; y < grid.height(); ++y) {
      for (int x = 0; x < grid.width(); ++x) {
        const grid::Point p{x, y};
        // Bitwise equality, not approximate: the fused slot is recomputed
        // from the components in a fixed association order, so any ULP of
        // drift is a bug that would break cross-run determinism.
        ASSERT_EQ(costs.fused_metal_cost(layer, p),
                  costs.metal_history(layer, p) + costs.metal_penalty(layer, p))
            << "step " << step << " metal layer " << layer << " (" << x << "," << y << ")";
      }
    }
  }
  for (int layer = 1; layer <= grid.num_via_layers(); ++layer) {
    for (int y = 0; y < grid.height(); ++y) {
      for (int x = 0; x < grid.width(); ++x) {
        const grid::Point p{x, y};
        ASSERT_EQ(costs.fused_via_cost(layer, p),
                  costs.via_history(layer, p) + costs.via_penalty(layer, p))
            << "step " << step << " via layer " << layer << " (" << x << "," << y << ")";
      }
    }
  }
}

TEST(CostMapsFused, MatchesComponentSumUnderRandomChurn) {
  CostFixture f;
  core::FlowOptions options;
  options.consider_dvi = true;
  options.consider_tpl = true;
  core::CostMaps costs(f.routing, f.rules, options);

  std::mt19937 rng(20160608);
  std::uniform_int_distribution<int> op_dist(0, 99);
  std::uniform_int_distribution<int> coord(0, 19);
  std::uniform_real_distribution<double> amount(0.25, 3.0);

  std::vector<core::RoutedNet> applied;
  grid::NetId next_id = 0;

  for (int step = 0; step < 120; ++step) {
    const int op = op_dist(rng);
    if (op < 40 || applied.empty()) {
      applied.push_back(random_via_net(f, next_id++, rng));
      costs.add_net_costs(applied.back());
    } else if (op < 70) {
      std::uniform_int_distribution<std::size_t> pick(0, applied.size() - 1);
      const std::size_t i = pick(rng);
      costs.remove_net_costs(applied[i]);
      applied[i].remove_from(f.routing, f.vias);
      applied[i] = std::move(applied.back());
      applied.pop_back();
    } else if (op < 85) {
      costs.bump_metal_history(2 + (op & 1), {coord(rng), coord(rng)}, amount(rng));
    } else {
      costs.bump_via_history(1 + (op & 1), {coord(rng), coord(rng)}, amount(rng));
    }
    if (step % 5 == 0 || step == 119) {
      expect_fused_matches_components(costs, f.routing, step);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  // Unwind everything: fused arrays must return to pure history state.
  while (!applied.empty()) {
    costs.remove_net_costs(applied.back());
    applied.back().remove_from(f.routing, f.vias);
    applied.pop_back();
  }
  expect_fused_matches_components(costs, f.routing, -1);
  // Interleaved add/remove leaves at most rounding residue in the component
  // arrays ((a + b) - a - b need not be exactly 0 in floating point); the
  // invariant under test is fused == components bitwise, checked above.
  for (int layer = 1; layer <= f.routing.num_via_layers(); ++layer) {
    for (int y = 0; y < f.routing.height(); ++y) {
      for (int x = 0; x < f.routing.width(); ++x) {
        ASSERT_NEAR(costs.via_penalty(layer, {x, y}), 0.0, 1e-9);
      }
    }
  }
}

// --- CostMaps: mask records vs. recorded deposits ---------------------------

/// The cost bookkeeping CostMaps used before records shrank to one DVIC
/// mask per via: one array per component map, and every deposit recorded
/// per net as {map, slot, amount} and subtracted entry by entry on removal.
/// The oracle the regenerated deposits must match bit for bit.
class ReferenceCostMaps {
 public:
  enum Map { kBdcVia, kBdcMetal, kAmcVia, kCdcVia, kTplcVia, kNumMaps };

  ReferenceCostMaps(const grid::RoutingGrid& grid, const grid::TurnRules& rules,
                    core::FlowOptions options)
      : grid_(grid), rules_(rules), options_(options) {
    const auto via_cells =
        static_cast<std::size_t>(grid.num_via_layers() * grid.num_points());
    const auto metal_cells =
        static_cast<std::size_t>(grid.num_metal_layers() * grid.num_points());
    for (int m = 0; m < kNumMaps; ++m) {
      maps[m].assign(m == kBdcMetal ? metal_cells : via_cells, 0.0);
    }
    hist_via.assign(via_cells, 0.0);
    hist_metal.assign(metal_cells, 0.0);
  }

  void add_net_costs(const core::RoutedNet& net) {
    std::vector<Entry>& record = records_[net.id()];
    if (options_.consider_dvi) {
      for (const auto& via : net.vias()) {
        const auto dvics =
            core::feasible_dvics(grid_, rules_, net, via.via_layer, via.at);
        if (dvics.empty()) continue;
        const double bdc = options_.cost.alpha / static_cast<double>(dvics.size());
        const double cdc = options_.cost.beta / static_cast<double>(dvics.size());
        for (const auto& d : dvics) {
          deposit(kBdcVia, via_slot(via.via_layer, d), bdc, record);
          deposit(kBdcMetal, metal_slot(via.via_layer, d), bdc, record);
          deposit(kBdcMetal, metal_slot(via.via_layer + 1, d), bdc, record);
          for (grid::Dir dir : grid::kPlanarDirs) {
            const grid::Point q = d + grid::step(dir);
            if (!grid_.in_bounds(q) || q == via.at) continue;
            deposit(kCdcVia, via_slot(via.via_layer, q), cdc, record);
          }
        }
      }
      for (const auto& [key, arms] : net.metal()) {
        const int layer = core::key_layer(key);
        const grid::Point p = core::key_point(key);
        for (grid::Dir dir : grid::kPlanarDirs) {
          const grid::Point q = p + grid::step(dir);
          if (!grid_.in_bounds(q)) continue;
          for (int v : {layer - 1, layer}) {
            if (v < 1 || v > grid_.num_via_layers()) continue;
            deposit(kAmcVia, via_slot(v, q), options_.cost.amc, record);
          }
        }
      }
    }
    if (options_.consider_tpl) {
      for (const auto& via : net.vias()) {
        for (int dy = -2; dy <= 2; ++dy) {
          for (int dx = -2; dx <= 2; ++dx) {
            const grid::Point q{via.at.x + dx, via.at.y + dy};
            if (!grid_.in_bounds(q) || !via::vias_conflict(via.at, q)) continue;
            deposit(kTplcVia, via_slot(via.via_layer, q), options_.cost.gamma,
                    record);
          }
        }
      }
    }
  }

  void remove_net_costs(grid::NetId id) {
    for (const Entry& entry : records_.at(id)) {
      maps[entry.map][entry.slot] -= entry.amount;
    }
    records_.erase(id);
  }

  [[nodiscard]] std::size_t via_slot(int via_layer, grid::Point p) const {
    return static_cast<std::size_t>((via_layer - 1) * grid_.num_points() +
                                    grid_.index(p));
  }
  [[nodiscard]] std::size_t metal_slot(int layer, grid::Point p) const {
    return static_cast<std::size_t>((layer - 1) * grid_.num_points() +
                                    grid_.index(p));
  }

  std::vector<double> maps[kNumMaps];
  std::vector<double> hist_via;
  std::vector<double> hist_metal;

 private:
  struct Entry {
    Map map;
    std::size_t slot;
    double amount;
  };
  void deposit(Map map, std::size_t slot, double amount,
               std::vector<Entry>& record) {
    maps[map][slot] += amount;
    record.push_back(Entry{map, slot, amount});
  }

  const grid::RoutingGrid& grid_;
  const grid::TurnRules& rules_;
  core::FlowOptions options_;
  std::map<grid::NetId, std::vector<Entry>> records_;
};

/// A net with one to three vias on random layers inside a 9x9 patch, so
/// nets crowd each other and DVIC feasibility drifts between a net's
/// add and its removal.
core::RoutedNet random_multi_via_net(CostFixture& f, grid::NetId id,
                                     std::mt19937& rng) {
  std::uniform_int_distribution<int> coord(5, 13);
  std::uniform_int_distribution<int> via_count(1, 3);
  std::uniform_int_distribution<int> layer(1, 2);
  std::uniform_int_distribution<int> dir(0, 3);
  core::RoutedNet net(id);
  for (int k = via_count(rng); k > 0; --k) {
    const grid::Point at{coord(rng), coord(rng)};
    const int v = layer(rng);
    net.add_segment(v, at, grid::kPlanarDirs[static_cast<std::size_t>(dir(rng))]);
    net.add_segment(v + 1, at,
                    grid::kPlanarDirs[static_cast<std::size_t>(dir(rng))]);
    net.add_via(v, at);
  }
  net.apply_to(f.routing, f.vias);
  return net;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_costs_match_reference(const core::CostMaps& costs,
                                  const ReferenceCostMaps& ref,
                                  const grid::RoutingGrid& grid, int step) {
  using R = ReferenceCostMaps;
  for (int layer = 1; layer <= grid.num_metal_layers(); ++layer) {
    for (int y = 0; y < grid.height(); ++y) {
      for (int x = 0; x < grid.width(); ++x) {
        const grid::Point p{x, y};
        const std::size_t i = ref.metal_slot(layer, p);
        const auto& c = costs.metal_costs(layer, p);
        ASSERT_TRUE(same_bits(c.bdc, ref.maps[R::kBdcMetal][i]) &&
                    same_bits(c.hist, ref.hist_metal[i]) &&
                    same_bits(costs.fused_metal_cost(layer, p),
                              ref.hist_metal[i] + ref.maps[R::kBdcMetal][i]))
            << "step " << step << " metal " << layer << " (" << x << "," << y << ")";
      }
    }
  }
  for (int layer = 1; layer <= grid.num_via_layers(); ++layer) {
    for (int y = 0; y < grid.height(); ++y) {
      for (int x = 0; x < grid.width(); ++x) {
        const grid::Point p{x, y};
        const std::size_t i = ref.via_slot(layer, p);
        const auto& c = costs.via_costs(layer, p);
        const double penalty = ref.maps[R::kBdcVia][i] + ref.maps[R::kAmcVia][i] +
                               ref.maps[R::kCdcVia][i] + ref.maps[R::kTplcVia][i];
        ASSERT_TRUE(same_bits(c.bdc, ref.maps[R::kBdcVia][i]) &&
                    same_bits(c.amc, ref.maps[R::kAmcVia][i]) &&
                    same_bits(c.cdc, ref.maps[R::kCdcVia][i]) &&
                    same_bits(c.tplc, ref.maps[R::kTplcVia][i]) &&
                    same_bits(c.hist, ref.hist_via[i]) &&
                    same_bits(costs.fused_via_cost(layer, p),
                              ref.hist_via[i] + penalty))
            << "step " << step << " via " << layer << " (" << x << "," << y << ")";
      }
    }
  }
}

class CostMapsRecords
    : public ::testing::TestWithParam<std::pair<bool, bool>> {};

TEST_P(CostMapsRecords, RegeneratedDepositsMatchRecordedEntriesBitwise) {
  CostFixture f;
  core::FlowOptions options;
  options.consider_dvi = GetParam().first;
  options.consider_tpl = GetParam().second;
  core::CostMaps costs(f.routing, f.rules, options);
  ReferenceCostMaps ref(f.routing, f.rules, options);

  std::mt19937 rng(20160610);
  std::uniform_int_distribution<int> op_dist(0, 99);
  std::uniform_int_distribution<int> coord(0, 19);
  std::uniform_real_distribution<double> amount(0.25, 3.0);

  // Per applied net: its feasible DVICs per via when its costs were added,
  // to count the removals whose feasibility had drifted since.
  using Dvics = std::vector<std::vector<grid::Point>>;
  std::vector<std::pair<core::RoutedNet, Dvics>> applied;
  const auto feasible_now = [&](const core::RoutedNet& net) {
    Dvics dvics;
    for (const auto& via : net.vias()) {
      dvics.push_back(
          core::feasible_dvics(f.routing, f.rules, net, via.via_layer, via.at));
    }
    return dvics;
  };
  int drifted = 0;
  grid::NetId next_id = 0;

  for (int step = 0; step < 200; ++step) {
    const int op = op_dist(rng);
    if (op < 45 || applied.empty()) {
      core::RoutedNet net = random_multi_via_net(f, next_id++, rng);
      costs.add_net_costs(net);
      ref.add_net_costs(net);
      Dvics dvics = feasible_now(net);
      applied.emplace_back(std::move(net), std::move(dvics));
    } else if (op < 75) {
      std::uniform_int_distribution<std::size_t> pick(0, applied.size() - 1);
      const std::size_t i = pick(rng);
      const core::RoutedNet& net = applied[i].first;
      if (feasible_now(net) != applied[i].second) ++drifted;
      costs.remove_net_costs(net);
      ref.remove_net_costs(net.id());
      EXPECT_FALSE(costs.has_costs_for(net.id()));
      net.remove_from(f.routing, f.vias);
      applied[i] = std::move(applied.back());
      applied.pop_back();
    } else {
      const bool metal = op < 88;
      const int layer = metal ? 1 + op % 3 : 1 + op % 2;
      const grid::Point p{coord(rng), coord(rng)};
      const double a = amount(rng);
      if (metal) {
        costs.bump_metal_history(layer, p, a);
        ref.hist_metal[ref.metal_slot(layer, p)] += a;
      } else {
        costs.bump_via_history(layer, p, a);
        ref.hist_via[ref.via_slot(layer, p)] += a;
      }
    }
    expect_costs_match_reference(costs, ref, f.routing, step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  while (!applied.empty()) {
    costs.remove_net_costs(applied.back().first);
    ref.remove_net_costs(applied.back().first.id());
    applied.back().first.remove_from(f.routing, f.vias);
    applied.pop_back();
  }
  expect_costs_match_reference(costs, ref, f.routing, -1);
  // The churn must reach the case the masks exist for: feasibility at
  // removal differing from feasibility at add.
  if (options.consider_dvi) {
    EXPECT_GT(drifted, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DviTplCombinations, CostMapsRecords,
    ::testing::Values(std::pair{false, false}, std::pair{false, true},
                      std::pair{true, false}, std::pair{true, true}),
    [](const ::testing::TestParamInfo<std::pair<bool, bool>>& info) {
      return std::string(info.param.first ? "Dvi" : "NoDvi") +
             (info.param.second ? "Tpl" : "NoTpl");
    });

// --- RoutingGrid: inline occupants vs. per-slot occupant lists --------------

/// The occupancy bookkeeping RoutingGrid used before slots stored their one
/// occupant inline: a vector of occupants per slot, first added first.  The
/// oracle every occupancy query is compared against.
class OccupancyModel {
 public:
  explicit OccupancyModel(const grid::RoutingGrid& grid)
      : points_(grid.num_points()),
        width_(grid.width()),
        metal_(static_cast<std::size_t>(grid.num_metal_layers() * points_)),
        vias_(static_cast<std::size_t>(grid.num_via_layers() * points_)) {}

  void add_metal(int layer, grid::Point p, grid::NetId net, grid::ArmMask arms) {
    auto& occ = metal(layer, p);
    for (auto& entry : occ) {
      if (entry.net == net) {
        entry.arms |= arms;
        return;
      }
    }
    occ.push_back(grid::MetalOcc{net, arms});
  }
  void remove_metal(int layer, grid::Point p, grid::NetId net) {
    auto& occ = metal(layer, p);
    occ.erase(std::remove_if(occ.begin(), occ.end(),
                             [net](const grid::MetalOcc& e) { return e.net == net; }),
              occ.end());
  }
  void add_via(int layer, grid::Point p, grid::NetId net) {
    auto& occ = via(layer, p);
    if (std::find(occ.begin(), occ.end(), net) == occ.end()) occ.push_back(net);
  }
  void remove_via(int layer, grid::Point p, grid::NetId net) {
    auto& occ = via(layer, p);
    occ.erase(std::remove(occ.begin(), occ.end(), net), occ.end());
  }
  void apply(const core::RoutedNet& net) {
    for (const auto& [key, arms] : net.metal()) {
      add_metal(core::key_layer(key), core::key_point(key), net.id(), arms);
    }
    for (const auto& v : net.vias()) add_via(v.via_layer, v.at, net.id());
  }
  void remove(const core::RoutedNet& net) {
    for (const auto& [key, arms] : net.metal()) {
      remove_metal(core::key_layer(key), core::key_point(key), net.id());
    }
    for (const auto& v : net.vias()) remove_via(v.via_layer, v.at, net.id());
  }

  std::vector<grid::MetalOcc>& metal(int layer, grid::Point p) {
    return metal_[slot(layer, p)];
  }
  std::vector<grid::NetId>& via(int layer, grid::Point p) {
    return vias_[slot(layer, p)];
  }

 private:
  [[nodiscard]] std::size_t slot(int layer, grid::Point p) const {
    return static_cast<std::size_t>((layer - 1) * points_ + p.y * width_ + p.x);
  }

  int points_;
  int width_;
  std::vector<std::vector<grid::MetalOcc>> metal_;
  std::vector<std::vector<grid::NetId>> vias_;
};

/// Every occupancy query of `grid` against the model: occupant spans element
/// by element (net, arms, order), counts, single owner, free-for and the
/// occupant lookup for each net in `nets`, the congestion count, and
/// collect_congestion against a brute-force scan of the counts.  Raises
/// `*widest` to the largest number of nets sharing one slot.
void expect_grid_matches_model(const grid::RoutingGrid& grid,
                               OccupancyModel& model,
                               const std::vector<grid::NetId>& nets, int step,
                               std::size_t* widest) {
  std::size_t congested = 0;
  for (int layer = 1; layer <= grid.num_metal_layers(); ++layer) {
    for (int y = 0; y < grid.height(); ++y) {
      for (int x = 0; x < grid.width(); ++x) {
        const grid::Point p{x, y};
        const auto& want = model.metal(layer, p);
        const auto got = grid.metal_occupants(layer, p);
        const auto where = [&] {
          return "step " + std::to_string(step) + " metal " +
                 std::to_string(layer) + " (" + std::to_string(x) + "," +
                 std::to_string(y) + ")";
        };
        ASSERT_EQ(got.size(), want.size()) << where();
        ASSERT_EQ(static_cast<std::size_t>(grid.metal_net_count(layer, p)),
                  want.size())
            << where();
        for (std::size_t k = 0; k < want.size(); ++k) {
          ASSERT_EQ(got[k].net, want[k].net) << where() << " entry " << k;
          ASSERT_EQ(got[k].arms, want[k].arms) << where() << " entry " << k;
        }
        ASSERT_EQ(grid.metal_single_owner(layer, p),
                  want.size() == 1 ? want.front().net : grid::kNoNet)
            << where();
        for (const grid::NetId net : nets) {
          ASSERT_EQ(grid.metal_free_for(layer, p, net),
                    want.empty() || (want.size() == 1 && want.front().net == net))
              << where() << " net " << net;
          const auto entry =
              std::find_if(want.begin(), want.end(),
                           [net](const grid::MetalOcc& e) { return e.net == net; });
          const grid::MetalOcc* occ = grid.metal_occupant(layer, p, net);
          ASSERT_EQ(occ != nullptr, entry != want.end()) << where() << " net " << net;
          if (occ != nullptr) {
            ASSERT_EQ(occ->arms, entry->arms) << where();
          }
        }
        *widest = std::max(*widest, want.size());
        if (layer >= 2 && want.size() > 1) ++congested;
      }
    }
  }
  for (int layer = 1; layer <= grid.num_via_layers(); ++layer) {
    for (int y = 0; y < grid.height(); ++y) {
      for (int x = 0; x < grid.width(); ++x) {
        const grid::Point p{x, y};
        const auto& want = model.via(layer, p);
        const auto got = grid.via_occupants(layer, p);
        ASSERT_EQ(std::vector<grid::NetId>(got.begin(), got.end()), want)
            << "step " << step << " via " << layer << " (" << x << "," << y << ")";
        ASSERT_EQ(static_cast<std::size_t>(grid.via_net_count(layer, p)),
                  want.size())
            << "step " << step << " via " << layer << " (" << x << "," << y << ")";
        *widest = std::max(*widest, want.size());
        if (want.size() > 1) ++congested;
      }
    }
  }
  EXPECT_EQ(grid.congestion_count(), congested) << "step " << step;

  // collect_congestion seeds the R&R queues and is also what validation's
  // check_no_congestion calls, so it is checked against a full scan here.
  std::vector<std::tuple<bool, int, grid::Point>> scan;
  for (int layer = 2; layer <= grid.num_metal_layers(); ++layer) {
    for (std::int32_t i = 0; i < grid.num_points(); ++i) {
      if (grid.metal_congested(layer, grid.point_of(i))) {
        scan.emplace_back(false, layer, grid.point_of(i));
      }
    }
  }
  for (int layer = 1; layer <= grid.num_via_layers(); ++layer) {
    for (std::int32_t i = 0; i < grid.num_points(); ++i) {
      if (grid.via_congested(layer, grid.point_of(i))) {
        scan.emplace_back(true, layer, grid.point_of(i));
      }
    }
  }
  std::vector<std::tuple<bool, int, grid::Point>> collected;
  for (const auto& c : grid.collect_congestion()) {
    collected.emplace_back(c.is_via, c.layer, c.p);
  }
  EXPECT_EQ(collected, scan) << "step " << step;
}

TEST(RoutingGridCounts, MatchOccupantListsUnderRandomChurn) {
  CostFixture f;
  OccupancyModel model(f.routing);
  std::mt19937 rng(20160609);
  std::uniform_int_distribution<int> op_dist(0, 99);
  // Point-level churn inside a 3x3 patch by six nets, so slots hold two to
  // six nets at once and occupants leave from the front, middle and back.
  std::uniform_int_distribution<int> patch(8, 10);
  std::uniform_int_distribution<int> patch_net(200, 205);
  std::uniform_int_distribution<int> metal_layer(1, 3);
  std::uniform_int_distribution<int> via_layer(1, 2);
  std::uniform_int_distribution<int> arms(0, 15);
  std::vector<grid::NetId> probe_nets = {grid::kNoNet, 99};
  for (grid::NetId n = 200; n <= 205; ++n) probe_nets.push_back(n);

  std::vector<core::RoutedNet> applied;
  grid::NetId next_id = 100;
  std::size_t widest = 0;
  for (int step = 0; step < 300; ++step) {
    const int op = op_dist(rng);
    if (op < 30 || (op < 45 && applied.empty())) {
      applied.push_back(random_via_net(f, next_id++, rng));
      model.apply(applied.back());
    } else if (op < 45) {
      std::uniform_int_distribution<std::size_t> pick(0, applied.size() - 1);
      const std::size_t i = pick(rng);
      applied[i].remove_from(f.routing, f.vias);
      model.remove(applied[i]);
      applied[i] = std::move(applied.back());
      applied.pop_back();
    } else {
      const grid::Point p{patch(rng), patch(rng)};
      const grid::NetId net = patch_net(rng);
      if (op < 65) {
        const int layer = metal_layer(rng);
        const auto mask = static_cast<grid::ArmMask>(arms(rng));
        f.routing.add_metal(layer, p, net, mask);
        model.add_metal(layer, p, net, mask);
      } else if (op < 80) {
        const int layer = metal_layer(rng);
        f.routing.remove_metal(layer, p, net);
        model.remove_metal(layer, p, net);
      } else if (op < 92) {
        const int layer = via_layer(rng);
        f.routing.add_via(layer, p, net);
        model.add_via(layer, p, net);
      } else {
        const int layer = via_layer(rng);
        f.routing.remove_via(layer, p, net);
        model.remove_via(layer, p, net);
      }
    }
    if (step % 5 == 0 || step == 299) {
      expect_grid_matches_model(f.routing, model, probe_nets, step, &widest);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_GE(widest, 4u) << "the churn never stacked four nets on one slot";

  while (!applied.empty()) {
    applied.back().remove_from(f.routing, f.vias);
    model.remove(applied.back());
    applied.pop_back();
  }
  for (int x = 8; x <= 10; ++x) {
    for (int y = 8; y <= 10; ++y) {
      for (grid::NetId net = 200; net <= 205; ++net) {
        for (int layer = 1; layer <= 3; ++layer) {
          f.routing.remove_metal(layer, {x, y}, net);
          model.remove_metal(layer, {x, y}, net);
        }
        for (int layer = 1; layer <= 2; ++layer) {
          f.routing.remove_via(layer, {x, y}, net);
          model.remove_via(layer, {x, y}, net);
        }
      }
    }
  }
  std::size_t left = 0;
  expect_grid_matches_model(f.routing, model, probe_nets, -1, &left);
  EXPECT_EQ(left, 0u);
  EXPECT_EQ(f.routing.congestion_count(), 0u);
}

// --- Whole-flow determinism: two runs, bit-identical rows --------------------

TEST(FlowDeterminism, RepeatedRunsProduceBitIdenticalRowsAndCounters) {
  netlist::BenchSpec spec;
  spec.name = "incremental_determinism";
  spec.width = 40;
  spec.height = 40;
  spec.num_nets = 15;
  const netlist::PlacedNetlist nl = netlist::generate(spec);

  core::FlowConfig config;
  config.options.consider_dvi = true;
  config.options.consider_tpl = true;
  config.dvi_method = core::DviMethod::kHeuristic;

  const core::FlowRun a = core::run_flow(nl, config);
  const core::FlowRun b = core::run_flow(nl, config);
  ASSERT_TRUE(a.status.is_ok());
  ASSERT_TRUE(b.status.is_ok());

  const core::RoutingReport& ra = a.result.routing;
  const core::RoutingReport& rb = b.result.routing;
  EXPECT_EQ(ra.routed_all, rb.routed_all);
  EXPECT_EQ(ra.wirelength, rb.wirelength);
  EXPECT_EQ(ra.via_count, rb.via_count);
  EXPECT_EQ(ra.rr_iterations, rb.rr_iterations);
  EXPECT_EQ(ra.queue_peak, rb.queue_peak);
  EXPECT_EQ(ra.remaining_congestion, rb.remaining_congestion);
  EXPECT_EQ(ra.remaining_fvps, rb.remaining_fvps);
  EXPECT_EQ(ra.uncolorable_vias, rb.uncolorable_vias);
  // The perf counters are deterministic too — they count search work, not
  // wall clock — so they double as cross-run equivalence fingerprints.
  EXPECT_EQ(ra.maze_pops, rb.maze_pops);
  EXPECT_EQ(ra.maze_relaxations, rb.maze_relaxations);
  EXPECT_EQ(ra.maze_searches, rb.maze_searches);
  EXPECT_EQ(ra.heap_reuse, rb.heap_reuse);
  EXPECT_EQ(ra.fvp_cache_hits, rb.fvp_cache_hits);
  EXPECT_GT(ra.maze_searches, 0u);
  EXPECT_GT(ra.maze_pops, 0u);
  EXPECT_EQ(a.result.dvi.dead_vias, b.result.dvi.dead_vias);
  EXPECT_EQ(a.result.dvi.inserted, b.result.dvi.inserted);
}

}  // namespace
}  // namespace sadp
