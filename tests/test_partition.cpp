// Partition-parallel routing (DESIGN.md section 14): planner geometry,
// differential quality versus the serial flow, fixed-K determinism, and the
// concurrent-region execution path (the TSan target).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "api/flow_api.hpp"
#include "core/partition.hpp"
#include "core/router.hpp"
#include "core/validate.hpp"
#include "netlist/bench_gen.hpp"
#include "util/executor.hpp"

namespace sadp::core {
namespace {

netlist::PlacedNetlist partition_instance(int side = 160, int nets = 360,
                                          std::uint64_t seed = 7) {
  netlist::BenchSpec spec;
  spec.name = "ptest";
  spec.width = side;
  spec.height = side;
  spec.num_nets = nets;
  spec.seed = seed;
  return netlist::generate(spec);
}

// --- Planner geometry --------------------------------------------------------

TEST(PartitionPlan, CoresTileTheAxisAndWindowsAreAligned) {
  const netlist::PlacedNetlist instance = partition_instance(192, 100);
  const PartitionPlan plan = plan_partitions(instance, 4);
  ASSERT_EQ(plan.regions.size(), 4u);
  EXPECT_TRUE(plan.cut_along_x);  // width >= height

  int expected_lo = 0;
  for (std::size_t r = 0; r < plan.regions.size(); ++r) {
    const PartitionRegion& region = plan.regions[r];
    EXPECT_EQ(region.core_lo, expected_lo);  // cores tile with no gaps
    EXPECT_LE(region.core_lo, region.core_hi);
    expected_lo = region.core_hi + 1;

    EXPECT_EQ(region.window_lo % kPartitionAlign, 0)
        << "window origin must sit on the turn-rule period";
    EXPECT_GE(region.window_lo, 0);
    EXPECT_LE(region.window_hi, instance.width - 1);
    EXPECT_LE(region.window_lo, region.core_lo);
    EXPECT_GE(region.window_hi, region.core_hi);
  }
  EXPECT_EQ(expected_lo, instance.width);
}

TEST(PartitionPlan, SmallGridsDegradeToSerial) {
  // 48 wide / min_core 32 -> at most one region -> empty plan.
  const netlist::PlacedNetlist instance = partition_instance(48, 30);
  const PartitionPlan plan = plan_partitions(instance, 4);
  EXPECT_TRUE(plan.regions.empty());
  EXPECT_TRUE(plan.boundary.empty());
}

TEST(PartitionPlan, EveryNetIsAssignedExactlyOnce) {
  const netlist::PlacedNetlist instance = partition_instance();
  const PartitionPlan plan = plan_partitions(instance, 4);
  ASSERT_GE(plan.regions.size(), 2u);

  std::vector<int> seen(instance.nets.size(), 0);
  for (const PartitionRegion& region : plan.regions) {
    for (const grid::NetId id : region.nets) {
      ++seen[static_cast<std::size_t>(id)];
      // Regional nets fit the owner's core strip on the cut axis.
      const auto& net = instance.nets[static_cast<std::size_t>(id)];
      for (const auto& pin : net.pins) {
        const int c = plan.cut_along_x ? pin.at.x : pin.at.y;
        EXPECT_GE(c, region.core_lo) << "net " << id;
        EXPECT_LE(c, region.core_hi) << "net " << id;
      }
    }
  }
  for (const grid::NetId id : plan.boundary) {
    ++seen[static_cast<std::size_t>(id)];
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "net " << i << " assigned " << seen[i] << " times";
  }
}

TEST(PartitionPlan, RegionWorldGeometryIsConsistent) {
  const netlist::PlacedNetlist instance = partition_instance();
  const PartitionPlan plan = plan_partitions(instance, 3);
  ASSERT_GE(plan.regions.size(), 2u);
  for (std::size_t r = 0; r < plan.regions.size(); ++r) {
    const PartitionRegion& region = plan.regions[r];
    const grid::Point offset = plan.region_offset(r);
    const int w = plan.region_width(r, instance.width);
    const int h = plan.region_height(r, instance.height);
    // The window maps exactly onto [offset, offset + dims).
    if (plan.cut_along_x) {
      EXPECT_EQ(offset.x, region.window_lo);
      EXPECT_EQ(offset.y, 0);
      EXPECT_EQ(w, region.window_hi - region.window_lo + 1);
      EXPECT_EQ(h, instance.height);
    } else {
      EXPECT_EQ(offset.y, region.window_lo);
      EXPECT_EQ(offset.x, 0);
      EXPECT_EQ(h, region.window_hi - region.window_lo + 1);
      EXPECT_EQ(w, instance.width);
    }
  }
}

// --- Full-flow behavior ------------------------------------------------------

RoutingReport route_with_partitions(const netlist::PlacedNetlist& instance,
                                    int partitions,
                                    util::Executor* executor = nullptr) {
  FlowOptions options;
  options.consider_dvi = true;
  options.consider_tpl = true;
  options.partitions = partitions;
  options.executor = executor;
  SadpRouter router(instance, options);
  RoutingReport report = router.run();
  const auto issues =
      validate_routing(router, instance, /*expect_tpl_clean=*/true);
  EXPECT_TRUE(issues.empty()) << issues.front().what;
  return report;
}

/// The deterministic payload of a report (no timings).
std::string report_fingerprint(const RoutingReport& r) {
  std::string out;
  out += std::to_string(r.routed_all) + '|';
  out += std::to_string(r.unrouted_nets) + '|';
  out += std::to_string(r.wirelength) + '|';
  out += std::to_string(r.via_count) + '|';
  out += std::to_string(r.rr_iterations) + '|';
  out += std::to_string(r.remaining_congestion) + '|';
  out += std::to_string(r.fvp_cache_hits) + '|';
  out += std::to_string(r.partitions) + '|';
  out += std::to_string(r.partition_regions) + '|';
  out += std::to_string(r.boundary_nets) + '|';
  out += std::to_string(r.maze_pops) + '|';
  out += std::to_string(r.maze_relaxations) + '|';
  out += std::to_string(r.queue_peak);
  return out;
}

TEST(PartitionParallel, MatchesSerialQualityWithinBound) {
  const netlist::PlacedNetlist instance = partition_instance();
  const RoutingReport serial = route_with_partitions(instance, 1);
  const RoutingReport sharded = route_with_partitions(instance, 4);

  EXPECT_TRUE(serial.routed_all);
  EXPECT_TRUE(sharded.routed_all);
  EXPECT_EQ(sharded.remaining_congestion, 0u);
  EXPECT_EQ(serial.partitions, 1);
  EXPECT_EQ(serial.partition_regions, 0);
  EXPECT_EQ(sharded.partitions, 4);
  EXPECT_GE(sharded.partition_regions, 2);
  EXPECT_GE(sharded.boundary_nets, 0);

  // Documented cost-equivalence bound (DESIGN.md section 14): the sharded
  // net order differs from serial, so wirelength may differ, but by less
  // than 10%.
  const double ratio = static_cast<double>(sharded.wirelength) /
                       static_cast<double>(serial.wirelength);
  EXPECT_GT(ratio, 0.9) << sharded.wirelength << " vs " << serial.wirelength;
  EXPECT_LT(ratio, 1.1) << sharded.wirelength << " vs " << serial.wirelength;

  // The schedule pinned: one reordered present-factor multiplication or
  // rip moves a search counter even when WL and #vias happen to hold.
  EXPECT_EQ(report_fingerprint(serial),
            "1|0|6466|1911|265|0|0|1|0|0|275887|507101|240");
  EXPECT_EQ(report_fingerprint(sharded),
            "1|0|6443|1906|176|0|958|4|4|58|167713|338598|37");
}

TEST(PartitionParallel, ExplicitKOneIsBitIdenticalToDefault) {
  const netlist::PlacedNetlist instance = partition_instance();
  FlowOptions options;
  options.consider_dvi = true;
  options.consider_tpl = true;
  SadpRouter default_router(instance, options);
  const RoutingReport by_default = default_router.run();

  const RoutingReport explicit_one = route_with_partitions(instance, 1);
  EXPECT_EQ(report_fingerprint(by_default), report_fingerprint(explicit_one));
}

TEST(PartitionParallel, FixedKRunsAreDeterministic) {
  const netlist::PlacedNetlist instance = partition_instance();
  const RoutingReport first = route_with_partitions(instance, 4);
  const RoutingReport second = route_with_partitions(instance, 4);
  EXPECT_EQ(report_fingerprint(first), report_fingerprint(second));
}

/// Executor that runs every task on its own thread, all started before any
/// is joined — maximum region concurrency.  Under TSan (tools/ci.sh builds
/// this test into build-tsan) this proves region workers share no mutable
/// state.
class AllAtOnceExecutor : public util::Executor {
 public:
  void run_parallel(int tasks, const std::function<void(int)>& work) override {
    ++invocations;
    max_tasks = std::max(max_tasks, tasks);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(tasks));
    for (int t = 0; t < tasks; ++t) {
      threads.emplace_back([&work, t] { work(t); });
    }
    for (auto& thread : threads) thread.join();
  }

  int invocations = 0;
  int max_tasks = 0;
};

TEST(PartitionParallel, RegionsRouteConcurrentlyAndDeterministically) {
  const netlist::PlacedNetlist instance = partition_instance();

  AllAtOnceExecutor executor;
  const RoutingReport concurrent =
      route_with_partitions(instance, 4, &executor);
  EXPECT_EQ(executor.invocations, 1);
  EXPECT_GE(executor.max_tasks, 2);
  EXPECT_TRUE(concurrent.routed_all);

  // The executor only changes *where* region workers run, never the result:
  // the transient-thread path must produce the identical report.
  const RoutingReport sequential = route_with_partitions(instance, 4);
  EXPECT_EQ(report_fingerprint(concurrent), report_fingerprint(sequential));
}

// --- 10x benchmark family ----------------------------------------------------

TEST(PartitionBenchFamily, TenXSpecsResolveAndValidate) {
  const auto base = netlist::spec_for("ecc", /*scaled=*/true);
  ASSERT_TRUE(base.has_value());
  const auto tenx = netlist::spec_for("ecc_10x", /*scaled=*/true);
  ASSERT_TRUE(tenx.has_value());
  EXPECT_EQ(tenx->name, "ecc_10x");
  EXPECT_DOUBLE_EQ(tenx->scale, 10.0);
  EXPECT_TRUE(netlist::validate_spec(*tenx).is_ok());

  const netlist::BenchSpec resolved = netlist::resolve_scale(*tenx);
  EXPECT_DOUBLE_EQ(resolved.scale, 1.0);
  EXPECT_EQ(resolved.num_nets, base->num_nets * 10);
  // Linear dimensions scale by sqrt(10) ~ 3.16, preserving density.
  EXPECT_NEAR(static_cast<double>(resolved.width),
              static_cast<double>(base->width) * 3.1623, 2.0);
  EXPECT_NEAR(static_cast<double>(resolved.height),
              static_cast<double>(base->height) * 3.1623, 2.0);

  const auto ramp = netlist::spec_for("ecc_10x_ramp", /*scaled=*/true);
  ASSERT_TRUE(ramp.has_value());
  EXPECT_EQ(ramp->name, "ecc_10x_ramp");
  EXPECT_TRUE(netlist::validate_spec(*ramp).is_ok());
  EXPECT_GT(ramp->global_net_fraction, tenx->global_net_fraction);
  EXPECT_GT(ramp->local_radius, tenx->local_radius);

  EXPECT_FALSE(netlist::spec_for("nosuchckt_10x", true).has_value());
}

TEST(PartitionBenchFamily, GenerateHonorsScale) {
  netlist::BenchSpec spec;
  spec.name = "scale_gen";
  spec.width = 64;
  spec.height = 64;
  spec.num_nets = 40;
  spec.seed = 3;
  spec.scale = 4.0;
  const netlist::PlacedNetlist instance = netlist::generate(spec);
  EXPECT_EQ(instance.nets.size(), 160u);
  EXPECT_EQ(instance.width, 128);  // sqrt(4) x 64
  EXPECT_EQ(instance.height, 128);

  netlist::BenchSpec bad = spec;
  bad.scale = 0.0;
  EXPECT_FALSE(netlist::validate_spec(bad).is_ok());
}

// --- Wire format -------------------------------------------------------------

TEST(PartitionApi, PartitionsRoundTripAndDefaultIsOmitted) {
  api::FlowRequest request;
  api::JobRequest job;
  job.label = "p";
  job.benchmark = "ecc";
  job.partitions = 3;
  request.jobs.push_back(job);
  job.label = "q";
  job.partitions = 0;
  request.jobs.push_back(job);

  const std::string line = api::serialize_request(request);
  // Default (0) is omitted so pre-partition daemons parse new requests.
  EXPECT_EQ(line.find("\"partitions\":3"), line.rfind("\"partitions\""));

  std::string error;
  const auto parsed = api::parse_request(line, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->jobs.size(), 2u);
  EXPECT_EQ(parsed->jobs[0].partitions, 3);
  EXPECT_EQ(parsed->jobs[1].partitions, 0);
}

}  // namespace
}  // namespace sadp::core
