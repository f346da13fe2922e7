// Deterministic failpoint injection: spec grammar, seeded replay, count
// caps, pending-then-attach registration, the control-plane verb, the
// engine.job and solver.cancel seams, and the headline acceptance check —
// compiled-in but disabled failpoints leave every row and perf counter
// bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "api/control.hpp"
#include "core/dvi_exact.hpp"
#include "core/dvi_heuristic.hpp"
#include "core/dvi_ilp.hpp"
#include "core/flow.hpp"
#include "core/validate.hpp"
#include "engine/flow_engine.hpp"
#include "engine/journal.hpp"
#include "ilp/bnb.hpp"
#include "netlist/bench_gen.hpp"
#include "util/failpoint.hpp"

namespace {

using namespace sadp;

/// Every test leaves the process-wide registry clean for the next one.
class FailPointTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FailPointRegistry::instance().clear(); }
  void TearDown() override { util::FailPointRegistry::instance().clear(); }

  [[nodiscard]] static util::Status configure(const std::string& spec,
                                              std::uint64_t seed = 0) {
    return util::FailPointRegistry::instance().configure(spec, seed);
  }
};

TEST_F(FailPointTest, DisabledPointEvaluatesToNone) {
  util::FailPoint point("test.disabled");
  const util::FailDecision decision = point.evaluate();
  EXPECT_EQ(decision.kind, util::FailKind::kNone);
  EXPECT_FALSE(static_cast<bool>(decision));
}

TEST_F(FailPointTest, ActionsArmTheMatchingKind) {
  util::FailPoint err("test.err");
  util::FailPoint shrt("test.short");
  util::FailPoint cancel("test.cancel");
  ASSERT_TRUE(
      configure("test.err=err;test.short=short;test.cancel=cancel").is_ok());
  EXPECT_EQ(err.evaluate().kind, util::FailKind::kError);
  EXPECT_EQ(shrt.evaluate().kind, util::FailKind::kShort);
  EXPECT_EQ(cancel.evaluate().kind, util::FailKind::kCancel);
  EXPECT_EQ(util::FailPointRegistry::instance().armed_count(), 3u);
}

TEST_F(FailPointTest, OffAndClearDisarm) {
  util::FailPoint point("test.offable");
  ASSERT_TRUE(configure("test.offable=err").is_ok());
  EXPECT_EQ(point.evaluate().kind, util::FailKind::kError);
  ASSERT_TRUE(configure("test.offable=off").is_ok());
  EXPECT_EQ(point.evaluate().kind, util::FailKind::kNone);

  ASSERT_TRUE(configure("test.offable=err").is_ok());
  util::FailPointRegistry::instance().clear();
  EXPECT_EQ(point.evaluate().kind, util::FailKind::kNone);
  EXPECT_EQ(util::FailPointRegistry::instance().armed_count(), 0u);
}

TEST_F(FailPointTest, MalformedSpecsAreRejected) {
  for (const char* bad :
       {"noequalsign", "x=", "x=unknownaction", "x=err@0", "x=err@1.5",
        "x=err@zero", "x=err*0", "x=err*minus", "x=delay(ms)", "x=delay(0ms)",
        "x=delay(999999999ms)", "=err"}) {
    const util::Status parsed = configure(bad);
    EXPECT_FALSE(parsed.is_ok()) << bad;
    EXPECT_EQ(parsed.code(), util::StatusCode::kInvalidInput) << bad;
  }
  // An empty spec list is a no-op success (it is the "clear" wire payload).
  EXPECT_TRUE(configure("").is_ok());
}

TEST_F(FailPointTest, CountCapFiresExactlyNTimes) {
  util::FailPoint point("test.capped");
  ASSERT_TRUE(configure("test.capped=err*3").is_ok());
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (point.evaluate().kind == util::FailKind::kError) ++fired;
  }
  EXPECT_EQ(fired, 3);
  // The point disarmed itself after the last fire.
  EXPECT_EQ(util::FailPointRegistry::instance().armed_count(), 0u);
}

TEST_F(FailPointTest, ProbabilisticScheduleReplaysExactlyPerSeed) {
  util::FailPoint point("test.prob");
  auto draw_sequence = [&](std::uint64_t seed) {
    EXPECT_TRUE(configure("test.prob=err@0.5", seed).is_ok());
    std::vector<bool> fires;
    fires.reserve(64);
    for (int i = 0; i < 64; ++i) {
      fires.push_back(point.evaluate().kind == util::FailKind::kError);
    }
    return fires;
  };
  const std::vector<bool> first = draw_sequence(42);
  const std::vector<bool> replay = draw_sequence(42);
  EXPECT_EQ(first, replay);
  // Sanity: a 0.5 schedule actually skips and fires.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
  // A different seed draws a different schedule.
  EXPECT_NE(draw_sequence(43), first);
}

TEST_F(FailPointTest, DelayHasAlreadySleptInsideEvaluate) {
  util::FailPoint point("test.delay");
  ASSERT_TRUE(configure("test.delay=delay(20ms)*1").is_ok());
  const auto before = std::chrono::steady_clock::now();
  const util::FailDecision decision = point.evaluate();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - before);
  EXPECT_EQ(decision.kind, util::FailKind::kDelay);
  EXPECT_EQ(decision.delay_ms, 20);
  EXPECT_GE(elapsed.count(), 15);
}

TEST_F(FailPointTest, SpecsForUnconstructedPointsApplyOnAttach) {
  ASSERT_TRUE(configure("test.pending.later=err").is_ok());
  // The point did not exist when the spec arrived; it arms on construction.
  util::FailPoint late("test.pending.later");
  EXPECT_EQ(late.evaluate().kind, util::FailKind::kError);
}

TEST_F(FailPointTest, SnapshotReportsArmedActionAndCounts) {
  util::FailPoint point("test.snapshot");
  ASSERT_TRUE(configure("test.snapshot=err@0.5").is_ok());
  (void)point.evaluate();
  (void)point.evaluate();
  bool found = false;
  for (const util::FailPointInfo& info :
       util::FailPointRegistry::instance().snapshot()) {
    if (info.name != "test.snapshot") continue;
    found = true;
    EXPECT_TRUE(info.armed);
    EXPECT_EQ(info.action, "err@0.5");
    EXPECT_EQ(info.evaluations, 2u);
  }
  EXPECT_TRUE(found);
}

// --- control-plane verb -----------------------------------------------------

TEST_F(FailPointTest, ControlVerbRoundTrips) {
  api::ControlRequest request;
  request.type = api::ControlRequest::Type::kFailpoint;
  request.spec = "journal.append=err@0.5;net.write=short";
  request.seed = 42;
  const std::string line = api::serialize_control_request(request);
  EXPECT_TRUE(api::looks_like_control_line(line));

  std::string error;
  const auto parsed = api::parse_control_request(line, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->type, api::ControlRequest::Type::kFailpoint);
  EXPECT_EQ(parsed->spec, request.spec);
  EXPECT_EQ(parsed->seed, 42u);

  EXPECT_EQ(api::failpoints_line(2),
            "{\"schema\":\"sadp.control.v1\",\"type\":\"failpoints\","
            "\"armed\":2}");
}

// --- the engine.job seam ----------------------------------------------------

engine::FlowJob cheap_job(const std::string& name, int side, int nets) {
  engine::FlowJob job;
  job.label = name;
  job.spec.name = name;
  job.spec.width = side;
  job.spec.height = side;
  job.spec.num_nets = nets;
  job.config.options.consider_dvi = true;
  job.config.options.consider_tpl = true;
  job.config.dvi_method = core::DviMethod::kHeuristic;
  return job;
}

TEST_F(FailPointTest, EngineJobErrorFailsTheJobStructurally) {
  ASSERT_TRUE(configure("engine.job=err*1").is_ok());
  std::vector<engine::FlowJob> jobs;
  jobs.push_back(cheap_job("fp_err", 36, 10));
  engine::EngineOptions options;
  options.num_workers = 1;
  const engine::BatchResult batch =
      engine::FlowEngine(options).run(std::move(jobs));
  ASSERT_EQ(batch.outcomes.size(), 1u);
  EXPECT_EQ(batch.outcomes[0].status, engine::JobStatus::kFailed);
  EXPECT_EQ(batch.outcomes[0].error.code(), util::StatusCode::kInternal);
  EXPECT_NE(batch.outcomes[0].error.message().find("failpoint(engine.job)"),
            std::string::npos);
}

TEST_F(FailPointTest, EngineJobCancelBehavesLikeARealCancel) {
  ASSERT_TRUE(configure("engine.job=cancel*1").is_ok());
  std::vector<engine::FlowJob> jobs;
  jobs.push_back(cheap_job("fp_cancel", 36, 10));
  engine::EngineOptions options;
  options.num_workers = 1;
  const engine::BatchResult batch =
      engine::FlowEngine(options).run(std::move(jobs));
  ASSERT_EQ(batch.outcomes.size(), 1u);
  EXPECT_EQ(batch.outcomes[0].status, engine::JobStatus::kCancelled);
}

// --- the solver.cancel seam -------------------------------------------------

// Armed, solver.cancel stops both exact solvers at their first budget poll,
// exactly like a fired cancel token: exact DVI keeps the heuristic warm
// start, which is still a valid solution, and the B&B ILP reports no proof.
// On this design the unlimited exact solve beats the warm start, so an
// ignored failpoint would show.
TEST_F(FailPointTest, SolverCancelStopsBothSolvers) {
  netlist::BenchSpec spec;
  spec.name = "deadline_probe_1";
  spec.width = 64;
  spec.height = 64;
  spec.num_nets = 50;
  const netlist::PlacedNetlist instance = netlist::generate(spec);
  core::FlowOptions options;
  options.consider_dvi = true;
  options.consider_tpl = true;
  core::SadpRouter router(instance, options);
  ASSERT_TRUE(router.run().routed_all);
  const core::DviProblem problem = core::build_dvi_problem(
      router.nets(), router.routing_grid(), router.turn_rules());
  const core::DviHeuristicOutput warm =
      core::run_dvi_heuristic(problem, router.via_db());
  ASSERT_LT(core::solve_dvi_exact(problem, router.via_db()).result.dead_vias,
            warm.result.dead_vias);

  ASSERT_TRUE(configure("solver.cancel=cancel").is_ok());
  const core::DviExactOutput exact = core::solve_dvi_exact(problem, router.via_db());
  EXPECT_FALSE(exact.proven_optimal);
  EXPECT_EQ(exact.result.inserted, warm.result.inserted);
  EXPECT_TRUE(core::check_dvi_solution(router, problem, exact.result.inserted,
                                       exact.inserted_at)
                  .empty());

  const ilp::Solution bnb = ilp::solve(core::build_dvi_ilp(problem).model);
  EXPECT_NE(bnb.status, ilp::SolveStatus::kOptimal);
}

// --- the headline acceptance check ------------------------------------------

/// journal_line bytes with the timing fields (informational only) zeroed,
/// so two runs of the same job can be compared byte-for-byte across every
/// row field and perf counter.  Takes the outcome by mutable reference
/// because JobOutcome owns its router and cannot be copied; the timing
/// fields are not restored (the test only compares these lines).
std::string timeless_journal_line(engine::JobOutcome& outcome) {
  outcome.result.routing.route_seconds = 0.0;
  outcome.result.dvi.seconds = 0.0;
  outcome.metrics.total_seconds = 0.0;
  outcome.from_journal = false;
  return engine::journal_line(outcome);
}

// Compiled-in failpoints must be free when disabled: a batch run with the
// registry never armed and one run after an arm/clear cycle produce
// byte-identical rows (all counters included, timing aside).
TEST_F(FailPointTest, DisabledFailpointsLeaveRowsBitIdentical) {
  auto make_jobs = [] {
    std::vector<engine::FlowJob> jobs;
    for (int i = 0; i < 3; ++i) {
      jobs.push_back(cheap_job("fp_id_" + std::to_string(i), 36 + 2 * i,
                               10 + i));
    }
    return jobs;
  };
  engine::EngineOptions options;
  options.num_workers = 1;

  // Registry untouched.
  engine::BatchResult never_armed =
      engine::FlowEngine(options).run(make_jobs());
  ASSERT_TRUE(never_armed.all_ok());

  // Arm points across several subsystems, then clear: the sites are still
  // compiled in and evaluated, just disabled again.
  ASSERT_TRUE(configure("journal.append=err;engine.job=err;net.write=short;"
                        "solver.cancel=cancel;cache.lookup=err")
                  .is_ok());
  util::FailPointRegistry::instance().clear();
  engine::BatchResult after_clear =
      engine::FlowEngine(options).run(make_jobs());
  ASSERT_TRUE(after_clear.all_ok());

  ASSERT_EQ(after_clear.outcomes.size(), never_armed.outcomes.size());
  for (std::size_t i = 0; i < never_armed.outcomes.size(); ++i) {
    EXPECT_EQ(timeless_journal_line(after_clear.outcomes[i]),
              timeless_journal_line(never_armed.outcomes[i]))
        << never_armed.outcomes[i].label;
  }
}

}  // namespace
