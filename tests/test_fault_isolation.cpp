// Fault isolation in the FlowEngine: structured errors, cooperative
// deadlines, cancellation, degradation fallbacks and the crash-safe resume
// journal.  The headline scenarios of DESIGN.md's "Fault isolation"
// section live here, including the kill-and-resume equivalence check.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/flow_engine.hpp"
#include "engine/journal.hpp"
#include "netlist/bench_gen.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"
#include "via/via_db.hpp"

namespace {

using namespace sadp;

/// A small real job that routes in a few tens of milliseconds.
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

/// The non-timing payload of an ExperimentResult, for equality checks.
std::string result_fingerprint(const core::ExperimentResult& r) {
  std::string out = r.benchmark;
  out += '|' + std::to_string(r.routing.routed_all);
  out += '|' + std::to_string(r.routing.unrouted_nets);
  out += '|' + std::to_string(r.routing.wirelength);
  out += '|' + std::to_string(r.routing.via_count);
  out += '|' + std::to_string(r.routing.rr_iterations);
  out += '|' + std::to_string(r.routing.queue_peak);
  out += '|' + std::to_string(r.routing.remaining_congestion);
  out += '|' + std::to_string(r.routing.remaining_fvps);
  out += '|' + std::to_string(r.routing.uncolorable_vias);
  out += '|' + std::to_string(r.single_vias);
  out += '|' + std::to_string(r.dvi_candidates);
  out += '|' + std::to_string(r.dvi.dead_vias);
  out += '|' + std::to_string(r.dvi.uncolorable);
  for (const int dvic : r.dvi.inserted) out += ',' + std::to_string(dvic);
  return out;
}

/// Fault injection: a flow that throws an unstructured exception.
core::FlowRun throwing_flow(const netlist::PlacedNetlist&,
                            const core::FlowConfig&) {
  throw std::runtime_error("injected fault");
}

/// Fault injection: a flow that blocks until its cancel token fires, then
/// stops cooperatively — the shape of a job whose deadline expires.
core::FlowRun blocking_flow(const netlist::PlacedNetlist& instance,
                            const core::FlowConfig& config) {
  while (!config.options.cancel.stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  core::FlowRun run;
  run.result.benchmark = instance.name;
  run.status = config.options.cancel.status("blocking test flow");
  return run;
}

// --- the headline acceptance scenario ---------------------------------------

// A 16-job batch where one job throws and one blows its deadline must still
// return the other 14 rows, in job order, bit-identical to a clean run.
TEST(FaultIsolation, PoisonedBatchKeepsTheGoodRows) {
  std::vector<engine::FlowJob> jobs;
  for (int i = 0; i < 16; ++i) {
    jobs.push_back(cheap_job("iso_" + std::to_string(i), 36 + 2 * (i % 4),
                             10 + i % 5));
  }
  jobs[5].flow = throwing_flow;
  jobs[10].flow = blocking_flow;
  jobs[10].deadline_seconds = 0.05;

  // Reference: the 14 good jobs, serially, no faults.
  std::vector<engine::FlowJob> clean;
  for (int i = 0; i < 16; ++i) {
    if (i != 5 && i != 10) {
      clean.push_back(cheap_job("iso_" + std::to_string(i), 36 + 2 * (i % 4),
                                10 + i % 5));
    }
  }
  engine::EngineOptions serial;
  serial.num_workers = 1;
  const engine::BatchResult reference =
      engine::FlowEngine(serial).run(std::move(clean));
  ASSERT_TRUE(reference.all_ok());

  engine::EngineOptions options;
  options.num_workers = 4;
  const engine::BatchResult batch =
      engine::FlowEngine(options).run(std::move(jobs));

  ASSERT_EQ(batch.outcomes.size(), 16u);
  EXPECT_EQ(batch.ok, 14u);
  EXPECT_EQ(batch.failed, 1u);
  EXPECT_EQ(batch.timed_out, 1u);
  EXPECT_FALSE(batch.all_ok());
  EXPECT_EQ(batch.exit_code(), 1);

  // The throwing job is a diagnosable structured failure...
  const engine::JobOutcome& thrown = batch.outcomes[5];
  EXPECT_EQ(thrown.status, engine::JobStatus::kFailed);
  EXPECT_EQ(thrown.error.code(), util::StatusCode::kInternal);
  EXPECT_NE(thrown.error.message().find("injected fault"), std::string::npos);

  // ...and the blocked job reports a timeout, not a generic failure.
  const engine::JobOutcome& blown = batch.outcomes[10];
  EXPECT_EQ(blown.status, engine::JobStatus::kTimeout);
  EXPECT_EQ(blown.error.code(), util::StatusCode::kSolverTimeout);

  // Every good row is in job order and bit-identical to the clean run.
  std::size_t ref = 0;
  for (int i = 0; i < 16; ++i) {
    if (i == 5 || i == 10) continue;
    const engine::JobOutcome& outcome = batch.outcomes[i];
    EXPECT_EQ(outcome.status, engine::JobStatus::kOk) << outcome.label;
    EXPECT_TRUE(outcome.error.is_ok()) << outcome.label;
    EXPECT_EQ(outcome.label, reference.outcomes[ref].label);
    EXPECT_EQ(result_fingerprint(outcome.result),
              result_fingerprint(reference.outcomes[ref].result))
        << outcome.label;
    ++ref;
  }
}

// --- cancellation and deadlines ---------------------------------------------

TEST(FaultIsolation, ExternalCancelMarksEveryJobCancelled) {
  std::vector<engine::FlowJob> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(cheap_job("cancel_" + std::to_string(i), 36, 10));
  }
  engine::EngineOptions options;
  options.cancel = util::CancelToken::cancellable();
  options.cancel.request_cancel();
  const engine::BatchResult batch =
      engine::FlowEngine(options).run(std::move(jobs));
  EXPECT_EQ(batch.cancelled, 4u);
  EXPECT_EQ(batch.exit_code(), 1);
  for (const auto& outcome : batch.outcomes) {
    EXPECT_EQ(outcome.status, engine::JobStatus::kCancelled) << outcome.label;
    EXPECT_EQ(outcome.error.code(), util::StatusCode::kCancelled);
  }
}

TEST(FaultIsolation, FailFastCancelsTheRemainingJobs) {
  std::vector<engine::FlowJob> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back(cheap_job("ff_" + std::to_string(i), 36, 10));
  }
  jobs[0].flow = throwing_flow;
  engine::EngineOptions options;
  options.num_workers = 1;  // deterministic claim order
  options.fail_fast = true;
  const engine::BatchResult batch =
      engine::FlowEngine(options).run(std::move(jobs));
  EXPECT_EQ(batch.outcomes[0].status, engine::JobStatus::kFailed);
  EXPECT_EQ(batch.failed, 1u);
  EXPECT_EQ(batch.cancelled, 3u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(batch.outcomes[i].status, engine::JobStatus::kCancelled) << i;
  }
}

TEST(FaultIsolation, BatchDeadlineTimesOutRunnersAndCancelsTheQueue) {
  std::vector<engine::FlowJob> jobs;
  for (int i = 0; i < 2; ++i) {
    auto job = cheap_job("bd_" + std::to_string(i), 36, 10);
    job.flow = blocking_flow;
    jobs.push_back(std::move(job));
  }
  engine::EngineOptions options;
  options.num_workers = 1;
  options.batch_deadline_seconds = 0.05;
  const engine::BatchResult batch =
      engine::FlowEngine(options).run(std::move(jobs));
  // The in-flight job stops cooperatively (timeout); the queued one is
  // never started (cancelled).
  EXPECT_EQ(batch.outcomes[0].status, engine::JobStatus::kTimeout);
  EXPECT_EQ(batch.outcomes[1].status, engine::JobStatus::kCancelled);
  EXPECT_FALSE(batch.all_ok());
}

TEST(FaultIsolation, PerJobDeadlineDoesNotLeakIntoOtherJobs) {
  std::vector<engine::FlowJob> jobs;
  auto blocked = cheap_job("leak_blocked", 36, 10);
  blocked.flow = blocking_flow;
  blocked.deadline_seconds = 0.05;
  jobs.push_back(std::move(blocked));
  jobs.push_back(cheap_job("leak_clean", 36, 10));
  engine::EngineOptions options;
  options.num_workers = 1;
  const engine::BatchResult batch =
      engine::FlowEngine(options).run(std::move(jobs));
  EXPECT_EQ(batch.outcomes[0].status, engine::JobStatus::kTimeout);
  EXPECT_EQ(batch.outcomes[1].status, engine::JobStatus::kOk);
}

// --- degradation ------------------------------------------------------------

// An ILP DVI solve that hits its time limit falls back to the heuristic
// when degrade_dvi_on_timeout is set; the row is usable but marked.
TEST(FaultIsolation, IlpTimeoutDegradesToHeuristicWhenEnabled) {
  auto degraded_job = cheap_job("degrade", 48, 24);
  degraded_job.config.dvi_method = core::DviMethod::kIlp;
  degraded_job.config.ilp_time_limit_seconds = 1e-9;  // guaranteed to trip
  degraded_job.config.degrade_dvi_on_timeout = true;

  auto heuristic_job = cheap_job("degrade", 48, 24);
  heuristic_job.config.dvi_method = core::DviMethod::kHeuristic;

  std::vector<engine::FlowJob> jobs;
  jobs.push_back(std::move(degraded_job));
  jobs.push_back(std::move(heuristic_job));
  engine::EngineOptions serial;
  serial.num_workers = 1;
  const engine::BatchResult batch =
      engine::FlowEngine(serial).run(std::move(jobs));

  const engine::JobOutcome& degraded = batch.outcomes[0];
  const engine::JobOutcome& heuristic = batch.outcomes[1];
  ASSERT_EQ(heuristic.status, engine::JobStatus::kOk);
  ASSERT_EQ(degraded.status, engine::JobStatus::kDegraded);
  EXPECT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded.error.is_ok());
  EXPECT_TRUE(batch.all_ok());
  EXPECT_EQ(batch.degraded, 1u);
  // The degraded row carries the heuristic stage's solution.
  EXPECT_EQ(degraded.result.dvi.dead_vias, heuristic.result.dvi.dead_vias);
  EXPECT_EQ(degraded.result.dvi.inserted, heuristic.result.dvi.inserted);
}

// Off by default: the same timeout without the flag is NOT degraded (the
// row keeps the time-limited ILP incumbent, faithful to the paper setup).
TEST(FaultIsolation, IlpTimeoutWithoutDegradationKeepsTheIncumbent) {
  auto job = cheap_job("no_degrade", 48, 24);
  job.config.dvi_method = core::DviMethod::kIlp;
  job.config.ilp_time_limit_seconds = 1e-9;
  std::vector<engine::FlowJob> jobs;
  jobs.push_back(std::move(job));
  const engine::BatchResult batch = engine::FlowEngine().run(std::move(jobs));
  EXPECT_EQ(batch.outcomes[0].status, engine::JobStatus::kOk);
  EXPECT_NE(batch.outcomes[0].result.ilp_status, ilp::SolveStatus::kOptimal);
}

// --- journal ----------------------------------------------------------------

TEST(Journal, LineRoundTripsEveryField) {
  engine::JobOutcome outcome;
  outcome.label = "rt";
  outcome.arm = "arm/1";
  outcome.style = grid::SadpStyle::kSid;
  outcome.dvi_method = core::DviMethod::kExact;
  outcome.status = engine::JobStatus::kFailed;
  outcome.error = util::Status::unroutable("net 7 has no path");
  outcome.result.benchmark = "rt";
  outcome.result.routing.routed_all = false;
  outcome.result.routing.unrouted_nets = 1;
  outcome.result.routing.wirelength = 123456789012345LL;
  outcome.result.routing.via_count = 42;
  outcome.result.routing.rr_iterations = 7;
  outcome.result.routing.queue_peak = 19;
  outcome.result.routing.remaining_fvps = 3;
  outcome.result.routing.uncolorable_vias = 2;
  outcome.result.single_vias = 11;
  outcome.result.dvi_candidates = 23;
  outcome.result.dvi.dead_vias = 5;
  outcome.result.dvi.uncolorable = 1;
  outcome.result.dvi.inserted = {3, 1, 4, 1, 5};
  outcome.result.ilp_status = ilp::SolveStatus::kFeasible;

  const std::string line = engine::journal_line(outcome);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  std::string error;
  const auto parsed = engine::parse_journal_line(line, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(parsed->from_journal);
  EXPECT_EQ(parsed->label, outcome.label);
  EXPECT_EQ(parsed->arm, outcome.arm);
  EXPECT_EQ(parsed->style, outcome.style);
  EXPECT_EQ(parsed->dvi_method, outcome.dvi_method);
  EXPECT_EQ(parsed->status, outcome.status);
  EXPECT_EQ(parsed->error.code(), util::StatusCode::kUnroutable);
  EXPECT_EQ(parsed->error.message(), "net 7 has no path");
  EXPECT_EQ(parsed->result.ilp_status, ilp::SolveStatus::kFeasible);
  EXPECT_EQ(result_fingerprint(parsed->result), result_fingerprint(outcome.result));
}

TEST(Journal, TornTailAndGarbageLinesAreSkippedOnLoad) {
  const std::string path = ::testing::TempDir() + "torn_journal.jsonl";
  std::remove(path.c_str());

  engine::JobOutcome a;
  a.label = "good_a";
  a.result.benchmark = "good_a";
  engine::JobOutcome b;
  b.label = "good_b";
  b.result.benchmark = "good_b";
  ASSERT_TRUE(engine::append_journal(path, a).is_ok());
  ASSERT_TRUE(engine::append_journal(path, b).is_ok());
  {
    // Simulate a crash mid-append: a truncated record with no newline.
    std::ofstream torn(path, std::ios::app);
    torn << R"({"schema":"sadp.flow_journal.v1","label":"torn","st)";
  }

  const auto records = engine::load_journal(path);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(records.count("good_a"), 1u);
  EXPECT_EQ(records.count("good_b"), 1u);
  EXPECT_EQ(records.count("torn"), 0u);
  std::remove(path.c_str());
}

TEST(Journal, MissingFileLoadsEmpty) {
  EXPECT_TRUE(engine::load_journal(::testing::TempDir() + "no_such.jsonl").empty());
}

// Kill-and-resume: interrupt a journaled batch, resume it, and require the
// final rows — and the merged journal — to match an uninterrupted run.
TEST(Journal, KilledBatchResumesToBitIdenticalRows) {
  auto make_jobs = [] {
    std::vector<engine::FlowJob> jobs;
    for (int i = 0; i < 6; ++i) {
      jobs.push_back(cheap_job("resume_" + std::to_string(i), 36 + 2 * i,
                               10 + i));
    }
    return jobs;
  };
  const std::string clean_path = ::testing::TempDir() + "clean_journal.jsonl";
  const std::string killed_path = ::testing::TempDir() + "killed_journal.jsonl";
  std::remove(clean_path.c_str());
  std::remove(killed_path.c_str());

  // Reference: the uninterrupted run.
  engine::EngineOptions clean_options;
  clean_options.num_workers = 1;
  clean_options.journal_path = clean_path;
  const engine::BatchResult clean =
      engine::FlowEngine(clean_options).run(make_jobs());
  ASSERT_TRUE(clean.all_ok());

  // "Kill" the batch after two jobs by firing the external cancel token
  // from the completion callback.
  engine::EngineOptions killed_options;
  killed_options.num_workers = 1;
  killed_options.journal_path = killed_path;
  killed_options.cancel = util::CancelToken::cancellable();
  const util::CancelToken killer = killed_options.cancel;
  killed_options.on_job_done = [&killer](const engine::JobOutcome&,
                                         std::size_t done, std::size_t) {
    if (done >= 2) killer.request_cancel();
  };
  const engine::BatchResult killed =
      engine::FlowEngine(killed_options).run(make_jobs());
  EXPECT_EQ(killed.ok, 2u);
  EXPECT_EQ(killed.cancelled, 4u);

  // Resume: only the remaining four jobs execute.
  engine::EngineOptions resume_options;
  resume_options.num_workers = 1;
  resume_options.journal_path = killed_path;
  resume_options.resume = true;
  std::atomic<int> executed{0};
  resume_options.on_job_done = [&executed](const engine::JobOutcome&,
                                           std::size_t, std::size_t) {
    ++executed;
  };
  const engine::BatchResult resumed =
      engine::FlowEngine(resume_options).run(make_jobs());
  EXPECT_EQ(executed.load(), 4);
  EXPECT_EQ(resumed.resumed, 2u);
  EXPECT_TRUE(resumed.all_ok());

  // Outcomes are in job order and bit-identical to the clean run, whether
  // restored from the journal or re-executed.
  ASSERT_EQ(resumed.outcomes.size(), clean.outcomes.size());
  for (std::size_t i = 0; i < clean.outcomes.size(); ++i) {
    EXPECT_EQ(resumed.outcomes[i].label, clean.outcomes[i].label);
    EXPECT_EQ(resumed.outcomes[i].status, engine::JobStatus::kOk);
    EXPECT_EQ(result_fingerprint(resumed.outcomes[i].result),
              result_fingerprint(clean.outcomes[i].result))
        << clean.outcomes[i].label;
  }

  // The merged journal (partial run + resumed remainder) matches the
  // uninterrupted run's journal record-for-record, timing aside.
  const auto clean_records = engine::load_journal(clean_path);
  const auto merged_records = engine::load_journal(killed_path);
  ASSERT_EQ(merged_records.size(), clean_records.size());
  for (const auto& [label, record] : clean_records) {
    const auto hit = merged_records.find(label);
    ASSERT_NE(hit, merged_records.end()) << label;
    EXPECT_EQ(hit->second.status, record.status) << label;
    EXPECT_EQ(result_fingerprint(hit->second.result),
              result_fingerprint(record.result))
        << label;
  }
  std::remove(clean_path.c_str());
  std::remove(killed_path.c_str());
}

TEST(Journal, CancelledJobsAreNotJournaledSoResumeRetriesThem) {
  const std::string path = ::testing::TempDir() + "retry_journal.jsonl";
  std::remove(path.c_str());
  std::vector<engine::FlowJob> jobs;
  jobs.push_back(cheap_job("retry_0", 36, 10));
  engine::EngineOptions options;
  options.journal_path = path;
  options.cancel = util::CancelToken::cancellable();
  options.cancel.request_cancel();
  const engine::BatchResult batch =
      engine::FlowEngine(options).run(std::move(jobs));
  EXPECT_EQ(batch.outcomes[0].status, engine::JobStatus::kCancelled);
  EXPECT_TRUE(engine::load_journal(path).empty());
  std::remove(path.c_str());
}

// --- loud input validation (formerly release-invisible asserts) -------------

TEST(InputValidation, UnknownBenchmarkNameThrowsStructuredError) {
  try {
    (void)netlist::generate_named("definitely_not_a_benchmark", false);
    FAIL() << "expected FlowError";
  } catch (const FlowError& e) {
    EXPECT_EQ(e.code(), util::StatusCode::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("definitely_not_a_benchmark"),
              std::string::npos);
  }
}

TEST(InputValidation, ImpossibleSpecIsRejectedBeforeGeneration) {
  netlist::BenchSpec tiny;
  tiny.name = "tiny";
  tiny.width = 4;
  tiny.height = 4;
  tiny.num_nets = 3;
  EXPECT_EQ(netlist::validate_spec(tiny).code(), util::StatusCode::kInvalidInput);
  EXPECT_THROW((void)netlist::generate(tiny), FlowError);

  netlist::BenchSpec dense;
  dense.name = "dense";
  dense.width = 20;
  dense.height = 20;
  dense.num_nets = 500;  // 2000 worst-case pins cannot fit at spacing 3
  const util::Status status = netlist::validate_spec(dense);
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidInput);
  EXPECT_NE(status.message().find("dense"), std::string::npos);

  netlist::BenchSpec good;
  good.name = "good";
  good.width = 40;
  good.height = 40;
  good.num_nets = 12;
  EXPECT_TRUE(netlist::validate_spec(good).is_ok());
}

TEST(InputValidation, EngineIsolatesGeneratorFailures) {
  std::vector<engine::FlowJob> jobs;
  jobs.push_back(cheap_job("gen_ok", 36, 10));
  engine::FlowJob bad;
  bad.label = "gen_bad";
  bad.spec.name = "gen_bad";
  bad.spec.width = 4;  // invalid: rejected by validate_spec
  bad.spec.height = 4;
  bad.spec.num_nets = 3;
  jobs.push_back(std::move(bad));
  const engine::BatchResult batch = engine::FlowEngine().run(std::move(jobs));
  EXPECT_EQ(batch.outcomes[0].status, engine::JobStatus::kOk);
  EXPECT_EQ(batch.outcomes[1].status, engine::JobStatus::kFailed);
  EXPECT_EQ(batch.outcomes[1].error.code(), util::StatusCode::kInvalidInput);
}

TEST(InputValidation, ViaDbFailsLoudlyOnMisuseInAllBuilds) {
  EXPECT_THROW(via::ViaDb(0, 8, 1), FlowError);
  EXPECT_THROW(via::ViaDb(8, 8, 0), FlowError);

  via::ViaDb db(8, 8, 2);
  EXPECT_THROW(db.add(1, {8, 0}), FlowError);    // out of bounds
  EXPECT_THROW(db.add(3, {0, 0}), FlowError);    // bad layer
  EXPECT_THROW(db.remove(1, {0, 0}), FlowError); // nothing to remove
  db.add(1, {2, 2});
  db.remove(1, {2, 2});
  EXPECT_THROW(db.remove(1, {2, 2}), FlowError);
}

}  // namespace
