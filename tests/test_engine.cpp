// FlowEngine: scheduling-independent determinism, metrics schema, and the
// shared ArgParser used by every benchmark binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "engine/flow_engine.hpp"
#include "engine/journal.hpp"
#include "util/args.hpp"
#include "util/json.hpp"

namespace {

using namespace sadp;

std::vector<engine::FlowJob> small_job_list() {
  std::vector<engine::FlowJob> jobs;
  const struct {
    const char* name;
    int side;
    int nets;
  } instances[3] = {{"engine_a", 40, 20}, {"engine_b", 44, 24}, {"engine_c", 48, 28}};
  for (const auto& inst : instances) {
    for (const bool tpl : {false, true}) {
      engine::FlowJob job;
      job.label = std::string(inst.name) + (tpl ? "/tpl" : "/base");
      job.arm = tpl ? "tpl" : "base";
      job.spec.name = inst.name;
      job.spec.width = inst.side;
      job.spec.height = inst.side;
      job.spec.num_nets = inst.nets;
      job.config.options.consider_dvi = true;
      job.config.options.consider_tpl = tpl;
      job.config.dvi_method = core::DviMethod::kHeuristic;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
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

TEST(FlowEngine, ResultsAreBitIdenticalAcrossWorkerCounts) {
  engine::EngineOptions serial;
  serial.num_workers = 1;
  const auto one = engine::FlowEngine(serial).run(small_job_list()).outcomes;

  engine::EngineOptions parallel;
  parallel.num_workers = 8;
  const auto eight = engine::FlowEngine(parallel).run(small_job_list()).outcomes;

  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].label, eight[i].label) << i;
    EXPECT_EQ(result_fingerprint(one[i].result), result_fingerprint(eight[i].result))
        << one[i].label;
  }
}

TEST(FlowEngine, OutcomesKeepJobOrderAndReportProgress) {
  std::atomic<int> callbacks{0};
  engine::EngineOptions options;
  options.num_workers = 4;
  options.on_job_done = [&](const engine::JobOutcome&, std::size_t done,
                            std::size_t total) {
    ++callbacks;
    EXPECT_LE(done, total);
  };
  auto jobs = small_job_list();
  std::vector<std::string> labels;
  for (const auto& job : jobs) labels.push_back(job.label);

  const auto outcomes = engine::FlowEngine(options).run(std::move(jobs)).outcomes;
  ASSERT_EQ(outcomes.size(), labels.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].label, labels[i]);
  }
  EXPECT_EQ(callbacks.load(), static_cast<int>(labels.size()));
}

TEST(FlowEngine, KeepRouterRetainsRouterAndDviGeometry) {
  auto jobs = small_job_list();
  jobs.resize(1);
  jobs[0].keep_router = true;
  const auto outcomes = engine::FlowEngine().run(std::move(jobs)).outcomes;
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_NE(outcomes[0].router, nullptr);
  EXPECT_EQ(outcomes[0].dvi_inserted_at.size(),
            outcomes[0].result.dvi.inserted.size());

  // Without keep_router the router is dropped.
  auto cheap = small_job_list();
  cheap.resize(1);
  const auto dropped = engine::FlowEngine().run(std::move(cheap)).outcomes;
  EXPECT_EQ(dropped[0].router, nullptr);
}

TEST(FlowEngine, PrePlacedNetlistSkipsGeneration) {
  netlist::BenchSpec spec;
  spec.name = "engine_preplaced";
  spec.width = 40;
  spec.height = 40;
  spec.num_nets = 15;
  engine::FlowJob job;
  job.netlist = netlist::generate(spec);
  job.config.dvi_method = core::DviMethod::kHeuristic;
  const auto outcomes = engine::FlowEngine().run({std::move(job)}).outcomes;
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].label, "engine_preplaced");
  EXPECT_EQ(outcomes[0].result.benchmark, "engine_preplaced");
  EXPECT_TRUE(outcomes[0].result.routing.routed_all);
}

TEST(FlowEngine, MetricsJsonRoundTripsThroughUtilJson) {
  auto jobs = small_job_list();
  jobs.resize(2);
  const auto outcomes = engine::FlowEngine().run(std::move(jobs)).outcomes;
  const std::string text = engine::metrics_json(outcomes, 4, 1.5);

  std::string error;
  const auto doc = util::parse_json(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_TRUE(doc->is_object());
  ASSERT_NE(doc->find("schema"), nullptr);
  EXPECT_EQ(doc->find("schema")->string_value, "sadp.flow_metrics.v1");
  EXPECT_EQ(doc->find("workers")->number_value, 4);
  EXPECT_EQ(doc->find("jobs")->number_value, 2);

  const util::JsonValue* results = doc->find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_TRUE(results->is_array());
  ASSERT_EQ(results->array.size(), outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const util::JsonValue& row = results->array[i];
    ASSERT_TRUE(row.is_object());
    EXPECT_EQ(row.find("label")->string_value, outcomes[i].label);
    EXPECT_EQ(row.find("arm")->string_value, outcomes[i].arm);
    EXPECT_EQ(row.find("benchmark")->string_value, outcomes[i].result.benchmark);
    EXPECT_EQ(row.find("wirelength")->number_value,
              static_cast<double>(outcomes[i].result.routing.wirelength));
    EXPECT_EQ(row.find("dead_vias")->number_value,
              outcomes[i].result.dvi.dead_vias);
    EXPECT_EQ(row.find("queue_peak")->number_value,
              static_cast<double>(outcomes[i].metrics.queue_peak));
    const util::JsonValue* stages = row.find("stages");
    ASSERT_NE(stages, nullptr);
    for (const char* stage : {"generate", "route", "initial_routing",
                              "congestion_rr", "tpl_rr", "coloring", "dvi"}) {
      ASSERT_NE(stages->find(stage), nullptr) << stage;
      EXPECT_TRUE(stages->find(stage)->is_number()) << stage;
    }
    // The element is the journal object plus `stages`: it reads back as the
    // outcome it was written from.
    const auto parsed = engine::parse_outcome_object(row, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(engine::journal_line(*parsed), engine::journal_line(outcomes[i]));
  }
}

TEST(FlowEngine, JournaledBatchRejectsDuplicateLabelsUpFront) {
  // The journal is keyed by label, so a duplicate would alias rows on
  // resume.  The whole batch is rejected before anything executes.
  auto jobs = small_job_list();
  jobs[1].label = jobs[0].label;
  engine::EngineOptions options;
  options.journal_path = testing::TempDir() + "engine_dup_journal.jsonl";
  const auto batch = engine::FlowEngine(options).run(std::move(jobs));
  EXPECT_EQ(batch.failed, batch.outcomes.size());
  for (const auto& outcome : batch.outcomes) {
    EXPECT_EQ(outcome.status, engine::JobStatus::kFailed);
    EXPECT_EQ(outcome.error.code(), util::StatusCode::kInvalidInput);
  }

  // Un-journaled batches still allow duplicates (the bench tables reuse a
  // circuit label across experiment arms).
  auto unjournaled = small_job_list();
  unjournaled.resize(2);
  unjournaled[1].label = unjournaled[0].label;
  EXPECT_EQ(engine::FlowEngine().run(std::move(unjournaled)).failed, 0u);
}

TEST(FlowEngine, UnopenableJournalFailsEveryJobUpFront) {
  // The journal's parent is a regular file, so opening it fails with
  // ENOTDIR (which, unlike a permission error, holds for root too).  The
  // batch fails loudly instead of running without crash safety.
  const std::string parent = testing::TempDir() + "engine_journal_parent";
  std::ofstream(parent) << "not a directory\n";
  std::atomic<int> executed{0};
  engine::EngineOptions options;
  options.journal_path = parent + "/journal.jsonl";
  options.on_job_done = [&](const engine::JobOutcome&, std::size_t,
                            std::size_t) { ++executed; };
  auto jobs = small_job_list();
  std::vector<std::string> labels;
  for (const auto& job : jobs) labels.push_back(job.label);

  const auto batch = engine::FlowEngine(options).run(std::move(jobs));
  EXPECT_FALSE(batch.journal_error.is_ok());
  EXPECT_NE(batch.journal_error.message().find("Not a directory"),
            std::string::npos)
      << batch.journal_error.message();
  EXPECT_EQ(batch.failed, batch.outcomes.size());
  ASSERT_EQ(batch.outcomes.size(), labels.size());
  for (std::size_t i = 0; i < batch.outcomes.size(); ++i) {
    const engine::JobOutcome& outcome = batch.outcomes[i];
    EXPECT_EQ(outcome.label, labels[i]);
    EXPECT_EQ(outcome.result.benchmark, labels[i]);
    EXPECT_EQ(outcome.status, engine::JobStatus::kFailed);
    EXPECT_EQ(outcome.error.message(), batch.journal_error.message());
    EXPECT_EQ(outcome.result.routing.wirelength, 0);
  }
  EXPECT_EQ(executed.load(), 0);
  std::remove(parent.c_str());
}

TEST(FlowEngine, FiredDrainTokenSkipsJobsAsCancelled) {
  // Unlike `cancel`, the drain token only keeps new jobs from starting; a
  // token fired before run() therefore skips everything cleanly.
  engine::EngineOptions options;
  options.drain = util::CancelToken::cancellable();
  options.drain.request_cancel();
  const auto batch = engine::FlowEngine(options).run(small_job_list());
  EXPECT_EQ(batch.cancelled, batch.outcomes.size());
  for (const auto& outcome : batch.outcomes) {
    EXPECT_EQ(outcome.status, engine::JobStatus::kCancelled);
  }
}

TEST(FlowEngine, ExternalExecutorSuppliesTheWorkerThreads) {
  // An EngineOptions::executor replaces the engine's own thread spawning;
  // results stay bit-identical to the self-threaded run.
  struct InlineExecutor : engine::Executor {
    int calls = 0;
    void run_parallel(int tasks,
                      const std::function<void(int)>& work) override {
      for (int i = 0; i < tasks; ++i) work(i);
      ++calls;
    }
  } executor;
  engine::EngineOptions options;
  options.executor = &executor;
  options.num_workers = 4;
  auto jobs = small_job_list();
  jobs.resize(2);
  const auto via_executor = engine::FlowEngine(options).run(std::move(jobs));
  EXPECT_EQ(executor.calls, 1);

  auto reference_jobs = small_job_list();
  reference_jobs.resize(2);
  const auto reference = engine::FlowEngine().run(std::move(reference_jobs));
  ASSERT_EQ(via_executor.outcomes.size(), reference.outcomes.size());
  for (std::size_t i = 0; i < reference.outcomes.size(); ++i) {
    EXPECT_EQ(result_fingerprint(via_executor.outcomes[i].result),
              result_fingerprint(reference.outcomes[i].result));
  }
}

TEST(FlowEngine, ResolveWorkers) {
  EXPECT_EQ(engine::FlowEngine::resolve_workers(3), 3);
  EXPECT_GE(engine::FlowEngine::resolve_workers(0), 1);
}

// --- ArgParser (shared by every benchmark binary and the CLI) ---------------

TEST(ArgParser, ParsesAllKinds) {
  bool flag = false;
  std::string name;
  int jobs = 0;
  double limit = 0.0;
  int zero = 0;
  std::string spare;
  util::ArgParser parser("test");
  parser.add_flag("--full", &flag, "");
  parser.add_string("--ckt", &name, "");
  parser.add_int("--jobs", &jobs, "");
  parser.add_double("--ilp-limit", &limit, "");
  parser.add_int("--zero", &zero, "");
  parser.add_string("--spare", &spare, "");

  const char* argv[] = {"prog", "--full", "--ckt", "ecc", "--jobs", "8",
                        "--ilp-limit", "2.5", "--zero", "0"};
  EXPECT_TRUE(parser.parse(10, const_cast<char**>(argv)));
  EXPECT_TRUE(flag);
  EXPECT_EQ(name, "ecc");
  EXPECT_EQ(jobs, 8);
  EXPECT_DOUBLE_EQ(limit, 2.5);
  EXPECT_EQ(zero, 0);
  // --zero arrives at its default value and still counts as given.
  for (const char* given : {"--full", "--ckt", "--jobs", "--ilp-limit",
                            "--zero"}) {
    EXPECT_TRUE(parser.given(given)) << given;
  }
  EXPECT_FALSE(parser.given("--spare"));
  // A misspelt name in a mode check must not read as "not given".
  EXPECT_DEATH((void)parser.given("--spares"), "not a registered flag");
}

TEST(ArgParser, UnknownFlagIsAnError) {
  bool flag = false;
  util::ArgParser parser("test");
  parser.add_flag("--full", &flag, "");
  const char* argv[] = {"prog", "--fulll"};
  EXPECT_FALSE(parser.parse(2, const_cast<char**>(argv)));
}

TEST(ArgParser, HelpPrintsUsageAndExitsZero) {
  int jobs = 0;
  util::ArgParser parser("test");
  parser.add_int("--jobs", &jobs, "worker threads");
  const char* argv[] = {"prog", "--help"};
  // Usage lands on stdout (death tests only match stderr), so assert on the
  // exit code alone.
  EXPECT_EXIT((void)parser.parse(2, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(0), "");
}

TEST(ArgParser, MissingOrMalformedValueIsAnError) {
  int jobs = 0;
  std::uint64_t seed = 0;
  util::ArgParser parser("test");
  parser.add_int("--jobs", &jobs, "");
  parser.add_uint64("--seed", &seed, "");
  const char* missing[] = {"prog", "--jobs"};
  EXPECT_FALSE(parser.parse(2, const_cast<char**>(missing)));
  // Malformed or out of the target's range: never truncated, never wrapped.
  for (const char* bad :
       {"--jobs=many", "--jobs=4294967297", "--jobs=-2147483649",
        "--jobs=99999999999999999999", "--seed=abc", "--seed=-1",
        "--seed= 7", "--seed=18446744073709551616", "--seed=7x"}) {
    const std::string arg = bad;
    const std::string flag = arg.substr(0, arg.find('='));
    const std::string value = arg.substr(arg.find('=') + 1);
    const char* argv[] = {"prog", flag.c_str(), value.c_str()};
    EXPECT_FALSE(parser.parse(3, const_cast<char**>(argv))) << bad;
  }
  EXPECT_EQ(jobs, 0);
  EXPECT_EQ(seed, 0u);
  const char* widest[] = {"prog", "--jobs", "2147483647", "--seed",
                          "18446744073709551615"};
  EXPECT_TRUE(parser.parse(5, const_cast<char**>(widest)));
  EXPECT_EQ(jobs, 2147483647);
  EXPECT_EQ(seed, 18446744073709551615u);
}

}  // namespace
