// Durable journal v2: checksummed on-disk framing, torn-tail and corrupt
// record classification on load, short-write detection in JournalWriter,
// fsync policies, and the S3 acceptance scenario — a journal whose tail
// was destroyed mid-crash still resumes to bit-identical rows.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/flow_engine.hpp"
#include "engine/journal.hpp"
#include "util/crc32.hpp"
#include "util/failpoint.hpp"

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

engine::JobOutcome sample_outcome(const std::string& label) {
  engine::JobOutcome outcome;
  outcome.label = label;
  outcome.arm = "arm/x";
  outcome.result.benchmark = label;
  outcome.result.routing.wirelength = 4242;
  outcome.result.dvi.inserted = {1, -1, 2};
  return outcome;
}

// --- v2 framing -------------------------------------------------------------

TEST(JournalV2, RecordLineIsObjectPlusCrcSuffix) {
  const engine::JobOutcome outcome = sample_outcome("crc");
  const std::string object = engine::journal_line(outcome);
  const std::string record = engine::journal_record_line(outcome);
  ASSERT_GT(record.size(), object.size());
  EXPECT_EQ(record.substr(0, object.size()), object);
  EXPECT_EQ(record[object.size()], '#');
  const std::string suffix = record.substr(object.size() + 1);
  EXPECT_EQ(suffix.size(), 8u);
  EXPECT_EQ(suffix.find_first_not_of("0123456789abcdef"), std::string::npos);

  const auto parsed = engine::parse_journal_line(record);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->from_journal);
  EXPECT_EQ(parsed->label, "crc");
  EXPECT_EQ(result_fingerprint(parsed->result),
            result_fingerprint(outcome.result));
}

TEST(JournalV2, BareV1LinesStillParse) {
  const engine::JobOutcome outcome = sample_outcome("v1");
  const auto parsed = engine::parse_journal_line(engine::journal_line(outcome));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->label, "v1");
}

TEST(JournalV2, ChecksumMismatchIsClassifiedCorrupt) {
  std::string record = engine::journal_record_line(sample_outcome("rot"));
  // Rot one byte inside the object; the line still parses as JSON.
  const std::size_t at = record.find("4242");
  ASSERT_NE(at, std::string::npos);
  record[at] = '9';
  std::string error;
  bool corrupt = false;
  EXPECT_FALSE(engine::parse_journal_line(record, &error, &corrupt).has_value());
  EXPECT_TRUE(corrupt);
  EXPECT_NE(error.find("checksum"), std::string::npos);
}

TEST(JournalV2, TruncatedLineIsTornNotCorrupt) {
  const std::string record =
      engine::journal_record_line(sample_outcome("cut"));
  bool corrupt = true;
  EXPECT_FALSE(engine::parse_journal_line(record.substr(0, record.size() / 2),
                                          nullptr, &corrupt)
                   .has_value());
  EXPECT_FALSE(corrupt);
}

// --- load classification (satellite S3) -------------------------------------

TEST(JournalLoad, PartialFinalRecordIsSkippedAndCounted) {
  const std::string path = ::testing::TempDir() + "v2_partial.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(engine::append_journal(path, sample_outcome("whole_a")).is_ok());
  ASSERT_TRUE(engine::append_journal(path, sample_outcome("whole_b")).is_ok());
  {
    // Crash mid-append: the final record stops mid-object, no newline.
    std::ofstream torn(path, std::ios::app);
    const std::string record =
        engine::journal_record_line(sample_outcome("partial"));
    torn << record.substr(0, record.size() / 3);
  }
  engine::JournalLoadStats stats;
  const auto records = engine::load_journal(path, &stats);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(records.count("whole_a"), 1u);
  EXPECT_EQ(records.count("whole_b"), 1u);
  EXPECT_EQ(stats.lines, 3u);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.skipped_torn, 1u);
  EXPECT_EQ(stats.skipped_corrupt, 0u);
  EXPECT_EQ(stats.skipped(), 1u);
  std::remove(path.c_str());
}

TEST(JournalLoad, LineCutMidUnicodeEscapeIsSkipped) {
  const std::string path = ::testing::TempDir() + "v2_escape.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(engine::append_journal(path, sample_outcome("whole")).is_ok());
  {
    // A label with a control character serializes through a \uXXXX escape;
    // cut the record in the middle of that escape sequence.
    engine::JobOutcome esc = sample_outcome("esc\x01label");
    const std::string record = engine::journal_record_line(esc);
    const std::size_t at = record.find("\\u");
    ASSERT_NE(at, std::string::npos);
    std::ofstream torn(path, std::ios::app);
    torn << record.substr(0, at + 3);
  }
  engine::JournalLoadStats stats;
  const auto records = engine::load_journal(path, &stats);
  EXPECT_EQ(records.size(), 1u);
  EXPECT_EQ(records.count("whole"), 1u);
  EXPECT_EQ(stats.skipped_torn, 1u);
  std::remove(path.c_str());
}

TEST(JournalLoad, TrailingGarbageAndRottedRecordsAreClassified) {
  const std::string path = ::testing::TempDir() + "v2_garbage.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(engine::append_journal(path, sample_outcome("whole")).is_ok());
  {
    std::ofstream extra(path, std::ios::app);
    // Rotted record: valid framing, one flipped byte inside the object.
    std::string rotted = engine::journal_record_line(sample_outcome("rot"));
    const std::size_t at = rotted.find("4242");
    ASSERT_NE(at, std::string::npos);
    rotted[at] = '0';
    extra << rotted << '\n';
    // Plain garbage bytes.
    extra << "!!not json at all##" << '\n';
    // Intact framing (the CRC holds) over counts no field can hold: the
    // record is corrupt, and reading it must not reach an undefined cast.
    for (const auto& [field, value] :
         {std::pair<std::string, std::string>{"\"wirelength\":", "1e30"},
          {"\"via_count\":", "0.5"},
          {"\"maze_pops\":", "-1"}}) {
      std::string object = engine::journal_line(sample_outcome("wild"));
      const std::size_t at = object.find(field);
      ASSERT_NE(at, std::string::npos) << field;
      const std::size_t from = at + field.size();
      object.replace(from, object.find_first_of(",}", from) - from, value);
      char crc[9];
      std::snprintf(crc, sizeof crc, "%08x", util::crc32(object));
      extra << object << '#' << crc << '\n';
    }
  }
  engine::JournalLoadStats stats;
  const auto records = engine::load_journal(path, &stats);
  EXPECT_EQ(records.size(), 1u);
  EXPECT_EQ(stats.lines, 6u);
  EXPECT_EQ(stats.skipped_corrupt, 4u);
  EXPECT_EQ(stats.skipped_torn, 1u);
  std::remove(path.c_str());
}

TEST(JournalLoad, LegacyV1RecordsLoadAndAreCounted) {
  const std::string path = ::testing::TempDir() + "v1_legacy.jsonl";
  std::remove(path.c_str());
  {
    std::ofstream out(path);
    out << engine::journal_line(sample_outcome("old")) << '\n';
  }
  ASSERT_TRUE(engine::append_journal(path, sample_outcome("new")).is_ok());
  engine::JournalLoadStats stats;
  const auto records = engine::load_journal(path, &stats);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(stats.legacy_v1, 1u);
  EXPECT_EQ(stats.skipped(), 0u);
  std::remove(path.c_str());
}

// --- JournalWriter: short writes and sync policies (satellite S2) -----------

TEST(JournalWriter, ShortWriteSurfacesStructuredStatusAndReframes) {
  util::FailPointRegistry::instance().clear();
  const std::string path = ::testing::TempDir() + "short_write.jsonl";
  std::remove(path.c_str());

  engine::JournalWriter writer;
  ASSERT_TRUE(writer.open(path, engine::JournalSync::kNone).is_ok());
  ASSERT_TRUE(writer.append(sample_outcome("before")).is_ok());

  ASSERT_TRUE(util::FailPointRegistry::instance()
                  .configure("journal.append=short*1", /*seed=*/1)
                  .is_ok());
  const util::Status torn = writer.append(sample_outcome("torn"));
  EXPECT_FALSE(torn.is_ok());
  EXPECT_EQ(torn.code(), util::StatusCode::kInternal);
  EXPECT_NE(torn.message().find("bytes reached the file"), std::string::npos);
  util::FailPointRegistry::instance().clear();

  // The re-framing newline bounds the damage: the next append lands on a
  // fresh line and the file loads with exactly one torn record skipped.
  ASSERT_TRUE(writer.append(sample_outcome("after")).is_ok());
  ASSERT_TRUE(writer.finish().is_ok());
  engine::JournalLoadStats stats;
  const auto records = engine::load_journal(path, &stats);
  EXPECT_EQ(records.count("before"), 1u);
  EXPECT_EQ(records.count("after"), 1u);
  EXPECT_EQ(records.count("torn"), 0u);
  EXPECT_EQ(stats.skipped_torn, 1u);
  std::remove(path.c_str());
}

TEST(JournalWriter, SyncPoliciesAppendAndFinish) {
  for (const engine::JournalSync sync :
       {engine::JournalSync::kNone, engine::JournalSync::kBatch,
        engine::JournalSync::kAlways}) {
    const std::string path = ::testing::TempDir() + "sync_" +
                             engine::journal_sync_name(sync) + ".jsonl";
    std::remove(path.c_str());
    engine::JournalWriter writer;
    ASSERT_TRUE(writer.open(path, sync).is_ok());
    ASSERT_TRUE(writer.append(sample_outcome("row")).is_ok());
    ASSERT_TRUE(writer.finish().is_ok());
    writer.close();
    EXPECT_EQ(engine::load_journal(path).count("row"), 1u)
        << engine::journal_sync_name(sync);
    std::remove(path.c_str());
  }
}

TEST(JournalSyncNames, RoundTrip) {
  for (const engine::JournalSync sync :
       {engine::JournalSync::kNone, engine::JournalSync::kBatch,
        engine::JournalSync::kAlways}) {
    const auto parsed =
        engine::parse_journal_sync(engine::journal_sync_name(sync));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, sync);
  }
  EXPECT_FALSE(engine::parse_journal_sync("sometimes").has_value());
}

// --- the S3 acceptance scenario ---------------------------------------------

// Destroy the journal's tail three different ways (truncation mid-record,
// cut inside a \u escape, trailing garbage), then --resume: the batch must
// complete, report the skipped records, and produce rows bit-identical to
// an uninterrupted run.
TEST(JournalRecovery, TornTailResumesToBitIdenticalRows) {
  auto make_jobs = [] {
    std::vector<engine::FlowJob> jobs;
    for (int i = 0; i < 4; ++i) {
      jobs.push_back(cheap_job("tear_" + std::to_string(i), 36 + 2 * i,
                               10 + i));
    }
    return jobs;
  };

  // Reference: the uninterrupted run.
  const std::string clean_path = ::testing::TempDir() + "tear_clean.jsonl";
  std::remove(clean_path.c_str());
  engine::EngineOptions clean_options;
  clean_options.num_workers = 1;
  clean_options.journal_path = clean_path;
  const engine::BatchResult clean =
      engine::FlowEngine(clean_options).run(make_jobs());
  ASSERT_TRUE(clean.all_ok());

  const auto damage_tail = [](const std::string& path, int mode) {
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    in.close();
    ASSERT_FALSE(lines.empty());
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) out << lines[i] << '\n';
    const std::string& last = lines.back();
    switch (mode) {
      case 0:  // crash mid-append: half a record, no newline
        out << last.substr(0, last.size() / 2);
        break;
      case 1:  // cut inside an escape sequence (or mid-record without one)
        out << last.substr(0, last.find("\\u") == std::string::npos
                                  ? last.size() / 3
                                  : last.find("\\u") + 2);
        break;
      case 2:  // record replaced by garbage
        out << "\x01\x02 garbage tail ###\n";
        break;
    }
  };

  for (int mode = 0; mode < 3; ++mode) {
    const std::string path = ::testing::TempDir() + "tear_damaged_" +
                             std::to_string(mode) + ".jsonl";
    std::remove(path.c_str());

    // Full journaled run, then destroy the final record the mode's way.
    engine::EngineOptions first_options;
    first_options.num_workers = 1;
    first_options.journal_path = path;
    ASSERT_TRUE(engine::FlowEngine(first_options).run(make_jobs()).all_ok());
    damage_tail(path, mode);

    // Resume: the damaged record's job re-executes, the skip is counted.
    engine::EngineOptions resume_options;
    resume_options.num_workers = 1;
    resume_options.journal_path = path;
    resume_options.resume = true;
    const engine::BatchResult resumed =
        engine::FlowEngine(resume_options).run(make_jobs());
    EXPECT_TRUE(resumed.all_ok()) << "mode " << mode;
    EXPECT_EQ(resumed.journal_skipped, 1u) << "mode " << mode;
    EXPECT_EQ(resumed.resumed, make_jobs().size() - 1) << "mode " << mode;

    ASSERT_EQ(resumed.outcomes.size(), clean.outcomes.size());
    for (std::size_t i = 0; i < clean.outcomes.size(); ++i) {
      EXPECT_EQ(resumed.outcomes[i].label, clean.outcomes[i].label);
      EXPECT_EQ(result_fingerprint(resumed.outcomes[i].result),
                result_fingerprint(clean.outcomes[i].result))
          << "mode " << mode << " " << clean.outcomes[i].label;
    }
    std::remove(path.c_str());
  }
  std::remove(clean_path.c_str());
}

// An append failure mid-batch must not stop the batch, but it must surface:
// the rows all stream, BatchResult::journal_error carries the first failure,
// and the exit code goes nonzero.
TEST(JournalRecovery, AppendFailureSurfacesWithoutStoppingTheBatch) {
  util::FailPointRegistry::instance().clear();
  const std::string path = ::testing::TempDir() + "append_fail.jsonl";
  std::remove(path.c_str());

  ASSERT_TRUE(util::FailPointRegistry::instance()
                  .configure("journal.append=err*1", /*seed=*/7)
                  .is_ok());
  engine::EngineOptions options;
  options.num_workers = 1;
  options.journal_path = path;
  std::vector<engine::FlowJob> jobs;
  jobs.push_back(cheap_job("jf_0", 36, 10));
  jobs.push_back(cheap_job("jf_1", 38, 11));
  const engine::BatchResult batch =
      engine::FlowEngine(options).run(std::move(jobs));
  util::FailPointRegistry::instance().clear();

  EXPECT_EQ(batch.ok, 2u);  // every row still computed and streamed
  EXPECT_FALSE(batch.journal_error.is_ok());
  EXPECT_NE(batch.journal_error.message().find("failpoint(journal.append)"),
            std::string::npos);
  EXPECT_EQ(batch.exit_code(), 1);
  // Exactly one record failed to persist; the other one loads.
  EXPECT_EQ(engine::load_journal(path).size(), 1u);
  std::remove(path.c_str());
}

}  // namespace
