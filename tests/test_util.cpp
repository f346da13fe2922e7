// Unit tests for the util library: deterministic RNG, statistics, tables.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "util/args.hpp"
#include "util/cancel.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"
#include "util/table.hpp"
#include "util/union_find.hpp"
#include "util/zero_array.hpp"

namespace sadp::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256StarStar a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256StarStar a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a() == b();
  EXPECT_LT(equal, 4);
}

TEST(Rng, BelowRespectsBound) {
  Xoshiro256StarStar rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, RangeIsInclusive) {
  Xoshiro256StarStar rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 400; ++i) {
    const auto v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256StarStar rng(13);
  double sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
}

TEST(Rng, Fnv1aStableAndDistinct) {
  EXPECT_EQ(fnv1a("ecc"), fnv1a("ecc"));
  EXPECT_NE(fnv1a("ecc"), fnv1a("efc"));
  EXPECT_NE(fnv1a(""), fnv1a("a"));
}

TEST(Stats, AccumulatorMoments) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
}

TEST(Stats, EmptyAccumulatorIsSafe) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Stats, HistogramBinEdges) {
  // Bin 0 holds only the value 0; bin i holds the values of bit width i.
  EXPECT_EQ(Histogram::bin_index(0), 0u);
  EXPECT_EQ(Histogram::bin_index(1), 1u);
  EXPECT_EQ(Histogram::bin_index(2), 2u);
  EXPECT_EQ(Histogram::bin_index(3), 2u);
  EXPECT_EQ(Histogram::bin_index(4), 3u);
  EXPECT_EQ(Histogram::bin_index(1023), 10u);
  EXPECT_EQ(Histogram::bin_index(1024), 11u);
  EXPECT_EQ(Histogram::bin_index(~std::uint64_t{0}), 64u);

  for (std::size_t bin = 1; bin < Histogram::kNumBins; ++bin) {
    // Every bin's own edges land inside it, and the edges are contiguous.
    EXPECT_EQ(Histogram::bin_index(Histogram::bin_lower(bin)), bin) << bin;
    EXPECT_EQ(Histogram::bin_index(Histogram::bin_upper(bin)), bin) << bin;
    EXPECT_EQ(Histogram::bin_lower(bin), Histogram::bin_upper(bin - 1) + 1)
        << bin;
  }
  EXPECT_EQ(Histogram::bin_lower(0), 0u);
  EXPECT_EQ(Histogram::bin_upper(0), 0u);
  EXPECT_EQ(Histogram::bin_upper(64), ~std::uint64_t{0});
}

TEST(Stats, HistogramCountsAndPercentiles) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);  // empty is safe

  // 90 samples of 3 and 10 samples of 1000: p50 must sit in bin 2, p95 and
  // the max in the 1000s bin (clamped to the exact maximum).
  for (int i = 0; i < 90; ++i) h.add(3);
  for (int i = 0; i < 10; ++i) h.add(1000);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.bin_count(Histogram::bin_index(3)), 90u);
  EXPECT_EQ(h.bin_count(Histogram::bin_index(1000)), 10u);
  EXPECT_EQ(h.percentile(0.5), Histogram::bin_upper(Histogram::bin_index(3)));
  EXPECT_EQ(h.percentile(0.95), 1000u);  // bin edge 1023 clamps to max
  EXPECT_EQ(h.percentile(1.0), 1000u);

  // The zero bin participates like any other.
  Histogram zeros;
  zeros.add(0);
  zeros.add(0);
  zeros.add(5);
  EXPECT_EQ(zeros.percentile(0.5), 0u);
  EXPECT_EQ(zeros.percentile(1.0), 5u);
}

TEST(Stats, HistogramMergeMatchesCombinedSamples) {
  Histogram a, b, combined;
  const std::uint64_t a_samples[] = {0, 1, 7, 7, 300};
  const std::uint64_t b_samples[] = {2, 2, 90000, 15};
  for (const std::uint64_t v : a_samples) {
    a.add(v);
    combined.add(v);
  }
  for (const std::uint64_t v : b_samples) {
    b.add(v);
    combined.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.max(), combined.max());
  for (std::size_t bin = 0; bin < Histogram::kNumBins; ++bin) {
    EXPECT_EQ(a.bin_count(bin), combined.bin_count(bin)) << bin;
  }
  for (const double q : {0.0, 0.25, 0.5, 0.9, 1.0}) {
    EXPECT_EQ(a.percentile(q), combined.percentile(q)) << q;
  }
}

TEST(ArgParser, UsageLeavesTwoSpacesAfterALongFlag) {
  int jobs = 0;
  std::uint64_t seed = 0;
  ArgParser parser("test");
  parser.add_int("--jobs", &jobs, "worker threads");
  parser.add_uint64("--failpoints-seed", &seed, "base seed", "SEED");
  const std::string usage = parser.usage("prog");
  // A short flag pads to the 24-column field; one that fills it still
  // gets two spaces before its help.
  EXPECT_NE(usage.find("\n  --jobs N" + std::string(14, ' ') +
                       "worker threads\n"),
            std::string::npos)
      << usage;
  EXPECT_NE(usage.find("\n  --failpoints-seed SEED  base seed\n"),
            std::string::npos)
      << usage;
}

TEST(Table, AlignsColumns) {
  TextTable t({"a", "long_header"});
  t.begin_row();
  t.cell("x");
  t.cell(42);
  t.begin_row();
  t.cell("yy");
  t.cell(3.5, 1);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| a  | long_header |"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
  EXPECT_NE(s.find("3.5"), std::string::npos);
  // All lines equal length.
  std::size_t pos = 0, prev_len = std::string::npos;
  while (pos < s.size()) {
    const auto end = s.find('\n', pos);
    const std::size_t len = end - pos;
    if (prev_len != std::string::npos) {
      EXPECT_EQ(len, prev_len);
    }
    prev_len = len;
    pos = end + 1;
  }
}

TEST(Table, HandlesMissingCells) {
  TextTable t({"a", "b"});
  t.begin_row();
  t.cell("only_one");
  EXPECT_NE(t.to_string().find("only_one"), std::string::npos);
}

TEST(JsonParse, WriterOutputRoundTrips) {
  JsonWriter json;
  json.begin_object();
  json.key("name").value("ckt \"1\"\n");
  json.key("wl").value(1234);
  json.key("ratio").value(0.125);
  json.key("ok").value(true);
  json.key("rows").begin_array();
  json.value(1).value(2).value(3);
  json.end_array();
  json.end_object();

  std::string error;
  const auto doc = parse_json(json.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->find("name")->string_value, "ckt \"1\"\n");
  EXPECT_EQ(doc->find("wl")->number_value, 1234);
  EXPECT_EQ(doc->find("ratio")->number_value, 0.125);
  EXPECT_TRUE(doc->find("ok")->bool_value);
  ASSERT_TRUE(doc->find("rows")->is_array());
  ASSERT_EQ(doc->find("rows")->array.size(), 3u);
  EXPECT_EQ(doc->find("rows")->array[2].number_value, 3);
  EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(JsonParse, HandlesWhitespaceEscapesAndNesting) {
  const char* text = R"({ "a" : [ { "b\u0041c" : -1.5e2 }, null, false ] })";
  const auto doc = parse_json(text);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* a = doc->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_EQ(a->array[0].find("bAc")->number_value, -150.0);
  EXPECT_TRUE(a->array[1].is_null());
  EXPECT_FALSE(a->array[2].bool_value);
}

TEST(JsonParse, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2",
        "{\"a\": 1,}", "nul", "{\"a\" 1}"}) {
    std::string error;
    EXPECT_FALSE(parse_json(bad, &error).has_value()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

// --- Status / FlowError -----------------------------------------------------

TEST(JsonParse, CheckedIntegerNarrowing) {
  const auto number = [](const char* text) { return *parse_json(text); };
  std::int64_t out = -7;
  std::string error;
  EXPECT_TRUE(json_integer(number("-3"), "n", -5, 5, &out, &error));
  EXPECT_EQ(out, -3);
  EXPECT_TRUE(json_integer(number("9007199254740991"), "n", 0, kJsonMaxInt,
                           &out, &error));
  EXPECT_EQ(out, kJsonMaxInt);
  for (const char* bad : {"6", "-6", "0.5", "1e30", "-1e300", "\"3\"", "null"}) {
    out = 42;
    EXPECT_FALSE(json_integer(number(bad), "n", -5, 5, &out, &error)) << bad;
    EXPECT_EQ(out, 42) << "untouched on failure";
    EXPECT_EQ(error, "field 'n' must be an integer in [-5, 5]");
  }
  // The member form clips to the target type and leaves absent members be.
  const JsonValue doc = *parse_json(R"({"u":-1,"big":4294967296,"ok":12})");
  std::uint64_t seed = 3;
  EXPECT_FALSE(read_json_int(doc, "u", &seed, &error));
  EXPECT_TRUE(read_json_int(doc, "absent", &seed, &error));
  EXPECT_EQ(seed, 3u);
  int small = 0;
  EXPECT_FALSE(read_json_int(doc, "big", &small, &error));
  EXPECT_TRUE(read_json_int(doc, "ok", &small, &error));
  EXPECT_EQ(small, 12);
}

TEST(ZeroArray, StartsZeroOnTheHeapAndMappedPathsAndMoves) {
  // One array below the mapping threshold (calloc) and one above it
  // (anonymous mapping): both read as zero everywhere and keep writes.
  const std::size_t big = kZeroArrayMapBytes / sizeof(double) + 3;
  for (const std::size_t n : {std::size_t{5}, big}) {
    ZeroArray<double> a(n);
    ASSERT_EQ(a.size(), n);
    for (const std::size_t i : {std::size_t{0}, n / 2, n - 1}) {
      EXPECT_EQ(a[i], 0.0);
    }
    a[n - 1] = 2.5;
    ZeroArray<double> b(std::move(a));
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(b[n - 1], 2.5);
    ZeroArray<double> c(1);
    c = std::move(b);
    EXPECT_EQ(c.size(), n);
    EXPECT_EQ(c[n - 1], 2.5);
  }
  EXPECT_EQ(ZeroArray<std::int64_t>(0).size(), 0u);
  EXPECT_THROW(ZeroArray<double>(~std::size_t{0} / 4), std::bad_alloc);
}

TEST(Status, FactoriesCarryCodeAndMessage) {
  EXPECT_TRUE(Status::ok().is_ok());
  EXPECT_TRUE(Status().is_ok());
  const Status s = Status::unroutable("net 3 blocked");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kUnroutable);
  EXPECT_EQ(s.message(), "net 3 blocked");
  EXPECT_EQ(s.to_string(), "unroutable: net 3 blocked");
  EXPECT_EQ(Status::ok().to_string(), "ok");
}

TEST(Status, CodeNamesRoundTripThroughParse) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidInput, StatusCode::kUnroutable,
        StatusCode::kSolverTimeout, StatusCode::kCancelled,
        StatusCode::kInternal}) {
    EXPECT_EQ(parse_status_code(status_code_name(code)), code)
        << status_code_name(code);
  }
  // Unknown names degrade to kInternal (journal forward compatibility).
  EXPECT_EQ(parse_status_code("no_such_code"), StatusCode::kInternal);
}

TEST(Status, FlowErrorExposesStatusAndWhat) {
  const sadp::FlowError error(StatusCode::kSolverTimeout, "budget spent");
  EXPECT_EQ(error.code(), StatusCode::kSolverTimeout);
  EXPECT_EQ(error.status().to_string(), "solver_timeout: budget spent");
  EXPECT_EQ(std::string(error.what()), "budget spent");
}

// --- CancelToken ------------------------------------------------------------

TEST(CancelToken, DefaultTokenNeverStops) {
  const CancelToken token;
  EXPECT_FALSE(token.can_stop());
  EXPECT_FALSE(token.stop_requested());
  EXPECT_EQ(token.reason(), StopReason::kNone);
  token.request_cancel();  // no-op on a default token
  EXPECT_FALSE(token.stop_requested());
}

TEST(CancelToken, ExplicitCancelPropagatesThroughCopies) {
  const CancelToken token = CancelToken::cancellable();
  const CancelToken copy = token;
  EXPECT_TRUE(token.can_stop());
  EXPECT_FALSE(token.stop_requested());
  token.request_cancel();
  EXPECT_TRUE(copy.stop_requested());
  EXPECT_EQ(copy.reason(), StopReason::kCancelled);
  EXPECT_EQ(copy.status("unit test").code(), StatusCode::kCancelled);
}

TEST(CancelToken, ExpiredDeadlineStopsWithTimeoutReason) {
  const CancelToken token = CancelToken::with_deadline(0.0);
  EXPECT_TRUE(token.stop_requested());
  EXPECT_EQ(token.reason(), StopReason::kDeadline);
  EXPECT_EQ(token.status("unit test").code(), StatusCode::kSolverTimeout);
  EXPECT_LE(token.seconds_remaining(), 0.0);

  const CancelToken future = CancelToken::with_deadline(3600.0);
  EXPECT_FALSE(future.stop_requested());
  EXPECT_GT(future.seconds_remaining(), 3000.0);
}

TEST(CancelToken, ChildInheritsParentCancellation) {
  const CancelToken parent = CancelToken::cancellable();
  const CancelToken child = parent.child_with_deadline(3600.0);
  EXPECT_FALSE(child.stop_requested());
  parent.request_cancel();
  EXPECT_TRUE(child.stop_requested());
  EXPECT_EQ(child.reason(), StopReason::kCancelled);

  // A child's own firing does not touch the parent.
  const CancelToken quiet = CancelToken::cancellable();
  const CancelToken noisy = quiet.child();
  noisy.request_cancel();
  EXPECT_TRUE(noisy.stop_requested());
  EXPECT_FALSE(quiet.stop_requested());
}

// A deadline past the tick range saturates at the ceiling instead of
// overflowing the cast (a float-cast-overflow report without the clamp).
TEST(CancelToken, HugeDeadlinesSaturateAtTheCeiling) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double seconds : {1e30, inf, nan, kMaxDeadlineSeconds * 10}) {
    for (const CancelToken& token :
         {CancelToken::with_deadline(seconds),
          CancelToken::cancellable().child_with_deadline(seconds)}) {
      EXPECT_FALSE(token.stop_requested()) << seconds;
      EXPECT_LE(token.seconds_remaining(), kMaxDeadlineSeconds) << seconds;
      EXPECT_GT(token.seconds_remaining(), kMaxDeadlineSeconds - 60) << seconds;
    }
  }
  // Below zero saturates at zero: the deadline has passed.
  EXPECT_TRUE(CancelToken::with_deadline(-1e30).stop_requested());
}

TEST(CancelToken, ChildDeadlineTightensButNeverLoosens) {
  const CancelToken parent = CancelToken::with_deadline(0.0);
  const CancelToken child = parent.child_with_deadline(3600.0);
  // The parent's already-expired deadline wins over the child's slack one.
  EXPECT_TRUE(child.stop_requested());
  EXPECT_EQ(child.reason(), StopReason::kDeadline);
}

// Groups come out in first-seen order (by smallest member), each one
// ascending: both component splits rely on that order.
TEST(UnionFind, GroupsInFirstSeenOrderWithAscendingMembers) {
  UnionFind uf(8);
  uf.unite(6, 1);
  uf.unite(4, 7);
  uf.unite(7, 0);
  uf.unite(3, 6);
  EXPECT_EQ(uf.find(1), uf.find(3));
  EXPECT_NE(uf.find(1), uf.find(0));
  const std::vector<std::vector<int>> want = {{0, 4, 7}, {1, 3, 6}, {2}, {5}};
  EXPECT_EQ(uf.groups(), want);
  EXPECT_TRUE(UnionFind(0).groups().empty());
}

}  // namespace
}  // namespace sadp::util
