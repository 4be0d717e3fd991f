#include "io/bench_json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>

#include "support/error.hpp"

namespace gridcast::io {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

BenchSeries make_series(std::string name, double wall,
                        std::vector<double> makespans) {
  BenchSeries s;
  s.name = std::move(name);
  s.wall_time_s = wall;
  s.makespan_s = std::move(makespans);
  return s;
}

BenchReport small_report() {
  BenchReport r;
  r.bench = "race";
  r.grid = "grid5000_testbed";
  r.mode = "predicted";
  r.root = 0;
  r.sizes = {262144, 524288};
  r.series.push_back(make_series("FlatTree", 0.125, {0.875, 1.75}));
  r.series.push_back(make_series("ECEF-LAT", kNaN, {0.25, 0.5}));
  return r;
}

TEST(JsonEscape, PassesPlainNamesThrough) {
  EXPECT_EQ(json_escape("ECEF-LAT"), "ECEF-LAT");
  EXPECT_EQ(json_escape("weight=gap+latency"), "weight=gap+latency");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(BenchJson, QuoteInSchedulerNameSurvivesRoundTrip) {
  // The original writer emitted names raw, so a registered name with a
  // quote or backslash corrupted BENCH_sweep.json.
  BenchReport r = small_report();
  r.series[0].name = "evil\"name\\with\ncontrols";
  const BenchReport back = bench_from_json(bench_to_json(r));
  EXPECT_EQ(back.series[0].name, "evil\"name\\with\ncontrols");
}

TEST(BenchJson, RoundTripIsByteIdentical) {
  const BenchReport r = small_report();
  const std::string once = bench_to_json(r);
  const std::string twice = bench_to_json(bench_from_json(once));
  EXPECT_EQ(once, twice);
}

TEST(BenchJson, RoundTripPreservesValuesAndNaN) {
  BenchReport r = small_report();
  r.mode = "measured";
  r.seed = 1234567890123456789ULL;
  r.jitter = 0.05;
  r.shards = 4;
  r.shard = 2;
  r.series[0].makespan_s[1] = kNaN;  // foreign shard's cell
  const BenchReport back = bench_from_json(bench_to_json(r));
  EXPECT_EQ(back.mode, "measured");
  EXPECT_EQ(back.seed, r.seed);
  EXPECT_DOUBLE_EQ(back.jitter, 0.05);
  EXPECT_EQ(back.shards, 4u);
  EXPECT_EQ(back.shard, 2u);
  ASSERT_EQ(back.series.size(), 2u);
  EXPECT_DOUBLE_EQ(back.series[0].wall_time_s, 0.125);
  EXPECT_TRUE(std::isnan(back.series[1].wall_time_s));
  EXPECT_DOUBLE_EQ(back.series[0].makespan_s[0], 0.875);
  EXPECT_TRUE(std::isnan(back.series[0].makespan_s[1]));
}

TEST(BenchJson, SeventeenDigitDoublesRoundTripExactly) {
  BenchReport r = small_report();
  r.series[0].makespan_s = {0.1 + 0.2, 13.875781257818181};
  r.series[1].makespan_s = {1.0 / 3.0, 4e-320};
  const BenchReport back = bench_from_json(bench_to_json(r));
  EXPECT_EQ(back.series[0].makespan_s[0], 0.1 + 0.2);
  EXPECT_EQ(back.series[0].makespan_s[1], 13.875781257818181);
  EXPECT_EQ(back.series[1].makespan_s[0], 1.0 / 3.0);
  EXPECT_EQ(back.series[1].makespan_s[1], 4e-320);
}

TEST(BenchJson, StrictParserRejectsMalformedInput) {
  EXPECT_THROW((void)bench_from_json("{"), InvalidInput);
  EXPECT_THROW((void)bench_from_json("[]{}"), InvalidInput);
  EXPECT_THROW((void)bench_from_json("{\"bench\": \"x\"}"), InvalidInput);
  EXPECT_THROW((void)bench_from_json(
                   "{\"sizes\": [1], \"series\": [], \"nope\": 1}"),
               InvalidInput);
  // Series cell count must match the size axis.
  EXPECT_THROW(
      (void)bench_from_json(
          "{\"sizes\": [1, 2], "
          "\"series\": [{\"name\": \"A\", \"makespan_s\": [0.5]}]}"),
      InvalidInput);
  // Shard index out of range.
  EXPECT_THROW((void)bench_from_json(
                   "{\"shards\": 2, \"shard\": 2, \"sizes\": [], "
                   "\"series\": []}"),
               InvalidInput);
}

TEST(BenchJson, RootAboveTheClusterIdRangeIsRejectedNotTruncated) {
  const auto with_root = [](const std::string& root) {
    std::string text = bench_to_json(small_report());
    const std::string key = "\"root\": 0";
    text.replace(text.find(key), key.size(), "\"root\": " + root);
    std::istringstream is(text);
    return read_bench_json(is);
  };
  EXPECT_EQ(with_root("4294967295").root, 4294967295u);
  for (const std::string big : {"4294967296", "4294967297"}) {
    try {
      (void)with_root(big);
      ADD_FAILURE() << "root " << big << " was accepted";
    } catch (const InvalidInput& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("root must be a decimal integer in [0, "
                          "4294967295], got '" + big + "'"),
                std::string::npos)
          << what;
      EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    }
  }
}

TEST(BenchJson, NumbersAreSpelledAsTheWriterSpellsThem) {
  // strtod read a '+', and read 1e400 as inf: a baseline wall time of
  // 1e400 let any wall-time regression through the gate.
  const std::string text = bench_to_json(small_report());
  const std::string key = "\"wall_time_s\": 0.125";
  ASSERT_NE(text.find(key), std::string::npos) << text;
  for (const std::string bad : {"+0.125", "+2.25", "1e400"}) {
    std::string edited = text;
    edited.replace(edited.find(key), key.size(), "\"wall_time_s\": " + bad);
    try {
      (void)bench_from_json(edited);
      ADD_FAILURE() << bad << " was accepted";
    } catch (const InvalidInput& e) {
      EXPECT_EQ(std::string(e.what()).rfind(
                    "bench JSON: wall_time_s must be a finite decimal "
                    "number, got '" + bad + "' at offset ",
                    0),
                0u)
          << e.what();
    }
  }
}

TEST(BenchJson, VerbKeySerialisesOnlyWhenNotBcast) {
  BenchReport r = small_report();
  EXPECT_EQ(r.verb, "bcast");  // the default
  EXPECT_EQ(bench_to_json(r).find("\"verb\""), std::string::npos);

  r.verb = "scatter";
  const std::string text = bench_to_json(r);
  EXPECT_NE(text.find("\"verb\": \"scatter\""), std::string::npos);
  const BenchReport parsed = bench_from_json(text);
  EXPECT_EQ(parsed.verb, "scatter");
  EXPECT_EQ(bench_to_json(parsed), text);

  // The parser canonicalises through the shared vocabulary and rejects
  // verbs outside it.
  EXPECT_THROW((void)bench_from_json(
                   "{\"verb\": \"gather\", \"sizes\": [1], \"series\": "
                   "[{\"name\": \"A\", \"makespan_s\": [0.5]}]}"),
               InvalidInput);
}

TEST(BenchCompare, VerbMismatchIsASingleProblem) {
  const BenchReport base = small_report();
  BenchReport cur = small_report();
  cur.verb = "alltoall";
  cur.series[0].makespan_s[0] *= 3.0;  // masked: the verb gates first
  const auto problems = compare_bench(base, cur);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_EQ(problems[0],
            "verb mismatch: baseline 'bcast' vs current 'alltoall'");
}

TEST(BenchCompare, IdenticalReportsPass) {
  const BenchReport r = small_report();
  EXPECT_TRUE(compare_bench(r, r).empty());
}

TEST(BenchCompare, MissingSeriesFails) {
  const BenchReport base = small_report();
  BenchReport cur = base;
  cur.series.pop_back();
  const auto problems = compare_bench(base, cur);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("missing series 'ECEF-LAT'"), std::string::npos);
}

TEST(BenchCompare, ExtraSeriesFails) {
  const BenchReport base = small_report();
  BenchReport cur = base;
  cur.series.push_back(make_series("Newcomer", kNaN, {1.0, 2.0}));
  const auto problems = compare_bench(base, cur);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("extra series 'Newcomer'"), std::string::npos);
}

TEST(BenchCompare, MakespanDriftBeyondToleranceFails) {
  const BenchReport base = small_report();
  BenchReport cur = base;
  BenchCompareOptions opts;
  opts.makespan_rtol = 1e-6;
  // Inside the tolerance band: passes.
  cur.series[0].makespan_s[0] = 0.875 * (1 + 5e-7);
  EXPECT_TRUE(compare_bench(base, cur, opts).empty());
  // Just beyond: fails.
  cur.series[0].makespan_s[0] = 0.875 * (1 + 3e-6);
  const auto problems = compare_bench(base, cur, opts);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("makespan drift"), std::string::npos);
}

TEST(BenchCompare, NanCurrentCellFails) {
  const BenchReport base = small_report();
  BenchReport cur = base;
  cur.series[1].makespan_s[1] = kNaN;  // uncomputed cell
  EXPECT_EQ(compare_bench(base, cur).size(), 1u);
}

TEST(BenchCompare, NanBaselineCellIsSkipped) {
  BenchReport base = small_report();
  base.series[1].makespan_s[1] = kNaN;  // baseline never measured it
  BenchReport cur = small_report();
  cur.series[1].makespan_s[1] = 123.0;
  EXPECT_TRUE(compare_bench(base, cur).empty());
}

TEST(BenchCompare, WallTimeRegressionFails) {
  const BenchReport base = small_report();  // FlatTree wall 0.125
  BenchReport cur = base;
  BenchCompareOptions opts;
  opts.wall_factor = 10.0;
  cur.series[0].wall_time_s = 1.25;  // exactly the limit: passes
  EXPECT_TRUE(compare_bench(base, cur, opts).empty());
  cur.series[0].wall_time_s = 1.26;
  const auto problems = compare_bench(base, cur, opts);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("wall_time_s regression"), std::string::npos);
  // Wall time present in the baseline but absent in the run also fails.
  cur.series[0].wall_time_s = kNaN;
  EXPECT_EQ(compare_bench(base, cur, opts).size(), 1u);
}

TEST(BenchCompare, MetadataMismatchFails) {
  const BenchReport base = small_report();
  BenchReport cur = base;
  cur.mode = "measured";
  EXPECT_FALSE(compare_bench(base, cur).empty());

  // Measured reports under different seeds/jitter are one metadata
  // problem (same rule the shard merger enforces), not a drift cascade.
  BenchReport mbase = base;
  mbase.mode = "measured";
  mbase.seed = 1;
  BenchReport mcur = mbase;
  mcur.seed = 2;
  for (auto& s : mcur.series)
    for (auto& v : s.makespan_s) v *= 2.0;  // would drift every cell
  const auto seed_problems = compare_bench(mbase, mcur);
  ASSERT_EQ(seed_problems.size(), 1u);
  EXPECT_NE(seed_problems[0].find("seed/jitter mismatch"), std::string::npos);

  cur = base;
  cur.sizes.push_back(786432);
  for (auto& s : cur.series) s.makespan_s.push_back(1.0);
  const auto problems = compare_bench(base, cur);
  ASSERT_EQ(problems.size(), 1u);  // ladder mismatch short-circuits
  EXPECT_NE(problems[0].find("size ladder mismatch"), std::string::npos);
}

// ---- The "micro" kind: simulator throughput lane (events/sec, sends/sec)
// with a lower-bound gate instead of the exact-drift rules above.

BenchReport micro_report() {
  BenchReport r;
  r.bench = "micro";
  r.grid = "grid5000_testbed";
  r.mode = "measured";
  r.seed = 1;
  r.jitter = 0.0;
  r.sizes = {1000, 100000};
  BenchSeries engine;
  engine.name = "engine_events";
  engine.throughput = {4.2e7, 3.9e7};
  BenchSeries sends;
  sends.name = "network_sends";
  sends.throughput = {9.5e7, 1.05e8};
  r.series = {engine, sends};
  return r;
}

TEST(BenchJsonMicro, RoundTripIsByteIdentical) {
  const BenchReport r = micro_report();
  const std::string once = bench_to_json(r);
  const std::string twice = bench_to_json(bench_from_json(once));
  EXPECT_EQ(once, twice);
  const BenchReport back = bench_from_json(once);
  EXPECT_EQ(back.bench, "micro");
  ASSERT_EQ(back.series.size(), 2u);
  EXPECT_EQ(back.series[0].throughput, r.series[0].throughput);
}

TEST(BenchJsonMicro, ThroughputMustCoverTheAxis) {
  // The writer's grammar contract refuses to serialise this shape on
  // DCHECK lanes, so tamper with valid bytes instead: drop the last cell
  // of the first series' throughput array and probe the parser wall.
  std::string json = bench_to_json(micro_report());
  const std::size_t open = json.find("\"throughput\": [");
  ASSERT_NE(open, std::string::npos);
  const std::size_t close = json.find(']', open);
  const std::size_t comma = json.rfind(',', close);
  ASSERT_NE(comma, std::string::npos);
  ASSERT_GT(comma, open);  // the comma between the two throughput cells
  json.erase(comma, close - comma);
  EXPECT_THROW((void)bench_from_json(json), InvalidInput);
}

TEST(BenchJsonMicro, ThroughputIsMicroOnly) {
  // A race report smuggling a throughput array is rejected.
  EXPECT_THROW(
      (void)bench_from_json(
          "{\"sizes\": [1], \"series\": [{\"name\": \"A\", "
          "\"makespan_s\": [0.5], \"throughput\": [1.0]}]}"),
      InvalidInput);
}

TEST(BenchJsonMicro, RefusesVerbAndShardAxes) {
  // Micro reports measure the simulator, not a collective: the sweep-only
  // axes cannot apply and the parser refuses them outright.
  EXPECT_THROW((void)bench_from_json(
                   "{\"bench\": \"micro\", \"verb\": \"scatter\", "
                   "\"sizes\": [1], \"series\": [{\"name\": \"A\", "
                   "\"throughput\": [1.0]}]}"),
               InvalidInput);
  EXPECT_THROW((void)bench_from_json(
                   "{\"bench\": \"micro\", \"shards\": 2, \"shard\": 0, "
                   "\"sizes\": [1], \"series\": [{\"name\": \"A\", "
                   "\"throughput\": [1.0]}]}"),
               InvalidInput);
}

TEST(BenchCompareMicro, IdenticalReportsPass) {
  const BenchReport r = micro_report();
  EXPECT_TRUE(compare_bench(r, r).empty());
}

TEST(BenchCompareMicro, LowerBoundGateIsOneSided) {
  const BenchReport base = micro_report();
  BenchReport cur = micro_report();
  BenchCompareOptions opts;
  opts.throughput_factor = 10.0;

  // Faster than the baseline: always fine (higher is better).
  cur.series[0].throughput[0] = base.series[0].throughput[0] * 100.0;
  EXPECT_TRUE(compare_bench(base, cur, opts).empty());

  // Slower but above the floor: fine (CI machines are noisy).
  cur = micro_report();
  cur.series[0].throughput[0] = base.series[0].throughput[0] / 9.0;
  EXPECT_TRUE(compare_bench(base, cur, opts).empty());

  // Below baseline / factor: regression.
  cur = micro_report();
  cur.series[0].throughput[0] = base.series[0].throughput[0] / 11.0;
  const auto problems = compare_bench(base, cur, opts);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("throughput regression"), std::string::npos);
}

TEST(BenchCompareMicro, NanCurrentThroughputFails) {
  const BenchReport base = micro_report();
  BenchReport cur = micro_report();
  cur.series[1].throughput[0] = kNaN;
  EXPECT_EQ(compare_bench(base, cur).size(), 1u);
}

TEST(BenchCompareMicro, MissingThroughputFails) {
  const BenchReport base = micro_report();
  BenchReport cur = micro_report();
  cur.series[1].throughput.clear();
  const auto problems = compare_bench(base, cur);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("missing throughput"), std::string::npos);
}

TEST(BenchCompareMicro, KindMismatchShortCircuits) {
  const BenchReport base = micro_report();
  const BenchReport cur = small_report();
  const auto problems = compare_bench(base, cur);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("bench kind mismatch"), std::string::npos);
}

// ---- The "serve" kind: serving-layer replay reports with a one-point
// request-count axis under the JSON key "requests".

BenchReport serve_report() {
  BenchReport r;
  r.bench = "serve";
  r.grid = "grid5000_testbed";
  r.mode = "predicted";
  r.sizes = {240};  // the axis is the replayed request count
  r.series.push_back(make_series("hit_rate", kNaN, {0.8125}));
  r.series.push_back(make_series("hits", kNaN, {195.0}));
  r.series.push_back(make_series("predicted_sum_s", kNaN, {46390.152}));
  BenchSeries rps;
  rps.name = "requests_per_s";
  rps.throughput = {69989.0};
  r.series.push_back(std::move(rps));
  BenchSeries p99 = make_series("latency_p99_s", 0.00184, {kNaN});
  r.series.push_back(std::move(p99));
  return r;
}

TEST(BenchJsonServe, RoundTripUsesTheRequestsKey) {
  const BenchReport r = serve_report();
  const std::string once = bench_to_json(r);
  EXPECT_NE(once.find("\"requests\": [240]"), std::string::npos) << once;
  EXPECT_EQ(once.find("\"sizes\""), std::string::npos) << once;
  EXPECT_EQ(bench_to_json(bench_from_json(once)), once);
  const BenchReport back = bench_from_json(once);
  EXPECT_EQ(back.bench, "serve");
  ASSERT_EQ(back.sizes.size(), 1u);
  EXPECT_EQ(back.sizes[0], 240u);
}

TEST(BenchJsonServe, AxisKeyMustMatchTheKind) {
  // A serve report under "sizes" — or a race report under "requests" —
  // is a kind/axis mismatch, same rule as montecarlo's "clusters".
  EXPECT_THROW((void)bench_from_json(
                   "{\"bench\": \"serve\", \"sizes\": [240], \"series\": "
                   "[{\"name\": \"hits\", \"makespan_s\": [195.0]}]}"),
               InvalidInput);
  EXPECT_THROW((void)bench_from_json(
                   "{\"requests\": [240], \"series\": "
                   "[{\"name\": \"hits\", \"makespan_s\": [195.0]}]}"),
               InvalidInput);
}

TEST(BenchJsonServe, RefusesVerbAndShardAxes) {
  // A replayed log mixes verbs and roots per request; neither a verb key
  // nor shard coordinates can describe a serve report.
  EXPECT_THROW((void)bench_from_json(
                   "{\"bench\": \"serve\", \"verb\": \"scatter\", "
                   "\"requests\": [240], \"series\": [{\"name\": \"hits\", "
                   "\"makespan_s\": [195.0]}]}"),
               InvalidInput);
  EXPECT_THROW((void)bench_from_json(
                   "{\"bench\": \"serve\", \"shards\": 2, \"shard\": 0, "
                   "\"requests\": [240], \"series\": [{\"name\": \"hits\", "
                   "\"makespan_s\": [195.0]}]}"),
               InvalidInput);
}

TEST(BenchJsonServe, SeriesNeedAValueChannelCoveringTheAxis) {
  // Either makespan_s (deterministic cells) or throughput (the timing
  // lane) must cover the one-point axis; a bare name is rejected.
  EXPECT_THROW((void)bench_from_json(
                   "{\"bench\": \"serve\", \"requests\": [240], "
                   "\"series\": [{\"name\": \"hits\"}]}"),
               InvalidInput);
  EXPECT_THROW((void)bench_from_json(
                   "{\"bench\": \"serve\", \"requests\": [240], \"series\": "
                   "[{\"name\": \"hits\", \"makespan_s\": [1.0, 2.0]}]}"),
               InvalidInput);
  // Monte-Carlo hit arrays have no meaning here either.
  EXPECT_THROW((void)bench_from_json(
                   "{\"bench\": \"serve\", \"requests\": [240], \"series\": "
                   "[{\"name\": \"hits\", \"makespan_s\": [195.0], "
                   "\"hits\": [1.0]}]}"),
               InvalidInput);
}

TEST(BenchCompareServe, IdenticalReportsPass) {
  const BenchReport r = serve_report();
  EXPECT_TRUE(compare_bench(r, r).empty());
}

TEST(BenchCompareServe, RequestCountMismatchIsRefused) {
  const BenchReport base = serve_report();
  BenchReport cur = serve_report();
  cur.sizes = {241};
  const auto problems = compare_bench(base, cur);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("request-count"), std::string::npos)
      << problems[0];
}

TEST(BenchCompareServe, GatesApplyPerChannel) {
  const BenchReport base = serve_report();

  // Deterministic cells gate exactly (hit-rate drift is a regression)...
  BenchReport cur = serve_report();
  cur.series[0].makespan_s[0] = 0.5;
  EXPECT_FALSE(compare_bench(base, cur).empty());

  // ...throughput gates as a lower bound (faster is fine, floor is not)...
  cur = serve_report();
  cur.series[3].throughput[0] = base.series[3].throughput[0] * 100.0;
  EXPECT_TRUE(compare_bench(base, cur).empty());
  cur.series[3].throughput[0] = base.series[3].throughput[0] / 11.0;
  EXPECT_FALSE(compare_bench(base, cur).empty());

  // ...and latency gates through wall_time_s as an upper bound: the NaN
  // value cell is skipped, the wall regression still fires.
  cur = serve_report();
  cur.series[4].wall_time_s = base.series[4].wall_time_s * 100.0;
  const auto problems = compare_bench(base, cur);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems[0].find("wall_time_s regression"), std::string::npos)
      << problems[0];
}

// ---- The checked-in reports: eight baselines in the source root, three
// golden fixtures in tests/data.

std::filesystem::path data_dir() { return GRIDCAST_TEST_DATA_DIR; }
std::filesystem::path source_root() { return data_dir() / ".." / ".."; }

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<std::filesystem::path> checked_in_reports() {
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(source_root())) {
    const std::string name = e.path().filename().string();
    if (name.starts_with("BENCH_baseline") && name.ends_with(".json"))
      files.push_back(e.path());
  }
  for (const auto& e : std::filesystem::directory_iterator(data_dir()))
    if (e.path().filename().string().ends_with("_golden.json"))
      files.push_back(e.path());
  std::sort(files.begin(), files.end());
  return files;
}

TEST(CheckedInReports, BytesRoundTripAndEveryGatedCellTrips) {
  const auto files = checked_in_reports();
  EXPECT_GE(files.size(), 11u);
  for (const auto& file : files) {
    SCOPED_TRACE(file.filename().string());
    const std::string text = slurp(file);
    const BenchReport r = bench_from_json(text);
    EXPECT_EQ(bench_to_json(r), text);
    EXPECT_TRUE(compare_bench(r, r).empty());

    // One non-null cell of each gated channel moved past its tolerance at
    // the default options is exactly one problem, naming its series.
    std::size_t probes = 0;
    const auto probe = [&](std::size_t s, const std::string& channel,
                           const std::function<void(BenchSeries&)>& move) {
      BenchReport moved = r;
      move(moved.series[s]);
      const auto problems = compare_bench(r, moved);
      ++probes;
      ASSERT_EQ(problems.size(), 1u) << r.series[s].name << " " << channel;
      EXPECT_NE(problems[0].find("'" + r.series[s].name + "'"),
                std::string::npos)
          << problems[0];
    };
    const auto cells = [&](std::size_t s, const std::string& channel,
                           std::vector<double> BenchSeries::*field,
                           double (*moved)(double)) {
      const std::vector<double>& row = r.series[s].*field;
      const auto cell = std::find_if(row.begin(), row.end(),
                                     [](double v) { return !std::isnan(v); });
      if (cell == row.end()) return;
      const auto i = static_cast<std::size_t>(cell - row.begin());
      probe(s, channel, [&](BenchSeries& m) { (m.*field)[i] = moved(*cell); });
    };
    for (std::size_t s = 0; s < r.series.size(); ++s) {
      if (!std::isnan(r.series[s].wall_time_s))
        probe(s, "wall_time_s",
              [](BenchSeries& m) { m.wall_time_s *= 11.0; });
      cells(s, "makespan_s", &BenchSeries::makespan_s,
            [](double b) { return b == 0.0 ? 1.0 : b * (1.0 + 1e-3); });
      cells(s, "hits", &BenchSeries::hits, [](double b) { return b + 1.0; });
      cells(s, "throughput", &BenchSeries::throughput,
            [](double b) { return b / 11.0; });
      cells(s, "micro_scheduling_cost_s",
            &BenchSeries::micro_scheduling_cost_s,
            [](double b) { return b * 11.0; });
    }
    EXPECT_GT(probes, 0u);
  }
}

/// `text` must be refused with one line naming `what`.
void expect_rejected(const std::string& text, const std::string& what) {
  try {
    (void)bench_from_json(text);
    ADD_FAILURE() << "accepted; expected a diagnostic naming " << what;
  } catch (const InvalidInput& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(what), std::string::npos) << msg;
    EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
  }
}

TEST(BenchJson, MisspeltSeriesKeyIsRejectedNotIgnored) {
  // An unknown series key used to be skipped, and the channel it meant
  // went ungated: a baseline whose FlatTree row read "hit" passed any
  // hit-count drift, one with "wall_time" any wall-time regression.
  std::string race = slurp(source_root() / "BENCH_baseline_race.json");
  const std::size_t hits =
      race.find("\"hits\": [", race.find("\"name\": \"FlatTree\""));
  ASSERT_NE(hits, std::string::npos);
  race.replace(hits, 6, "\"hit\"");
  expect_rejected(race, "series 'FlatTree' has unknown key 'hit'");

  std::string measured = slurp(source_root() / "BENCH_baseline_measured.json");
  const std::size_t wall = measured.find("\"wall_time_s\"");
  ASSERT_NE(wall, std::string::npos);
  measured.replace(wall, 13, "\"wall_time\"");
  expect_rejected(measured, "unknown key 'wall_time'");
}

TEST(BenchJson, DeepNestingIsRefusedNotACrash) {
  // The reader used to recurse once per bracket, so a deeply nested value
  // overflowed the stack.  It now reads each value by its field's type,
  // whose depth is fixed.
  const std::string brackets(1000000, '[');
  expect_rejected("{\"sizes\": " + brackets + "}",
                  "'sizes' has the wrong type");
  expect_rejected("{\"series\": " + brackets + "}", "has the wrong type");
}

TEST(BenchJson, ReaderAcceptsExactlyTheKeysTheWriterEmits) {
  // A predicted size sweep: the writer omits the default verb, the seed,
  // the jitter, the Monte-Carlo keys and the shard coordinates.
  const std::string text = bench_to_json(small_report());
  const std::size_t root = text.find("  \"root\"");
  for (const std::string extra :
       {"\"verb\": \"bcast\"", "\"seed\": 1", "\"jitter\": 0",
        "\"iterations\": 5", "\"block_iters\": 0", "\"shards\": 1",
        "\"threads\": 4"}) {
    std::string with = text;
    with.insert(root, "  " + extra + ",\n");
    expect_rejected(with, extra.substr(1, extra.find('"', 1) - 1));
  }
  // ...and every key it does emit is required.
  BenchReport measured = small_report();
  measured.mode = "measured";
  std::string without = bench_to_json(measured);
  const std::size_t seed = without.find("  \"seed\"");
  without.erase(seed, without.find('\n', seed) + 1 - seed);
  expect_rejected(without, "missing key 'seed'");
  // A repeated key is refused, in the header and in a series.
  std::string twice = text;
  twice.insert(root, "  \"grid\": \"other\",\n");
  expect_rejected(twice, "repeated key 'grid'");
  twice = text;
  twice.insert(twice.find("\"makespan_s\""), "\"makespan_s\": [1, 2], ");
  expect_rejected(twice, "repeated key 'makespan_s'");
}

TEST(BenchJson, ShardedMonteCarloReportsCarryBlockPartials) {
  // A sharded Monte-Carlo report in final form could not be merged: the
  // (point x block) partition is the only one it has.
  BenchReport r;
  r.bench = "montecarlo";
  r.iterations = 4;
  r.sizes = {3};
  r.shards = 2;
  BenchSeries s;
  s.name = "FlatTree";
  s.makespan_s = {1.5};
  r.series.push_back(s);
  EXPECT_EQ(bench_violation(r),
            "sharded montecarlo report without block partials");
  r.shards = 1;
  EXPECT_EQ(bench_violation(r), "");
}

}  // namespace
}  // namespace gridcast::io
