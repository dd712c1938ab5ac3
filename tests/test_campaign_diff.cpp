#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "harness/campaign.hpp"
#include "harness/campaign_diff.hpp"
#include "harness/sink.hpp"
#include "sys/json.hpp"
#include "sys/rng.hpp"
#include "test_util.hpp"

namespace dnnd::harness {
namespace {

namespace fs = std::filesystem;

ScenarioResult make_result(const std::string& id, double clean, double post,
                           const std::string& flips) {
  ScenarioResult r;
  r.id = id;
  r.label = id;
  r.model = "mlp";
  r.defense = "none";
  r.attack = "bfa";
  r.ok = true;
  r.clean_accuracy = clean;
  r.post_accuracy = post;
  r.flips = flips;
  return r;
}

CampaignResult make_campaign() {
  CampaignResult c;
  c.results.push_back(make_result("a/one", 0.95, 0.30, ">12"));
  c.results.push_back(make_result("a/two", 0.95, 0.80, "8 (3 landed)"));
  return c;
}

TEST(LeadingFlipCount, ParsesPaperStyleStrings) {
  EXPECT_EQ(leading_flip_count(">80"), 80);
  EXPECT_EQ(leading_flip_count("30 (0 landed)"), 30);
  EXPECT_EQ(leading_flip_count("12"), 12);
  EXPECT_EQ(leading_flip_count(""), -1);
  EXPECT_EQ(leading_flip_count("ERROR: boom"), -1);
}

TEST(LeadingFlipCount, RejectsMalformedCountsInsteadOfPartialParsing) {
  // The old strtoll call had no end pointer or overflow check: "12x" parsed
  // as 12 and a wrapped 20-digit count as some small number, both sailing
  // through the gate. Malformed must mean -1, never a plausible value.
  EXPECT_EQ(leading_flip_count("12x"), -1);             // trailing garbage
  EXPECT_EQ(leading_flip_count("12(3 landed)"), -1);    // annotation without space
  EXPECT_EQ(leading_flip_count("99999999999999999999999999"), -1);  // i64 overflow
  EXPECT_EQ(leading_flip_count(">"), -1);
  EXPECT_EQ(leading_flip_count("12 (3 landed)"), 12);   // canonical annotation still fine
}

TEST(CampaignDiff, UnparseableFlipsOnASuccessfulScenarioFailsLoudly) {
  // Even byte-identical sides must not pass the gate when the flips field of
  // an ok scenario is corrupted -- this is the dnnd_diff exit-1 condition on
  // a malformed baseline (the CLI maps report.ok() == false to exit 1).
  auto base = make_campaign();
  base.results[0].flips = "corrupted-by-hand-edit";
  const auto report = diff_campaigns(base, base);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("unparseable"), std::string::npos);

  // A failed scenario legitimately carries an empty flips field; that must
  // NOT trip the validation (the committed baseline may contain such rows).
  auto failed = make_campaign();
  failed.results[0].ok = false;
  failed.results[0].error = "boom";
  failed.results[0].flips = "";
  EXPECT_TRUE(diff_campaigns(failed, failed).ok());
}

TEST(CampaignDiff, IdenticalCampaignsPass) {
  const auto base = make_campaign();
  const auto report = diff_campaigns(base, base);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.compared, 2u);
  EXPECT_TRUE(report.deltas.empty());
  EXPECT_NE(report.to_string().find("identical"), std::string::npos);
}

TEST(CampaignDiff, AccuracyDeltaBeyondToleranceIsARegression) {
  const auto base = make_campaign();
  auto cur = base;
  cur.results[1].post_accuracy -= 0.05;

  const auto strict = diff_campaigns(base, cur);
  EXPECT_FALSE(strict.ok());
  ASSERT_EQ(strict.deltas.size(), 1u);
  EXPECT_EQ(strict.deltas[0].id, "a/two");
  EXPECT_NEAR(strict.deltas[0].post_delta, -0.05, 1e-12);
  EXPECT_NE(strict.to_string().find("REGRESSION a/two"), std::string::npos);

  // The same delta inside the tolerance is reported but does not fail.
  const auto tolerant = diff_campaigns(base, cur, DiffConfig{.acc_tol = 0.10});
  EXPECT_TRUE(tolerant.ok());
  ASSERT_EQ(tolerant.deltas.size(), 1u);
  EXPECT_FALSE(tolerant.deltas[0].regression);
}

TEST(CampaignDiff, TargetedMetricsGateLikeAccuracies) {
  // attack_success_rate / post_attack_other_acc are eval-batch fractions, so
  // they gate at acc_tol.
  auto base = make_campaign();
  base.results[0].attack = "tbfa-1-to-1";
  base.results[0].attack_success_rate = 0.8;
  base.results[0].post_attack_other_acc = 0.9;
  auto cur = base;
  cur.results[0].attack_success_rate = 0.6;

  const auto strict = diff_campaigns(base, cur);
  EXPECT_FALSE(strict.ok());
  EXPECT_NE(strict.to_string().find("attack_success_rate"), std::string::npos);
  EXPECT_TRUE(diff_campaigns(base, cur, DiffConfig{.acc_tol = 0.25}).ok());

  auto stealth = base;
  stealth.results[0].post_attack_other_acc = 0.4;
  EXPECT_FALSE(diff_campaigns(base, stealth).ok());
  EXPECT_NE(diff_campaigns(base, stealth).to_string().find("post_attack_other_acc"),
            std::string::npos);
}

TEST(CampaignDiff, FlipCountDeltaHonorsTolerance) {
  const auto base = make_campaign();
  auto cur = base;
  cur.results[0].flips = ">15";

  EXPECT_FALSE(diff_campaigns(base, cur).ok());
  const auto tolerant = diff_campaigns(base, cur, DiffConfig{.flip_tol = 5});
  EXPECT_TRUE(tolerant.ok());
  ASSERT_EQ(tolerant.deltas.size(), 1u);
  EXPECT_EQ(tolerant.deltas[0].flip_delta, 3);

  // The attack counters gate on the same tolerance.
  auto drift = base;
  drift.results[1].attempts = 42;
  EXPECT_FALSE(diff_campaigns(base, drift).ok());
  EXPECT_TRUE(diff_campaigns(base, drift, DiffConfig{.flip_tol = 42}).ok());
}

TEST(CampaignDiff, FlipsSpellingChangeIsARegressionAtZeroTolerance) {
  // ">8" (stop accuracy never reached) and "8" (reached on the last flip) are
  // different outcomes with the same leading count. The zero-tolerance gate
  // must catch the spelling change -- the traced-BFA branch used to drop the
  // ">" marker, which an equal-count comparison waved through.
  const auto base = make_campaign();
  auto cur = base;
  cur.results[0].flips = "12";  // base says ">12"

  const auto strict = diff_campaigns(base, cur);
  EXPECT_FALSE(strict.ok());
  EXPECT_NE(strict.to_string().find("flips \">12\" -> \"12\""), std::string::npos);

  // With a nonzero flip tolerance only the leading counts are compared, so
  // the spelling difference is reported but allowed (delta 0 <= 1).
  const auto tolerant = diff_campaigns(base, cur, DiffConfig{.flip_tol = 1});
  EXPECT_TRUE(tolerant.ok());
  ASSERT_EQ(tolerant.deltas.size(), 1u);
  EXPECT_EQ(tolerant.deltas[0].flip_delta, 0);
}

TEST(CampaignDiff, OkFlagFlipAndTraceDivergenceAreRegressions) {
  const auto base = make_campaign();
  auto cur = base;
  cur.results[0].ok = false;
  cur.results[0].error = "boom";
  EXPECT_FALSE(diff_campaigns(base, cur).ok());

  auto traced_base = make_campaign();
  traced_base.results[0].trace = {0.9, 0.5, 0.2};
  auto traced_cur = traced_base;
  traced_cur.results[0].trace[2] = 0.4;
  EXPECT_FALSE(diff_campaigns(traced_base, traced_cur).ok());
  EXPECT_TRUE(diff_campaigns(traced_base, traced_cur, DiffConfig{.acc_tol = 0.25}).ok());
  traced_cur.results[0].trace.push_back(0.1);
  // A length mismatch is structural: no accuracy tolerance excuses it.
  EXPECT_FALSE(diff_campaigns(traced_base, traced_cur, DiffConfig{.acc_tol = 0.25}).ok());
}

TEST(CampaignDiff, MissingScenariosRespectIgnoreMissing) {
  const auto base = make_campaign();
  auto cur = base;
  cur.results.pop_back();
  cur.results.push_back(make_result("a/new", 0.9, 0.9, "0"));

  const auto strict = diff_campaigns(base, cur);
  EXPECT_FALSE(strict.ok());
  EXPECT_EQ(strict.regressions, 2u);  // one vanished, one appeared

  const auto loose = diff_campaigns(base, cur, DiffConfig{.ignore_missing = true});
  EXPECT_TRUE(loose.ok());
  EXPECT_EQ(loose.deltas.size(), 2u);  // still reported
}

TEST(CampaignDiff, RoundTripThroughJsonDiffsClean) {
  auto base = make_campaign();
  base.results[0].trace = {0.9, 0.5};
  const std::string json = base.to_json();
  const auto reloaded = campaign_from_json(json);
  EXPECT_EQ(reloaded.to_json(), json);
  EXPECT_TRUE(diff_campaigns(base, reloaded).ok());
}

TEST(CampaignFromJson, TimedRoundTripPreservesTimingFields) {
  auto base = make_campaign();
  base.threads_used = 4;
  base.total_seconds = 1.5;
  base.results[0].wall_seconds = 0.75;
  const std::string json = base.to_json(/*include_timing=*/true);
  const auto reloaded = campaign_from_json(json);
  EXPECT_EQ(reloaded.to_json(true), json);
  EXPECT_EQ(reloaded.threads_used, 4u);
  EXPECT_DOUBLE_EQ(reloaded.total_seconds, 1.5);
  EXPECT_DOUBLE_EQ(reloaded.results[0].wall_seconds, 0.75);
}

TEST(CampaignFromJson, StrictLoaderRejectsTruncatedOrMissingFieldDocuments) {
  // Loader regression: missing required fields used to default silently, so
  // a truncated baseline loaded as a plausible zero-flip campaign and the
  // regression gate compared against garbage.
  EXPECT_THROW(campaign_from_json("{}"), sys::JsonParseError);
  EXPECT_THROW(campaign_from_json(R"({"scenarios":[{"id":"x"}]})"), sys::JsonParseError);
  // A scenario stripped of its flips field (the diff gate's key signal).
  EXPECT_THROW(
      campaign_from_json(
          R"({"scenarios":[{"id":"x","label":"x","model":"m","defense":"d","attack":"a",)"
          R"("ok":true,"clean_accuracy":0.9,"post_accuracy":0.5,"attack_success_rate":0,)"
          R"("post_attack_other_acc":0,"attempts":0,"landed":0,)"
          R"("blocked":0,"secured_bits":0,"secured_rows":0,"total_bits":8,"trace":[]}]})"),
      sys::JsonParseError);
  // A pre-T-BFA document (no attack_success_rate) must not load with a
  // defaulted metric: regenerate the baseline instead of diffing against 0.
  EXPECT_THROW(
      campaign_from_json(
          R"({"scenarios":[{"id":"x","label":"x","model":"m","defense":"d","attack":"a",)"
          R"("ok":true,"clean_accuracy":0.9,"post_accuracy":0.5,"flips":"3","attempts":0,)"
          R"("landed":0,"blocked":0,"secured_bits":0,"secured_rows":0,"total_bits":8,)"
          R"("trace":[]}]})"),
      sys::JsonParseError);
  // A failed scenario must carry its error string.
  EXPECT_THROW(
      campaign_from_json(
          R"({"scenarios":[{"id":"x","label":"x","model":"m","defense":"d","attack":"a",)"
          R"("ok":false,"clean_accuracy":0.9,"post_accuracy":0.5,"attack_success_rate":0,)"
          R"("post_attack_other_acc":0,"flips":"","attempts":0,)"
          R"("landed":0,"blocked":0,"secured_bits":0,"secured_rows":0,"total_bits":8,)"
          R"("trace":[]}]})"),
      sys::JsonParseError);
  // Outright truncation is a parse error, not a partial load.
  const std::string full = make_campaign().to_json();
  EXPECT_THROW(campaign_from_json(full.substr(0, full.size() / 2)), sys::JsonParseError);
}

TEST(CampaignFromJson, UnknownTopLevelKeysAreRejected) {
  // A key to_json never writes -- a regime marker from an older writer, a
  // typo -- fails loudly instead of loading as a plain campaign.
  for (const char* doc : {R"({"int8":true,"scenarios":[]})", R"({"extra":1,"scenarios":[]})"}) {
    EXPECT_THROW(campaign_from_json(doc), sys::JsonParseError) << doc;
  }
  try {
    (void)campaign_from_json(R"({"extra":1,"scenarios":[]})");
  } catch (const sys::JsonParseError& e) {
    EXPECT_NE(std::string(e.what()).find("\"extra\""), std::string::npos) << e.what();
  }
  EXPECT_NO_THROW((void)campaign_from_json(R"({"scenarios":[]})"));
}

TEST(CampaignFromJson, SeededMutantsOfTheGoldenThrowOrRoundTrip) {
  // Loader robustness over the committed golden: every truncated,
  // byte-flipped or spliced mutant either fails with JsonParseError or loads
  // to a campaign whose to_json() reloads to the same bytes. Any other
  // exception is a loader bug; the sanitizer builds run this too.
  std::ifstream in(std::string(DNND_SOURCE_DIR) + "/tests/data/tiny_grid_baseline.json",
                   std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string golden = ss.str();
  ASSERT_FALSE(golden.empty());

  sys::Rng rng(20240601);
  usize thrown = 0, loaded = 0;
  for (usize i = 0; i < 2000; ++i) {
    const std::string m = testutil::seeded_mutant(golden, i, rng);
    try {
      const std::string once = campaign_from_json(m).to_json();
      EXPECT_EQ(campaign_from_json(once).to_json(), once) << "mutant " << i;
      ++loaded;
    } catch (const sys::JsonParseError&) {
      ++thrown;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw a non-parse error: " << e.what();
    }
  }
  EXPECT_GT(thrown, 0u);
  EXPECT_GT(loaded, 0u);
}

TEST(CampaignFromJson, TimingFieldsAreRequiredAsAUnit) {
  auto base = make_campaign();
  const std::string timed = base.to_json(/*include_timing=*/true);

  // Strip just "total_seconds": half-present timing must throw, not default.
  sys::JsonValue doc = sys::parse_json(timed);
  sys::JsonValue half = sys::JsonValue::object();
  for (const auto& [key, value] : doc.members()) {
    if (key != "total_seconds") half.set(key, value);
  }
  EXPECT_THROW(campaign_from_json(half.dump()), sys::JsonParseError);

  // Strip a scenario's wall_seconds from a timed document: same rule.
  sys::JsonValue no_wall = sys::JsonValue::object();
  for (const auto& [key, value] : doc.members()) {
    if (key != "scenarios") {
      no_wall.set(key, value);
      continue;
    }
    sys::JsonValue scenarios = sys::JsonValue::array();
    for (const auto& s : value.items()) {
      sys::JsonValue copy = sys::JsonValue::object();
      for (const auto& [sk, sv] : s.members()) {
        if (sk != "wall_seconds") copy.set(sk, sv);
      }
      scenarios.push_back(std::move(copy));
    }
    no_wall.set(key, std::move(scenarios));
  }
  EXPECT_THROW(campaign_from_json(no_wall.dump()), sys::JsonParseError);
}

// ---- sinks ------------------------------------------------------------------

class TempDir {
 public:
  TempDir() : path_(fs::temp_directory_path() / "dnnd_sink_test") {
    fs::remove_all(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(CampaignSink, FileSinkWritesReloadableJson) {
  TempDir tmp;
  const auto campaign = make_campaign();
  FileSink sink((tmp.path() / "deep/nested/run.json").string());
  sink.write(campaign);
  const std::string content = slurp(tmp.path() / "deep/nested/run.json");
  EXPECT_EQ(content, campaign.to_json() + "\n");
  EXPECT_EQ(campaign_from_json(content).to_json(), campaign.to_json());
}

TEST(CampaignSink, RunDirectorySinkNumbersRuns) {
  TempDir tmp;
  const auto campaign = make_campaign();
  RunDirectorySink sink(tmp.path().string());
  sink.write(campaign);
  sink.write(campaign);
  EXPECT_TRUE(fs::exists(tmp.path() / "campaign-0001.json"));
  EXPECT_TRUE(fs::exists(tmp.path() / "campaign-0002.json"));
  EXPECT_EQ(sink.next_path(), (tmp.path() / "campaign-0003.json").string());
  EXPECT_EQ(slurp(tmp.path() / "campaign-0001.json"), slurp(tmp.path() / "campaign-0002.json"));
}

TEST(CampaignSink, ConcurrentWritersClaimDistinctSlots) {
  // The old next_path() checked existence and then wrote: two writers could
  // both see slot N free and clobber each other. write() now claims slots
  // with O_CREAT|O_EXCL, so every write under contention lands in its own
  // complete file.
  TempDir tmp;
  const auto campaign = make_campaign();
  const std::string expected = campaign.to_json() + "\n";
  constexpr usize kWritesPerThread = 50;

  auto hammer = [&] {
    RunDirectorySink sink(tmp.path().string());
    for (usize i = 0; i < kWritesPerThread; ++i) sink.write(campaign);
  };
  std::thread a(hammer);
  std::thread b(hammer);
  a.join();
  b.join();

  usize files = 0;
  for (const auto& entry : fs::directory_iterator(tmp.path())) {
    ++files;
    EXPECT_EQ(slurp(entry.path()), expected) << entry.path() << " is torn or partial";
  }
  EXPECT_EQ(files, 2 * kWritesPerThread) << "every write must claim its own slot";
  // Slots are contiguous: the race loser probes forward, never skips.
  EXPECT_TRUE(fs::exists(tmp.path() / "campaign-0001.json"));
  EXPECT_TRUE(fs::exists(tmp.path() / "campaign-0100.json"));
  EXPECT_FALSE(fs::exists(tmp.path() / "campaign-0101.json"));
}

TEST(CampaignSink, EnvProtocolSelectsSink) {
  TempDir tmp;
  // DNND_JSON_OUT to a fresh file path -> FileSink.
  const std::string file = (tmp.path() / "out.json").string();
  ASSERT_EQ(setenv("DNND_JSON_OUT", file.c_str(), 1), 0);
  auto sink = sink_from_env();
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->describe(), file);

  // A trailing slash (or existing directory) -> RunDirectorySink.
  const std::string dir = tmp.path().string() + "/runs/";
  ASSERT_EQ(setenv("DNND_JSON_OUT", dir.c_str(), 1), 0);
  sink = sink_from_env();
  ASSERT_NE(sink, nullptr);
  EXPECT_NE(sink->describe().find("campaign-*.json"), std::string::npos);

  // An existing directory named WITHOUT the trailing slash still selects the
  // RunDirectorySink (the directory on disk disambiguates).
  fs::create_directories(tmp.path() / "existing-dir");
  ASSERT_EQ(setenv("DNND_JSON_OUT", (tmp.path() / "existing-dir").c_str(), 1), 0);
  sink = sink_from_env();
  ASSERT_NE(sink, nullptr);
  EXPECT_NE(sink->describe().find("campaign-*.json"), std::string::npos);

  // An existing plain file -> FileSink even without a .json suffix.
  const std::string plain = (tmp.path() / "results.txt").string();
  { std::ofstream(plain) << "old\n"; }
  ASSERT_EQ(setenv("DNND_JSON_OUT", plain.c_str(), 1), 0);
  sink = sink_from_env();
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->describe(), plain);

  // Without DNND_JSON_OUT, DNND_JSON=1 selects stdout; nothing set -> null.
  ASSERT_EQ(unsetenv("DNND_JSON_OUT"), 0);
  ASSERT_EQ(setenv("DNND_JSON", "1", 1), 0);
  sink = sink_from_env();
  ASSERT_NE(sink, nullptr);
  EXPECT_EQ(sink->describe(), "stdout");
  ASSERT_EQ(unsetenv("DNND_JSON"), 0);
  EXPECT_EQ(sink_from_env(), nullptr);
}

TEST(CampaignSink, EnvProtocolRejectsAmbiguousPathLoudly) {
  // A not-yet-existing path with neither a trailing '/' nor a .json suffix is
  // usually a run directory missing its slash. Guessing "file" here silently
  // collapsed every run of a sharded campaign into one clobbered file; the
  // protocol now refuses and says how to disambiguate.
  TempDir tmp;
  const std::string ambiguous = (tmp.path() / "nightly-runs").string();
  ASSERT_EQ(setenv("DNND_JSON_OUT", ambiguous.c_str(), 1), 0);
  try {
    sink_from_env();
    FAIL() << "ambiguous DNND_JSON_OUT must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ambiguous"), std::string::npos) << what;
    EXPECT_NE(what.find(ambiguous), std::string::npos) << what;
  }
  EXPECT_FALSE(fs::exists(ambiguous)) << "rejection must not create the path";

  // Bench drivers route the same failure to a nonzero exit, not a throw.
  EXPECT_EQ(write_campaign_from_env(make_campaign()), SinkWriteStatus::kFailed);
  ASSERT_EQ(unsetenv("DNND_JSON_OUT"), 0);
}

}  // namespace
}  // namespace dnnd::harness
