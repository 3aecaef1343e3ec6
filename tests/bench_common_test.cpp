// The bench binaries' shared CLI and harness: JSON text, gates and the
// --check fingerprint comparison.
#include "../bench/bench_common.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace multiedge::bench {
namespace {

Args parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return parse_args(static_cast<int>(argv.size()), argv.data(), "B.json");
}

stats::json::Value doc(std::string_view text) {
  stats::json::Value v;
  EXPECT_TRUE(stats::json::parse(text, v));
  return v;
}

// Fresh fingerprints for the workloads that "ran".
bool check(const stats::json::Value& baseline,
           const std::map<std::string, std::uint64_t>& fresh) {
  Report report;
  for (const auto& [name, fp] : fresh) {
    report.rows.push_back({name, {}, {}, fp});
  }
  return check_fingerprints(baseline, report);
}

// Rows "a" (x=2) and "b" (x=4), plus a summary "s" (x=8).
Report small_report() {
  Report r;
  r.rows.push_back({"a", Fields().add("x", 2), {}, 1});
  r.rows.push_back({"b", Fields().add("x", 4.0), {}, 2});
  r.summaries.push_back({"s", Fields().add("x", 8)});
  return r;
}

bool gate(const Gate& g, const Report& r = small_report(),
          const stats::json::Value* baseline = nullptr, bool quick = false) {
  return evaluate(g, r, baseline, quick);
}

TEST(BenchArgs, ParsesTheSharedFlags) {
  const Args a = parse({"bench", "--quick", "--repeat=4", "--json"});
  EXPECT_TRUE(a.quick);
  EXPECT_EQ(a.repeat, 4);
  EXPECT_EQ(a.json_path, "B.json");
  EXPECT_EQ(parse({"bench", "--json=out.json"}).json_path, "out.json");
  EXPECT_EQ(parse({"bench", "--check=base.json"}).check_path, "base.json");
}

TEST(BenchArgs, UnknownArgumentExitsWithUsage) {
  // A space instead of '=' must not silently skip the check.
  EXPECT_EXIT(parse({"bench", "--check", "base.json"}),
              ::testing::ExitedWithCode(2), "unrecognised argument '--check'");
}

TEST(BenchArgs, QuickWithCheckExitsWithUsage) {
  // A quick run's rows share names with the full run's but not its
  // parameters, so no baseline can check them.
  EXPECT_EXIT(parse({"bench", "--quick", "--check=base.json"}),
              ::testing::ExitedWithCode(2), "cannot be combined");
}

TEST(BenchFingerprints, MatchingSubsetPasses) {
  const auto base = doc(R"({"workloads": [
      {"name": "a", "counters_fnv1a": "0x1"},
      {"name": "b", "counters_fnv1a": "0x2"}]})");
  EXPECT_TRUE(check(base, {{"a", 1}, {"b", 2}}));
  EXPECT_TRUE(check(base, {{"a", 1}, {"b", 2}, {"new", 3}}));
  // A baseline workload that did not run fails: nothing vouches for it.
  EXPECT_FALSE(check(base, {{"a", 1}}));
  EXPECT_FALSE(check(base, {{"a", 1}, {"b", 3}}));
}

TEST(BenchFingerprints, FailsWhenNothingWasCompared) {
  EXPECT_FALSE(check(doc(R"({"benchmark": "x"})"), {{"a", 1}}));
  EXPECT_FALSE(check(
      doc(R"({"workloads": [{"name": "a", "counters_fnv1a": "0x1"}]})"),
      {{"other", 1}}));
}

TEST(BenchReport, WritesTheExactJsonText) {
  Report r;
  r.rows.push_back({"w1",
                    Fields().add("mode", "m").add("n", 3).add("ms", 1.5),
                    Fields().add("hidden", 7), 0xab});
  r.rows.push_back({"w2", Fields().add("n", std::uint64_t{4}), {}, 0x1});
  r.summaries.push_back(
      {"total", Fields().add("ms", 0.25).add("identical", true)});
  std::ostringstream os;
  write_json(os, "demo", /*quick=*/false, r);
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"benchmark\": \"demo\",\n"
            "  \"quick\": false,\n"
            "  \"workloads\": [\n"
            "    {\"name\": \"w1\", \"mode\": \"m\", \"n\": 3, \"ms\": 1.5, "
            "\"counters_fnv1a\": \"0xab\"},\n"
            "    {\"name\": \"w2\", \"n\": 4, \"counters_fnv1a\": \"0x1\"}\n"
            "  ],\n"
            "  \"total\": {\"ms\": 0.25, \"identical\": true}\n"
            "}\n");
}

TEST(BenchReport, PrintsOneTablePerRowNamePrefix) {
  // Rows without a '/' share one table; "f/..." rows get their own, in
  // order of first appearance, each over its own rows' fields.
  Report r;
  r.rows.push_back({"w1", Fields().add("x", 1), {}, 0x1});
  r.rows.push_back({"f/a", Fields().add("x", 2).add("y", "s"), {}, 0x3});
  r.rows.push_back({"w2", Fields().add("z", 3), {}, 0x2});
  r.rows.push_back({"f/b", Fields().add("y", "t"), {}, 0x4});
  r.summaries.push_back({"s", Fields().add("k", 1)});
  std::ostringstream os;
  print_table(os, r);
  EXPECT_EQ(os.str(),
            "workload  x  z  counters\n"
            "------------------------\n"
            "w1        1  -  0x1     \n"
            "w2        -  3  0x2     \n"
            "\n"
            "workload  x  y    counters\n"
            "--------------------------\n"
            "f/a       2  \"s\"  0x3     \n"
            "f/b       -  \"t\"  0x4     \n"
            "s: {\"k\": 1}\n");
}

TEST(BenchReport, FieldsFingerprintHashesEveryWrittenDigit) {
  // FNV-1a over "n=3\nms=1.5\n" from kFnvOffset.
  EXPECT_EQ(fields_fingerprint(Fields().add("n", 3).add("ms", 1.5)),
            0x8f04dc22c9b7cfdaull);
  EXPECT_EQ(fields_fingerprint(Fields().add("n", 3).add("ms", 1.6)),
            0x8f0efe22c9c05e25ull);
  // Order and keys count, not just values.
  EXPECT_NE(fields_fingerprint(Fields().add("ms", 1.5).add("n", 3)),
            fields_fingerprint(Fields().add("n", 3).add("ms", 1.5)));
  EXPECT_NE(fields_fingerprint(Fields().add("m", 3)),
            fields_fingerprint(Fields().add("n", 3)));
  EXPECT_EQ(fields_fingerprint(Fields()), kFnvOffset);
}

TEST(BenchGate, EveryComparisonAtAndJustBeyondItsBound) {
  // a.x / b.x = 0.5.
  auto ratio = [](Cmp cmp, double bound) {
    return gate({"t", "a", "b", "x", cmp, bound});
  };
  EXPECT_TRUE(ratio(Cmp::kGe, 0.5));
  EXPECT_FALSE(ratio(Cmp::kGe, 0.5001));
  EXPECT_TRUE(ratio(Cmp::kLe, 0.5));
  EXPECT_FALSE(ratio(Cmp::kLe, 0.4999));
  // The strict forms fail at the bound and pass just inside it.
  EXPECT_FALSE(ratio(Cmp::kGt, 0.5));
  EXPECT_TRUE(ratio(Cmp::kGt, 0.4999));
  EXPECT_FALSE(ratio(Cmp::kLt, 0.5));
  EXPECT_TRUE(ratio(Cmp::kLt, 0.5001));
  // Equality is exact.
  EXPECT_TRUE(ratio(Cmp::kEq, 0.5));
  EXPECT_FALSE(ratio(Cmp::kEq, 0.5001));
  EXPECT_FALSE(ratio(Cmp::kEq, 0.4999));
  // Without `b` the metric itself is gated; `a` may name a summary.
  EXPECT_TRUE(gate({"t", "s", "", "x", Cmp::kGe, 8}));
  EXPECT_FALSE(gate({"t", "s", "", "x", Cmp::kGt, 8}));
}

TEST(BenchGate, EmptyRowGatesEveryRowWithTheMetric) {
  Report r = small_report();
  r.rows.push_back({"no-x", Fields().add("y", 100), {}, 3});
  EXPECT_TRUE(gate({"t", "", "", "x", Cmp::kLe, 4}, r));
  EXPECT_FALSE(gate({"t", "", "", "x", Cmp::kLe, 3}, r));  // b fails
  EXPECT_FALSE(gate({"t", "", "", "x", Cmp::kGe, 3}, r));  // a fails
  // Gate-only values are gated like fields.
  r.rows[0].gate_only.add("errors", 1);
  EXPECT_FALSE(gate({"t", "", "", "errors", Cmp::kLe, 0}, r));
  // No row has the metric: fails in a full run, skipped under --quick.
  EXPECT_FALSE(gate({"t", "", "", "absent", Cmp::kLe, 0}, r));
  EXPECT_TRUE(gate({"t", "", "", "absent", Cmp::kLe, 0}, r, nullptr, true));
}

TEST(BenchGate, PrefixGatesEveryRowUnderIt) {
  Report r = small_report();
  r.rows.push_back({"p/a", Fields().add("x", 10), {}, 4});
  r.rows.push_back({"p/b", Fields().add("x", 20), {}, 5});
  r.rows.push_back({"p/c", Fields().add("y", 0), {}, 6});
  r.rows.push_back({"pq", Fields().add("x", 0), {}, 7});
  // Only p/a and p/b: "a", "b", "pq" are outside the prefix, p/c has no x.
  EXPECT_TRUE(gate({"t", "p/", "", "x", Cmp::kGe, 10}, r));
  EXPECT_FALSE(gate({"t", "p/", "", "x", Cmp::kGe, 11}, r));  // p/a fails
  EXPECT_FALSE(gate({"t", "p/", "", "x", Cmp::kLe, 19}, r));  // p/b fails
  // A prefix no row with the metric falls under fails, unless quick.
  EXPECT_FALSE(gate({"t", "q/", "", "x", Cmp::kGe, 0}, r));
  EXPECT_TRUE(gate({"t", "q/", "", "x", Cmp::kGe, 0}, r, nullptr, true));
}

TEST(BenchGate, BaselineFormNeedsABaseline) {
  const Gate g{"t", "b", kBaseline, "x", Cmp::kLe, 1.25};
  // No baseline loaded: skipped.
  EXPECT_TRUE(gate(g));
  // b.x = 4 against a baseline of 4 (ratio 1) and of 3 (ratio 1.33).
  const auto same = doc(R"({"workloads": [{"name": "b", "x": 4}]})");
  const auto lower = doc(R"({"workloads": [{"name": "b", "x": 3}]})");
  EXPECT_TRUE(gate(g, small_report(), &same));
  EXPECT_FALSE(gate(g, small_report(), &lower));
  // A summary's baseline value is its top-level object.
  const auto summary = doc(R"({"workloads": [], "s": {"x": 10}})");
  EXPECT_TRUE(gate({"t", "s", kBaseline, "x", Cmp::kGe, 0.8}, small_report(),
                   &summary));
  // A baseline without the value fails.
  EXPECT_FALSE(gate(g, small_report(), &summary));
}

TEST(BenchGate, MissingRowFailsUnlessQuick) {
  const Gate a_missing{"t", "gone", "", "x", Cmp::kGe, 0};
  const Gate b_missing{"t", "a", "gone", "x", Cmp::kGe, 0};
  const Gate metric_missing{"t", "a", "", "y", Cmp::kGe, 0};
  for (const Gate& g : {a_missing, b_missing, metric_missing}) {
    EXPECT_FALSE(gate(g));
    EXPECT_TRUE(gate(g, small_report(), nullptr, /*quick=*/true));
  }
}

}  // namespace
}  // namespace multiedge::bench
