// The bench binaries' shared CLI and --check fingerprint comparison.
#include "../bench/bench_common.hpp"

#include <gtest/gtest.h>

#include <map>
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
  return check_fingerprints(
      baseline,
      [&](const std::string& name) -> const std::uint64_t* {
        auto it = fresh.find(name);
        return it == fresh.end() ? nullptr : &it->second;
      },
      "test");
}

TEST(BenchArgs, ParsesTheSharedFlags) {
  const Args a = parse({"bench", "--quick", "--repeat=4", "--json",
                        "--check=base.json"});
  EXPECT_TRUE(a.quick);
  EXPECT_EQ(a.repeat, 4);
  EXPECT_EQ(a.json_path, "B.json");
  EXPECT_EQ(a.check_path, "base.json");
  EXPECT_EQ(parse({"bench", "--json=out.json"}).json_path, "out.json");
}

TEST(BenchArgs, UnknownArgumentExitsWithUsage) {
  // A space instead of '=' must not silently skip the check.
  EXPECT_EXIT(parse({"bench", "--check", "base.json"}),
              ::testing::ExitedWithCode(2), "unrecognised argument '--check'");
}

TEST(BenchFingerprints, MatchingSubsetPasses) {
  const auto base = doc(R"({"workloads": [
      {"name": "a", "counters_fnv1a": "0x1"},
      {"name": "b", "counters_fnv1a": "0x2"}]})");
  EXPECT_TRUE(check(base, {{"a", 1}, {"b", 2}}));
  EXPECT_TRUE(check(base, {{"a", 1}}));  // a --quick rerun of a subset
  EXPECT_FALSE(check(base, {{"a", 1}, {"b", 3}}));
}

TEST(BenchFingerprints, FailsWhenNothingWasCompared) {
  EXPECT_FALSE(check(doc(R"({"benchmark": "x"})"), {{"a", 1}}));
  EXPECT_FALSE(check(
      doc(R"({"workloads": [{"name": "a", "counters_fnv1a": "0x1"}]})"),
      {{"other", 1}}));
}

}  // namespace
}  // namespace multiedge::bench
