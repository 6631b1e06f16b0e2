// Parser diagnostics: malformed scenario specs must fail with
// line-numbered messages, never crash, and never half-parse.

#include <gtest/gtest.h>

#include <string>

#include "scenario/generator.hpp"
#include "scenario/spec.hpp"

namespace contory::scenario {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

std::string ParseError(const std::string& text) {
  auto spec = ParseScenario(text);
  EXPECT_FALSE(spec.ok()) << "spec unexpectedly parsed";
  if (spec.ok()) return "";
  return std::string(spec.status().message());
}

TEST(ScenarioParseTest, MinimalSpecParses) {
  auto spec = ParseScenario(
      "scenario smoke\n"
      "seed 7\n"
      "device phone-A bt=off cell=off sensors=temperature\n"
      "query q1 on phone-A : SELECT temperature FROM intSensor DURATION 10 "
      "sec\n"
      "run 20s\n"
      "expect q.q1.items >= 1\n");
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  EXPECT_EQ(spec->title, "smoke");
  EXPECT_EQ(spec->seed, 7u);
  EXPECT_EQ(spec->steps.size(), 4u);
}

TEST(ScenarioParseTest, QueryOnUnknownDeviceIsLineNumbered) {
  const std::string msg = ParseError(
      "scenario t\n"
      "device phone-A bt=off cell=off sensors=temperature\n"
      "query q1 on phone-B : SELECT temperature FROM intSensor DURATION 10 "
      "sec\n");
  EXPECT_TRUE(Contains(msg, "line 3")) << msg;
  EXPECT_TRUE(Contains(msg, "phone-B")) << msg;
}

TEST(ScenarioParseTest, FaultScheduledInThePastIsLineNumbered) {
  const std::string msg = ParseError(
      "scenario t\n"
      "device phone-A\n"
      "run 30s\n"
      "fault at=10s bt.fail phone-A for=5s\n");
  EXPECT_TRUE(Contains(msg, "line 4")) << msg;
  EXPECT_TRUE(Contains(msg, "past")) << msg;
}

TEST(ScenarioParseTest, FaultAtCurrentTimeIsAllowed) {
  auto spec = ParseScenario(
      "scenario t\n"
      "device phone-A\n"
      "run 30s\n"
      "fault at=30s bt.fail phone-A for=5s\n"
      "run 10s\n");
  EXPECT_TRUE(spec.ok()) << spec.status().message();
}

TEST(ScenarioParseTest, ExpectOnUndeclaredQueryIsLineNumbered) {
  const std::string msg = ParseError(
      "scenario t\n"
      "device phone-A bt=off cell=off sensors=temperature\n"
      "run 5s\n"
      "expect q.ghost.items >= 1\n");
  EXPECT_TRUE(Contains(msg, "line 4")) << msg;
  EXPECT_TRUE(Contains(msg, "ghost")) << msg;
}

TEST(ScenarioParseTest, ExpectOnUndeclaredDeviceIsLineNumbered) {
  const std::string msg = ParseError(
      "scenario t\n"
      "device phone-A\n"
      "expect d.phone-Z.active == 0\n");
  EXPECT_TRUE(Contains(msg, "line 3")) << msg;
  EXPECT_TRUE(Contains(msg, "phone-Z")) << msg;
}

TEST(ScenarioParseTest, UnknownSelectorPropertyIsLineNumbered) {
  const std::string msg = ParseError(
      "scenario t\n"
      "device phone-A bt=off cell=off sensors=temperature\n"
      "query q1 on phone-A : SELECT temperature FROM intSensor DURATION 10 "
      "sec\n"
      "expect q.q1.bogus >= 1\n");
  EXPECT_TRUE(Contains(msg, "line 4")) << msg;
  EXPECT_TRUE(Contains(msg, "bogus")) << msg;
}

TEST(ScenarioParseTest, MalformedQueryTextIsLineNumbered) {
  const std::string msg = ParseError(
      "scenario t\n"
      "device phone-A\n"
      "query q1 on phone-A : SELEKT nonsense\n");
  EXPECT_TRUE(Contains(msg, "line 3")) << msg;
}

TEST(ScenarioParseTest, DuplicateDeviceIsLineNumbered) {
  const std::string msg = ParseError(
      "scenario t\n"
      "device phone-A\n"
      "device phone-A\n");
  EXPECT_TRUE(Contains(msg, "line 3")) << msg;
  EXPECT_TRUE(Contains(msg, "duplicate")) << msg;
}

TEST(ScenarioParseTest, UnknownDirectiveIsLineNumbered) {
  const std::string msg = ParseError(
      "scenario t\n"
      "device phone-A\n"
      "teleport phone-A 3,4\n");
  EXPECT_TRUE(Contains(msg, "line 3")) << msg;
  EXPECT_TRUE(Contains(msg, "teleport")) << msg;
}

TEST(ScenarioParseTest, WifiRequiresCommunicatorProfile) {
  const std::string msg = ParseError(
      "scenario t\n"
      "device phone-A wifi=on\n");
  EXPECT_TRUE(Contains(msg, "line 2")) << msg;
  EXPECT_TRUE(Contains(msg, "9500")) << msg;
}

TEST(ScenarioParseTest, FaultTargetMustMatchKind) {
  // bt.fail against a device declared with bt=off.
  const std::string msg = ParseError(
      "scenario t\n"
      "device phone-A bt=off cell=off sensors=temperature\n"
      "fault at=5s bt.fail phone-A for=5s\n");
  EXPECT_TRUE(Contains(msg, "line 3")) << msg;
}

TEST(ScenarioParseTest, SensorFaultNeedsDeclaredSensor) {
  const std::string msg = ParseError(
      "scenario t\n"
      "device phone-A bt=off cell=off sensors=temperature\n"
      "fault at=5s sensor.fail humidity@phone-A for=5s\n");
  EXPECT_TRUE(Contains(msg, "line 3")) << msg;
  EXPECT_TRUE(Contains(msg, "humidity")) << msg;
}

TEST(ScenarioParseTest, TextPropertyNeedsOperator) {
  const std::string msg = ParseError(
      "scenario t\n"
      "device phone-A bt=off cell=off sensors=temperature\n"
      "query q1 on phone-A : SELECT temperature FROM intSensor DURATION 10 "
      "sec\n"
      "expect q.q1.last_source\n");
  EXPECT_TRUE(Contains(msg, "line 4")) << msg;
}

constexpr const char* kOneQuery =
    "scenario t\n"
    "device phone-A bt=off cell=off sensors=temperature\n"
    "query q1 on phone-A : SELECT temperature FROM intSensor DURATION 10 "
    "sec\n";

TEST(ScenarioParseTest, LastStaleSelectorIsNumeric) {
  auto spec = ParseScenario(std::string(kOneQuery) +
                            "expect q.q1.last_stale == 0\n");
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  const ExpectSpec& e = spec->steps.back().expect;
  EXPECT_EQ(e.property, "last_stale");
  EXPECT_FALSE(e.is_text);
  EXPECT_EQ(e.number, 0.0);
}

TEST(ScenarioParseTest, StatusSelectorComparesCodeName) {
  auto spec = ParseScenario(std::string(kOneQuery) +
                            "expect q.q1.status == OVERLOADED\n");
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  const ExpectSpec& e = spec->steps.back().expect;
  EXPECT_TRUE(e.is_text);
  EXPECT_EQ(e.text, "OVERLOADED");
  const std::string msg =
      ParseError(std::string(kOneQuery) + "expect q.q1.status\n");
  EXPECT_TRUE(Contains(msg, "line 4")) << msg;
}

TEST(ScenarioParseTest, LastSwitchSelectorIsTextual) {
  auto spec = ParseScenario(
      "scenario t\n"
      "device phone-A\n"
      "expect d.phone-A.last_switch == intSensor>adHocNetwork\n");
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  const ExpectSpec& e = spec->steps.back().expect;
  EXPECT_EQ(e.domain, ExpectSpec::Domain::kDevice);
  EXPECT_TRUE(e.is_text);
  EXPECT_EQ(e.text, "intSensor>adHocNetwork");
  const std::string msg = ParseError(
      "scenario t\n"
      "device phone-A\n"
      "expect d.phone-A.last_switch >= 1\n");
  EXPECT_TRUE(Contains(msg, "line 3")) << msg;
}

TEST(ScenarioParseTest, ServerDroppedSelectorTakesDottedAddress) {
  auto spec = ParseScenario(
      "scenario t\n"
      "server infra.dynamos.fi\n"
      "expect srv.infra.dynamos.fi.dropped >= 1\n");
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  const ExpectSpec& e = spec->steps.back().expect;
  EXPECT_EQ(e.domain, ExpectSpec::Domain::kServer);
  EXPECT_EQ(e.entity, "infra.dynamos.fi");
  const std::string msg = ParseError(
      "scenario t\n"
      "server infra.dynamos.fi\n"
      "expect srv.ghost.fi.dropped >= 1\n");
  EXPECT_TRUE(Contains(msg, "line 3")) << msg;
  EXPECT_TRUE(Contains(msg, "ghost.fi")) << msg;
}

TEST(ScenarioParseTest, CancelOfUndeclaredQueryIsLineNumbered) {
  const std::string msg = ParseError(
      "scenario t\n"
      "device phone-A\n"
      "cancel nope\n");
  EXPECT_TRUE(Contains(msg, "line 3")) << msg;
  EXPECT_TRUE(Contains(msg, "nope")) << msg;
}

TEST(ScenarioParseTest, CommentsAndBlankLinesAreIgnored) {
  auto spec = ParseScenario(
      "# leading comment\n"
      "scenario t\n"
      "\n"
      "device phone-A  # trailing comment\n"
      "run 5s\n");
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  EXPECT_EQ(spec->steps.size(), 2u);
}

TEST(ScenarioParseTest, EveryGeneratedCaseParses) {
  const auto names = GeneratedCaseNames();
  // strategy(3) x fault(3) x priority(3) x nodes(2).
  EXPECT_EQ(names.size(), 54u);
  for (const std::string& name : names) {
    EXPECT_TRUE(IsGeneratedCase(name)) << name;
    auto text = GeneratedSpecText(name, {});
    ASSERT_TRUE(text.ok()) << name << ": " << text.status().message();
    auto spec = ParseScenario(*text);
    EXPECT_TRUE(spec.ok()) << name << ": " << spec.status().message();
  }
}

TEST(ScenarioParseTest, GeneratedCasesParseUnderStressScale) {
  GeneratorOptions options;
  options.node_scale = 3;
  for (const std::string& name : GeneratedCaseNames()) {
    auto text = GeneratedSpecText(name, options);
    ASSERT_TRUE(text.ok()) << name << ": " << text.status().message();
    auto spec = ParseScenario(*text);
    EXPECT_TRUE(spec.ok()) << name << ": " << spec.status().message();
  }
}

TEST(ScenarioParseTest, UnknownGeneratedCaseIsRejected) {
  EXPECT_FALSE(IsGeneratedCase("gen_bogus_case"));
  EXPECT_FALSE(GeneratedSpecText("gen_bogus_case", {}).ok());
}

}  // namespace
}  // namespace contory::scenario
