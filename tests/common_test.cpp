// Unit tests for the common substrate: time, rng, status, bytes, stats, id,
// slot table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/id.hpp"
#include "common/rng.hpp"
#include "common/slot_table.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/time.hpp"

namespace contory {
namespace {

using namespace std::chrono_literals;

TEST(TimeTest, ConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(ToSeconds(SimDuration{1'500'000}), 1.5);
  EXPECT_DOUBLE_EQ(ToMillis(SimDuration{1'500}), 1.5);
  EXPECT_EQ(FromSeconds(2.5), SimDuration{2'500'000});
  EXPECT_EQ(FromMillis(0.078), SimDuration{78});
}

TEST(TimeTest, EpochIsZero) {
  EXPECT_DOUBLE_EQ(ToSeconds(kSimEpoch), 0.0);
}

TEST(TimeTest, FormatDurationPicksUnit) {
  EXPECT_EQ(FormatDuration(SimDuration{500}), "500us");
  EXPECT_EQ(FormatDuration(SimDuration{1'500}), "1.500ms");
  EXPECT_EQ(FormatDuration(SimDuration{2'000'000}), "2.000s");
}

TEST(TimeTest, FormatTime) {
  EXPECT_EQ(FormatTime(kSimEpoch + 155s), "t=155.000s");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a{42}, b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng{7};
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng{7};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1'000; ++i) {
    const auto x = rng.UniformInt(2, 5);
    EXPECT_GE(x, 2);
    EXPECT_LE(x, 5);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 4u);  // all values reachable
}

TEST(RngTest, NormalHasRoughlyRightMoments) {
  Rng rng{11};
  RunningStats s;
  for (int i = 0; i < 50'000; ++i) s.Add(rng.Normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(RngTest, LogNormalIsPositiveAndHeavyTailed) {
  Rng rng{17};
  RunningStats s;
  for (int i = 0; i < 20'000; ++i) {
    const double x = rng.LogNormal(6.95, 0.35);
    EXPECT_GT(x, 0.0);
    s.Add(x);
  }
  // Median exp(6.95) ~ 1043; mean is above the median for lognormal.
  EXPECT_GT(s.mean(), 1043.0);
  EXPECT_GT(s.max(), 2000.0);  // tail reaches the paper's 2766 ms range
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng{19};
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  int hits = 0;
  for (int i = 0; i < 10'000; ++i) hits += rng.Bernoulli(0.25);
  EXPECT_NEAR(hits / 10'000.0, 0.25, 0.02);
}

TEST(RngTest, JitterStaysWithinSpread) {
  Rng rng{23};
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.Jitter(100.0, 0.05);
    EXPECT_GE(x, 95.0);
    EXPECT_LE(x, 105.0);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent{31};
  Rng child = parent.Fork();
  // The child must not replay the parent's stream.
  Rng parent2{31};
  (void)parent2.Next();  // same draws as parent did
  EXPECT_NE(child.Next(), parent2.Next());
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FailureCarriesCodeAndMessage) {
  const Status s = Unavailable("bluetooth radio is off");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(s.ToString(), "UNAVAILABLE: bluetooth radio is off");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (const auto code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kUnavailable, StatusCode::kDeadlineExceeded,
        StatusCode::kPermissionDenied, StatusCode::kResourceExhausted,
        StatusCode::kFailedPrecondition, StatusCode::kAlreadyExists,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r{42};
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r{NotFound("nope")};
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
  EXPECT_THROW((void)r.value(), BadResultAccess);
}

TEST(BytesTest, PrimitivesRoundTrip) {
  ByteWriter w;
  w.WriteU8(0xab);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0123456789abcdefULL);
  w.WriteI64(-42);
  w.WriteF64(3.14159);
  w.WriteBool(true);
  w.WriteString("contory");

  ByteReader r{w.bytes()};
  EXPECT_EQ(r.ReadU8().value(), 0xab);
  EXPECT_EQ(r.ReadU32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.ReadI64().value(), -42);
  EXPECT_DOUBLE_EQ(r.ReadF64().value(), 3.14159);
  EXPECT_TRUE(r.ReadBool().value());
  EXPECT_EQ(r.ReadString().value(), "contory");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, BigEndianOnTheWire) {
  ByteWriter w;
  w.WriteU32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.bytes()[0], std::byte{0x01});
  EXPECT_EQ(w.bytes()[1], std::byte{0x02});
  EXPECT_EQ(w.bytes()[2], std::byte{0x03});
  EXPECT_EQ(w.bytes()[3], std::byte{0x04});
}

TEST(BytesTest, TruncatedReadsFailCleanly) {
  ByteWriter w;
  w.WriteU8(0);
  w.WriteU8(7);
  ByteReader r{w.bytes()};
  EXPECT_FALSE(r.ReadU32().ok());
  EXPECT_EQ(r.ReadU32().status().code(), StatusCode::kInvalidArgument);
}

TEST(BytesTest, TruncatedStringFails) {
  ByteWriter w;
  w.WriteU32(100);  // claims 100 bytes, provides none
  ByteReader r{w.bytes()};
  EXPECT_FALSE(r.ReadString().ok());
}

TEST(BytesTest, ReadBytesExactZeroAndShort) {
  ByteWriter w;
  w.WriteRaw(std::vector<std::byte>{std::byte{1}, std::byte{2},
                                    std::byte{3}});
  ByteReader r{w.bytes()};
  const auto none = r.ReadBytes(0);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  EXPECT_EQ(r.remaining(), 3u);
  const auto short_read = r.ReadBytes(4);  // one more than remains
  ASSERT_FALSE(short_read.ok());
  EXPECT_EQ(short_read.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(short_read.status().message().find("truncated frame"),
            std::string::npos);
  EXPECT_EQ(r.remaining(), 3u);  // a failed read consumes nothing
  const auto exact = r.ReadBytes(3);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(*exact, w.bytes());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.ReadBytes(0).ok());
  EXPECT_FALSE(r.ReadBytes(1).ok());
}

TEST(BytesTest, ReadBytesRejectsHugeLengthsWithoutAllocating) {
  ByteWriter w;
  w.WriteU32(0xffff'ffff);
  ByteReader r{w.bytes()};
  const auto len = r.ReadU32();
  ASSERT_TRUE(len.ok());
  EXPECT_FALSE(r.ReadBytes(*len).ok());
}

TEST(BytesTest, PaddingCountsTowardSize) {
  ByteWriter w;
  w.WritePadding(100);
  EXPECT_EQ(w.size(), 100u);
  ByteReader r{w.bytes()};
  EXPECT_TRUE(r.Skip(100).ok());
  EXPECT_FALSE(r.Skip(1).ok());
}

TEST(StatsTest, MeanAndVariance) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StatsTest, ConfidenceIntervalUsesStudentT) {
  RunningStats s;
  for (const double x : {10.0, 12.0, 11.0, 13.0, 9.0}) s.Add(x);
  // n=5 -> df=4 -> t=2.132; ci = t * sd/sqrt(n).
  const double expected = 2.132 * s.stddev() / std::sqrt(5.0);
  EXPECT_NEAR(s.ConfidenceInterval90(), expected, 1e-9);
}

TEST(StatsTest, CellFormatMatchesPaperStyle) {
  RunningStats s;
  s.Add(140.0);
  s.Add(140.7);
  // n=2 -> df=1 -> t=6.314; sd=0.495 -> ci = 6.314*0.495/sqrt(2) = 2.210.
  EXPECT_EQ(s.ToCell(), "140.350 [2.210]");
}

TEST(StatsTest, SingleSampleHasZeroCi) {
  RunningStats s;
  s.Add(5.0);
  EXPECT_DOUBLE_EQ(s.ConfidenceInterval90(), 0.0);
}

TEST(TimeSeriesTest, IntegrationIsTrapezoidal) {
  TimeSeries ts;
  using namespace std::chrono_literals;
  ts.Add(kSimEpoch, 0.0);
  ts.Add(kSimEpoch + 2s, 10.0);
  // Triangle: 0.5 * base(2s) * height(10) = 10.
  EXPECT_DOUBLE_EQ(ts.Integrate(), 10.0);
  EXPECT_DOUBLE_EQ(ts.TimeWeightedMean(), 5.0);
  EXPECT_DOUBLE_EQ(ts.Max(), 10.0);
}

TEST(TimeSeriesTest, TsvDump) {
  TimeSeries ts;
  ts.Add(kSimEpoch + 1s, 2.5);
  EXPECT_EQ(ts.ToTsv(), "1.000\t2.500\n");
}

TEST(TimeSeriesTest, AsciiPlotHasAxis) {
  TimeSeries ts;
  for (int i = 0; i <= 10; ++i) {
    ts.Add(kSimEpoch + std::chrono::seconds{i}, i * 10.0);
  }
  const std::string plot = ts.AsciiPlot(40, 5, "mW");
  EXPECT_NE(plot.find('#'), std::string::npos);
  EXPECT_NE(plot.find("mW"), std::string::npos);
}

TEST(IdTest, SequentialPerPrefix) {
  IdGenerator ids;
  EXPECT_EQ(ids.NextId("q"), "q-1");
  EXPECT_EQ(ids.NextId("q"), "q-2");
  EXPECT_EQ(ids.NextId("item"), "item-1");
  EXPECT_EQ(ids.NextCounter("q"), 3u);
}

// --- SlotTable -------------------------------------------------------------

using Handle = SlotTable<int>::Handle;

TEST(SlotTableTest, HandlesAreNeverZeroAndNeverRepeat) {
  SlotTable<int> table;
  std::set<Handle> seen;
  std::vector<Handle> live;
  for (int round = 0; round < 200; ++round) {
    const Handle h = table.Insert(round);
    EXPECT_NE(h, 0u);
    EXPECT_TRUE(seen.insert(h).second) << "handle repeated: " << h;
    live.push_back(h);
    if (round % 3 != 0) {  // churn: free most of what was just taken
      EXPECT_TRUE(table.Erase(live.back()));
      live.pop_back();
    }
  }
  EXPECT_EQ(table.size(), live.size());
}

TEST(SlotTableTest, StaleHandleMissesAfterEraseAndAfterSlotReuse) {
  SlotTable<std::string> table;
  const Handle a = table.Insert("a");
  ASSERT_NE(table.Find(a), nullptr);
  EXPECT_EQ(*table.Find(a), "a");
  EXPECT_TRUE(table.Erase(a));
  EXPECT_EQ(table.Find(a), nullptr);
  EXPECT_FALSE(table.Erase(a));  // double erase is a no-op

  const Handle b = table.Insert("b");
  EXPECT_EQ(SlotTable<std::string>::SlotOf(b),
            SlotTable<std::string>::SlotOf(a));  // same slot
  EXPECT_NE(b, a);
  EXPECT_EQ(table.Find(a), nullptr);
  EXPECT_FALSE(table.Erase(a));
  ASSERT_NE(table.Find(b), nullptr);
  EXPECT_EQ(*table.Find(b), "b");

  // 0 and garbage handles miss.
  EXPECT_EQ(table.Find(0), nullptr);
  EXPECT_EQ(table.Find(Handle{1} << 40 | 7), nullptr);
  EXPECT_FALSE(table.Erase(0));
  EXPECT_EQ(table.size(), 1u);
}

TEST(SlotTableTest, SlotsAreReusedLifo) {
  SlotTable<int> table;
  std::vector<Handle> h;
  for (int i = 0; i < 4; ++i) h.push_back(table.Insert(i));
  table.Erase(h[1]);
  table.Erase(h[3]);
  table.Erase(h[0]);
  // Newest freed first: slot 0, then 3, then 1, then a new slot 4.
  EXPECT_EQ(SlotTable<int>::SlotOf(table.Insert(10)), 0u);
  EXPECT_EQ(SlotTable<int>::SlotOf(table.Insert(11)), 3u);
  EXPECT_EQ(SlotTable<int>::SlotOf(table.Insert(12)), 1u);
  EXPECT_EQ(SlotTable<int>::SlotOf(table.Insert(13)), 4u);
  EXPECT_EQ(table.slot_count(), 5u);
  EXPECT_EQ(table.size(), 5u);
}

TEST(SlotTableTest, IssuedHoldsOnlyForHandlesTheSlotGaveOut) {
  SlotTable<int> table;
  const Handle a = table.Insert(1);
  EXPECT_TRUE(table.Issued(a));
  table.Erase(a);
  EXPECT_TRUE(table.Issued(a));  // erased, but once given out
  const Handle b = table.Insert(2);
  EXPECT_TRUE(table.Issued(b));
  EXPECT_TRUE(table.Issued(a));

  EXPECT_FALSE(table.Issued(0));
  // The slot's next generation has not been given out yet.
  const Handle next = b + (b - a);
  EXPECT_EQ(SlotTable<int>::SlotOf(next), SlotTable<int>::SlotOf(b));
  EXPECT_FALSE(table.Issued(next));
  // A slot the table never had.
  EXPECT_FALSE(table.Issued((b & ~Handle{0xffff}) | 9));
}

TEST(SlotTableTest, AddressesStayStableAsTheTableGrows) {
  SlotTable<std::string> table;
  const Handle first = table.Insert("first");
  const std::string* address = table.Find(first);
  std::vector<Handle> more;
  for (int i = 0; i < 10'000; ++i) {
    more.push_back(table.Insert(std::to_string(i)));
  }
  EXPECT_EQ(table.Find(first), address);
  EXPECT_EQ(*address, "first");
  for (std::size_t i = 0; i < more.size(); i += 2) table.Erase(more[i]);
  for (int i = 0; i < 5'000; ++i) table.Insert("again");
  EXPECT_EQ(table.Find(first), address);
}

TEST(SlotTableTest, ForEachVisitsExactlyTheLiveEntriesInSlotOrder) {
  SlotTable<int> table;
  std::vector<Handle> h;
  for (int i = 0; i < 6; ++i) h.push_back(table.Insert(i));
  table.Erase(h[1]);
  table.Erase(h[4]);
  std::vector<int> seen;
  table.ForEach([&seen](int& v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{0, 2, 3, 5}));

  // Erasing the visited entry from inside the walk is allowed.
  seen.clear();
  table.ForEach([&](int& v) {
    seen.push_back(v);
    if (v == 2) table.Erase(h[2]);
  });
  EXPECT_EQ(seen, (std::vector<int>{0, 2, 3, 5}));
  EXPECT_EQ(table.size(), 3u);

  const SlotTable<int>& view = table;
  int sum = 0;
  view.ForEach([&sum](const int& v) { sum += v; });
  EXPECT_EQ(sum, 0 + 3 + 5);
}

/// Records, in its destructor, whether its own handle still resolved.
struct Probe {
  SlotTable<Probe>* table = nullptr;
  Handle self = 0;
  bool* found_in_destructor = nullptr;
  ~Probe() {
    if (found_in_destructor != nullptr) {
      *found_in_destructor = table->Find(self) != nullptr;
    }
  }
};

TEST(SlotTableTest, HandleMissesInsideTheValuesDestructor) {
  SlotTable<Probe> table;
  bool found = true;
  const Handle h = table.Emplace();
  *table.Find(h) = Probe{&table, h, &found};
  EXPECT_TRUE(table.Erase(h));
  EXPECT_FALSE(found);
  EXPECT_EQ(table.size(), 0u);
}

class SlotTableOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SlotTableOracleTest, RandomSequenceMatchesAMapOracle) {
  Rng rng(GetParam());
  SlotTable<std::uint64_t> table;
  std::map<Handle, std::uint64_t> oracle;
  std::vector<Handle> erased;
  std::uint64_t next_value = 0;
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(n) - 1));
  };
  for (int step = 0; step < 5'000; ++step) {
    const std::int64_t op = rng.UniformInt(0, 9);
    if (op < 4 || oracle.empty()) {
      const std::uint64_t value = next_value++;
      const Handle h = table.Insert(value);
      ASSERT_TRUE(oracle.emplace(h, value).second) << "repeated handle";
    } else if (op < 7) {
      auto it = oracle.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(pick(oracle.size())));
      ASSERT_TRUE(table.Erase(it->first));
      erased.push_back(it->first);
      oracle.erase(it);
    } else if (op < 9) {
      auto it = oracle.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(pick(oracle.size())));
      const std::uint64_t* found = table.Find(it->first);
      ASSERT_NE(found, nullptr);
      EXPECT_EQ(*found, it->second);
    } else if (!erased.empty()) {
      const Handle stale = erased[pick(erased.size())];
      EXPECT_EQ(table.Find(stale), nullptr);
      EXPECT_FALSE(table.Erase(stale));
      EXPECT_TRUE(table.Issued(stale));
    }
    ASSERT_EQ(table.size(), oracle.size());
  }
  std::vector<std::uint64_t> live;
  table.ForEach([&live](std::uint64_t& v) { live.push_back(v); });
  std::sort(live.begin(), live.end());
  std::vector<std::uint64_t> expected;
  for (const auto& [h, v] : oracle) expected.push_back(v);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(live, expected);
  // Memory follows the peak of live entries, not entries ever inserted.
  EXPECT_LT(table.slot_count(), next_value);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlotTableOracleTest,
                         ::testing::Values(1u, 17u, 404u, 8080u, 65537u));

}  // namespace
}  // namespace contory
