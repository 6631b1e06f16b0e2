// Allocations per operation on fixed fixtures.
//
// A counting global operator new sees every allocation in this binary.
// Each test warms a fixture, runs one operation kOps times and bounds
// the mean allocations per operation from above. Counts do not depend on
// host noise, so a bound is the count measured when it was set: a
// change that lowers a count tightens its bound, and one that raises a
// bound says why. The bounds hold in the plain and the
// -DCONTORY_OBS=OFF trees (compiled-out hooks allocate less); sanitizer
// builds skip, since their allocators differ.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/contory.hpp"
#include "obs/observability.hpp"
#include "sim/simulation.hpp"
#include "testbed/testbed.hpp"

// Out of line, so the compiler does not pair an inlined free() with a
// new-expression.
namespace {
std::size_t g_allocations = 0;
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace contory {
namespace {

using namespace std::chrono_literals;

constexpr int kOps = 4096;

/// Per-operation upper bounds (mean allocations), each the count when
/// it was set.
constexpr double kSubmitBound = 9.59;
constexpr double kCancelObsOffBound = 0.16;
constexpr double kCancelObsOnBound = 3.16;
constexpr double kTimerBound = 0.002;
constexpr double kStageSpanBound = 0.51;
/// One provider item fanned out to every original of a warm cluster,
/// through the facade and the router to the clients.
constexpr double kFanOutBound = 0.0;

bool SkipUnderSanitizers() {
#if defined(CONTORY_SANITIZED)
  return true;
#else
  return false;
#endif
}

/// Counts the allocations of the calls made inside its scope.
class Counted {
 public:
  explicit Counted(std::size_t& total)
      : total_(total), start_(g_allocations) {}
  ~Counted() { total_ += g_allocations - start_; }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;

 private:
  std::size_t& total_;
  std::size_t start_;
};

void ExpectMeanAtMost(const char* op, std::size_t allocations, double bound) {
  const double mean = static_cast<double>(allocations) / kOps;
  std::printf("[ cost ] %-28s %6.3f allocations/op (bound %.3f)\n", op,
              mean, bound);
  ::testing::Test::RecordProperty(op, std::to_string(mean));
  EXPECT_LE(mean, bound) << op;
}

/// One phone with kLive periodic adHocNetwork queries, clock frozen: 3
/// in 4 SELECT a type of their own (own cluster, own provider), 1 in 4
/// one of kShared types (merged), as in the query_churn workload.
class Churn {
 public:
  static constexpr std::size_t kLive = 2'000;
  static constexpr std::int64_t kShared = 64;

  Churn() : world_(7) {
    testbed::DeviceOptions opts;
    opts.name = "phone-cost";
    opts.with_cellular = false;
    device_ = &world_.AddDevice(opts);
    live_.reserve(kLive);
    for (std::size_t i = 0; i < kLive; ++i) live_.push_back(Submit(Next()));
  }

  core::ContextFactory& factory() { return device_->contory(); }

  /// A parsed query with its id, built outside any counted scope.
  query::CxtQuery Next() {
    const std::string type =
        rng_.UniformInt(0, 3) == 0
            ? "shared" + std::to_string(rng_.UniformInt(0, kShared - 1))
            : "unique" + std::to_string(unique_++);
    auto q = query::CxtQuery::Parse(
        "SELECT " + type + " FROM adHocNetwork(1,1) DURATION 1 hour "
        "EVERY 60 sec");
    EXPECT_TRUE(q.ok());
    q->id = world_.sim().ids().NextId("q");
    return *std::move(q);
  }

  std::string Submit(query::CxtQuery q) {
    auto id = factory().ProcessCxtQuery(std::move(q), client_);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() ? *std::move(id) : std::string();
  }

  std::size_t PickVictim() {
    return static_cast<std::size_t>(
        rng_.UniformInt(0, static_cast<std::int64_t>(live_.size()) - 1));
  }
  std::string& live(std::size_t i) { return live_[i]; }

  /// Fires the zero-delay events (the facades' reaps) without advancing
  /// the clock.
  void Drain() { world_.sim().RunUntil(world_.sim().Now()); }

 private:
  // Declared first so it outlives the factory that holds its address.
  core::CollectingClient client_;
  testbed::World world_;
  testbed::Device* device_ = nullptr;
  std::vector<std::string> live_;
  Rng rng_{11};
  std::uint64_t unique_ = 0;
};

/// Counts its items without storing them.
class CountingClient final : public core::Client {
 public:
  void ReceiveCxtItem(const CxtItem&) override { ++items; }
  void InformError(const std::string&) override {}
  bool MakeDecision(const std::string&) override { return true; }

  std::uint64_t items = 0;
};

/// Transportless provider: the fixture calls the facade's deliver
/// callback itself.
class HandFedProvider final : public core::CxtProvider {
 public:
  using core::CxtProvider::CxtProvider;
  query::SourceSel kind() const noexcept override {
    return query::SourceSel::kIntSensor;
  }
  const char* transport() const noexcept override { return "hand-fed"; }

 protected:
  void DoStart() override {}
  void DoStop() override {}
};

/// One facade cluster of kOriginals intSensor queries, every one of
/// which matches the fixture's item: a third without a WHERE, a third
/// with a threshold on value, a third with a WHERE post-extraction
/// evaluates in full. The facade delivers into a DeliveryRouter over a
/// QueryTable, as in the ContextFactory. Every record's plan starts on,
/// and is served by, `plan`.
class FanOut {
 public:
  static constexpr std::size_t kOriginals = 240;

  explicit FanOut(query::MechanismSet plan)
      : repository_(sim_),
        router_(sim_, table_, repository_),
        facade_(sim_, query::SourceSel::kIntSensor,
                [this](core::QueryId, query::CxtQuery q,
                       core::CxtProvider::Callbacks callbacks) {
                  deliver_ = callbacks.deliver;
                  return std::make_unique<HandFedProvider>(
                      sim_, std::move(q), std::move(callbacks));
                }) {
    facade_.SetDelivery([this](std::span<const core::QueryId> matched,
                               const CxtItem& item) {
      router_.OnFacadeDelivery(matched, item, query::SourceSel::kIntSensor);
    });
    static const char* const kWheres[] = {
        "", " WHERE value > -40", " WHERE value > -40 AND accuracy <= 1"};
    for (std::size_t i = 0; i < kOriginals; ++i) {
      auto q = query::CxtQuery::Parse(
          std::string("SELECT temperature FROM intSensor") + kWheres[i % 3] +
          " DURATION 1 hour EVERY 5 sec");
      EXPECT_TRUE(q.ok());
      q->id = "q" + std::to_string(i);
      const auto qid = table_.Admit(*q, clients_[i % kClients]);
      EXPECT_TRUE(qid.ok());
      core::QueryRecord& record = *table_.FindById(*qid);
      record.plan.initial = plan;
      record.assigned = plan;
      EXPECT_TRUE(facade_.Submit(*qid, *std::move(q)).ok());
    }
    EXPECT_EQ(facade_.active_provider_count(), 1u);
    item_.id = "t-1";
    item_.type = vocab::kTemperature;
    item_.value = 20.0;
    item_.metadata.accuracy = 0.5;
  }

  void SetItemId(std::string id) { item_.id = std::move(id); }

  /// One provider item through the facade's post-extraction.
  void Deliver() {
    item_.timestamp = sim_.Now();
    deliver_(item_);
  }

  [[nodiscard]] std::uint64_t items() const {
    std::uint64_t n = 0;
    for (const CountingClient& c : clients_) n += c.items;
    return n;
  }

 private:
  static constexpr std::size_t kClients = 8;

  CountingClient clients_[kClients];
  sim::Simulation sim_;
  core::QueryTable table_{sim_};
  core::CxtRepository repository_;
  core::DeliveryRouter router_;
  std::function<void(const CxtItem&)> deliver_;
  core::Facade facade_;
  CxtItem item_;
};

class CostTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (SkipUnderSanitizers()) GTEST_SKIP() << "sanitizer allocator";
    obs::Observability::ResetForTest();
  }
  void TearDown() override { obs::Observability::ResetForTest(); }

  /// Cancel + submit pairs on a warm fixture; counts the allocations of
  /// the cancels or of the submits. The warm-up pairs register every
  /// metric handle the pair touches, so the count does not depend on
  /// which tests ran before.
  static std::size_t Churned(bool count_submit) {
    Churn churn;
    std::size_t warm_up = 0;
    Pairs(churn, 256, count_submit, warm_up);
    std::size_t allocations = 0;
    Pairs(churn, kOps, count_submit, allocations);
    return allocations;
  }

  static void Pairs(Churn& churn, int n, bool count_submit,
                    std::size_t& allocations) {
    for (int i = 0; i < n; ++i) {
      const std::size_t victim = churn.PickVictim();
      if (count_submit) {
        churn.factory().CancelCxtQuery(churn.live(victim));
        query::CxtQuery q = churn.Next();
        std::string id;
        {
          Counted counted(allocations);
          id = churn.Submit(std::move(q));
        }
        churn.live(victim) = std::move(id);
      } else {
        {
          Counted counted(allocations);
          churn.factory().CancelCxtQuery(churn.live(victim));
        }
        churn.live(victim) = churn.Submit(churn.Next());
      }
      if (i % 64 == 63) churn.Drain();
    }
  }
};

TEST_F(CostTest, AdHocSubmit) {
  ExpectMeanAtMost("adHoc submit", Churned(/*count_submit=*/true),
                   kSubmitBound);
}

TEST_F(CostTest, CancelObsOff) {
  obs::Observability::Enable(false);
  ExpectMeanAtMost("cancel, obs off", Churned(/*count_submit=*/false),
                   kCancelObsOffBound);
}

TEST_F(CostTest, CancelObsOn) {
  if (!COBS_ON()) GTEST_SKIP() << "observability compiled out";
  ExpectMeanAtMost("cancel, obs on", Churned(/*count_submit=*/false),
                   kCancelObsOnBound);
}

/// Allocations per provider item fanned out by a warm FanOut whose
/// records start on `plan`. With several mechanisms, every item carries
/// an id of its own, as a provider's items do; the dedup window would
/// drop a repeated one.
std::size_t FannedOut(query::MechanismSet plan = {
                          query::SourceSel::kIntSensor}) {
  FanOut fan_out(plan);
  const bool distinct_ids = plan.size() > 1;
  // Warm: fill the repository ring, register the metric handles, grow
  // the match buffer and allocate the dedup windows.
  for (int i = 0; i < 64; ++i) {
    if (distinct_ids) fan_out.SetItemId("w-" + std::to_string(i));
    fan_out.Deliver();
  }
  std::size_t allocations = 0;
  for (int i = 0; i < kOps; ++i) {
    if (distinct_ids) fan_out.SetItemId("t-" + std::to_string(i));
    Counted counted(allocations);
    fan_out.Deliver();
  }
  EXPECT_EQ(fan_out.items(), (kOps + 64) * FanOut::kOriginals);
  return allocations;
}

TEST_F(CostTest, ItemFanOutObsOff) {
  obs::Observability::Enable(false);
  ExpectMeanAtMost("item fan-out, obs off", FannedOut(), kFanOutBound);
}

TEST_F(CostTest, ItemFanOutObsOn) {
  if (!COBS_ON()) GTEST_SKIP() << "observability compiled out";
  ExpectMeanAtMost("item fan-out, obs on", FannedOut(), kFanOutBound);
}

TEST_F(CostTest, TwoSourceItemFanOut) {
  // Each record keeps a dedup window, and every item is new to it.
  ExpectMeanAtMost("two-source item fan-out",
                   FannedOut({query::SourceSel::kIntSensor,
                              query::SourceSel::kExtInfra}),
                   kFanOutBound);
}

TEST_F(CostTest, ScheduleAfterThenCancel) {
  sim::Simulation sim;
  sim.Cancel(sim.ScheduleAfter(1s, [] {}, "cost"));  // warm
  std::size_t allocations = 0;
  for (int i = 0; i < kOps; ++i) {
    Counted counted(allocations);
    sim.Cancel(sim.ScheduleAfter(1s, [] {}, "cost"));
  }
  ExpectMeanAtMost("ScheduleAfter + Cancel", allocations, kTimerBound);
}

TEST_F(CostTest, StageSpanOpenAndClose) {
  obs::QueryTracer tracer;
  const std::uint64_t root = tracer.BeginQuery("q-1", kSimEpoch);
  std::size_t allocations = 0;
  for (int i = 0; i < kOps; ++i) {
    Counted counted(allocations);
    const std::uint64_t span =
        tracer.BeginStage(root, "provision", "adHocNetwork", kSimEpoch);
    tracer.EndStage(span, kSimEpoch, "ok");
  }
  ExpectMeanAtMost("stage span open + close", allocations, kStageSpanBound);
  EXPECT_EQ(tracer.open_count(), 1u);
}

}  // namespace
}  // namespace contory
