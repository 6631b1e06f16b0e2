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
#include <new>
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
constexpr double kSubmitBound = 16.59;
constexpr double kCancelObsOffBound = 0.16;
constexpr double kCancelObsOnBound = 3.16;
constexpr double kTimerBound = 0.01;
constexpr double kStageSpanBound = 0.51;

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
