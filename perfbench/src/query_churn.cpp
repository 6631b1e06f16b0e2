// query_churn: the whole submit/cancel path over a 100k-query working set.
//
// One phone, clock frozen, one closed-loop caller. Set-up fills the
// factory to 100k live periodic adHocNetwork queries. The timed phase
// runs steady-state pairs: cancel a seeded-random live query, then parse
// and submit a replacement. 3 in 4 SELECT types are unique (own cluster,
// own provider); 1 in 4 come from 512 shared types, so the merge scan and
// the post-extraction lists are exercised. Every 1024 pairs the
// zero-delay events are drained without advancing the clock, which is
// where the facades reap the providers of cancelled clusters.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/contory.hpp"
#include "obs/observability.hpp"
#include "probes.hpp"
#include "testbed/testbed.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace contory;

constexpr std::size_t kLive = 100'000;
constexpr std::int64_t kSharedTypes = 512;
constexpr std::uint64_t kDrainEvery = 1024;
constexpr int kSetups = 3;
/// Peak RSS is read after this many timed pairs, a fixed amount of work,
/// so a faster program is not charged for the extra pairs it completes.
constexpr std::uint64_t kRssPairs = 20'000;
/// Pairs per measurement window (about 25 ms), one drain each.
constexpr std::size_t kWindowPairs = kDrainEvery;

/// Seeded query texts: 3 in 4 SELECT a type no other query uses, 1 in 4
/// one of kSharedTypes shared types.
class QueryTexts {
 public:
  explicit QueryTexts(std::uint64_t seed) : rng_(seed) {}

  std::string Next() {
    const std::string type =
        rng_.UniformInt(0, 3) == 0
            ? "shared" + std::to_string(rng_.UniformInt(0, kSharedTypes - 1))
            : "unique" + std::to_string(unique_++);
    return "SELECT " + type +
           " FROM adHocNetwork(1,1) DURATION 1 hour EVERY 60 sec";
  }

 private:
  Rng rng_;
  std::uint64_t unique_ = 0;
};

struct Churn {
  explicit Churn(std::uint64_t seed) : world(seed) {
    testbed::DeviceOptions opts;
    opts.name = "phone-churn";
    opts.with_cellular = false;
    device = &world.AddDevice(opts);
  }

  core::ContextFactory& factory() { return device->contory(); }

  // Declared first so it outlives the factory that holds its address.
  core::CollectingClient client;
  testbed::World world;
  testbed::Device* device = nullptr;
  std::vector<std::string> live;
  std::uint64_t refused = 0;
};

/// Parse + submit with optional spans; returns the id or "" when refused.
std::string Submit(Churn& c, const std::string& text, SpanRecorder* spans,
                   std::vector<double>* parse_us,
                   std::vector<double>* submit_us) {
  if (spans != nullptr) spans->Begin("CxtQuery::Parse", "core.query");
  auto q = query::CxtQuery::Parse(text);
  if (spans != nullptr) parse_us->push_back(spans->End() / 1e3);
  if (!q.ok()) return {};
  q->id = c.world.sim().ids().NextId("q");
  if (spans != nullptr) spans->Begin("ProcessCxtQuery", "core.pipeline");
  auto id = c.factory().ProcessCxtQuery(*std::move(q), c.client);
  if (spans != nullptr) submit_us->push_back(spans->End() / 1e3);
  return id.ok() ? *std::move(id) : std::string();
}

std::unique_ptr<Churn> SetUp(std::uint64_t seed, QueryTexts& texts) {
  obs::Observability::ResetForTest();
  auto c = std::make_unique<Churn>(seed);
  c->live.reserve(kLive);
  for (std::size_t i = 0; i < kLive; ++i) {
    std::string id = Submit(*c, texts.Next(), nullptr, nullptr, nullptr);
    if (id.empty()) {
      ++c->refused;
    } else {
      c->live.push_back(std::move(id));
    }
  }
  return c;
}

struct Loop {
  std::uint64_t pairs = 0;
  std::uint64_t refused = 0;
  Windows windows{kWindowPairs};  // parse + submit latency
  std::vector<double> parse_us;
  std::vector<double> submit_us;
  std::vector<double> cancel_us;
  std::size_t pending_peak = 0;
  std::uint64_t events = 0;
};

/// Runs pairs until `seconds` have passed and at least `min_pairs` ran.
Loop RunPairs(Churn& c, QueryTexts& texts, Rng& pick, double seconds,
              std::uint64_t min_pairs, SpanRecorder* spans, double* rss_mb) {
  Loop loop;
  sim::Simulation& sim = c.world.sim();
  const std::uint64_t events0 = sim.events_dispatched();
  const std::int64_t start = NowNs();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  if (spans != nullptr) spans->Begin("query_churn", "harness");
  loop.windows.Start();
  while (true) {
    const auto victim = static_cast<std::size_t>(
        pick.UniformInt(0, static_cast<std::int64_t>(c.live.size()) - 1));
    const std::string text = texts.Next();
    std::string id;
    if (spans != nullptr) {
      spans->Begin("CancelCxtQuery", "core.pipeline");
      c.factory().CancelCxtQuery(c.live[victim]);
      loop.cancel_us.push_back(spans->End() / 1e3);
      const std::int64_t t1 = NowNs();
      id = Submit(c, text, spans, &loop.parse_us, &loop.submit_us);
      loop.windows.Add(static_cast<double>(NowNs() - t1) / 1e3);
    } else {
      const std::int64_t t0 = NowNs();
      c.factory().CancelCxtQuery(c.live[victim]);
      const std::int64_t t1 = NowNs();
      id = Submit(c, text, nullptr, nullptr, nullptr);
      loop.cancel_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      loop.windows.Add(static_cast<double>(NowNs() - t1) / 1e3);
    }
    if (id.empty()) {
      ++loop.refused;
    } else {
      c.live[victim] = std::move(id);
    }
    ++loop.pairs;
    if (loop.pairs % kDrainEvery == 0) {
      if (spans != nullptr) spans->Begin("RunUntil(now)", "core.facade");
      sim.RunUntil(sim.Now());
      if (spans != nullptr) spans->End();
    }
    if (spans != nullptr) {
      loop.pending_peak = std::max(loop.pending_peak, sim.pending());
    }
    if (rss_mb != nullptr && loop.pairs == kRssPairs) *rss_mb = PeakRssMb();
    if (loop.pairs >= min_pairs && NowNs() - start >= budget) break;
  }
  if (spans != nullptr) spans->End();
  loop.events = sim.events_dispatched() - events0;
  return loop;
}

}  // namespace

Outcome RunQueryChurn(const RunConfig& config, SpanRecorder& spans) {
  Outcome out;
  std::unique_ptr<Churn> churn;
  std::unique_ptr<QueryTexts> texts;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    churn.reset();  // tear down the previous world before timing the next
    texts = std::make_unique<QueryTexts>(config.seed);
    const std::int64_t t0 = NowNs();
    churn = SetUp(config.seed, *texts);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  Churn& c = *churn;
  out.CountOps(kLive, c.refused, "set-up submits refused");
  Rng pick{config.seed ^ 0x5eedc0deULL};

  double rss_mb = 0.0;
  const double untraced_s = config.trace ? config.seconds / 2 : config.seconds;
  const Loop timed =
      RunPairs(c, *texts, pick, untraced_s, kRssPairs, nullptr, &rss_mb);
  out.CountOps(2 * timed.pairs, timed.refused, "timed submits refused");

  SetSetupTime(setup_s, out);
  out.end_to_end.Set("peak_rss_mb", rss_mb, 1);
  timed.windows.SetEndToEnd(
      "a cancel + submit pair, timed from CxtQuery::Parse through "
      "ProcessCxtQuery",
      out);
  out.notes.push_back("whole-run cancel p50 " +
                      std::to_string(Percentile(timed.cancel_us, 0.5)) +
                      " us, p99 " +
                      std::to_string(Percentile(timed.cancel_us, 0.99)) +
                      " us");
  std::uint64_t refused = c.refused + timed.refused;
  if (config.trace) {
    const Loop traced = RunPairs(c, *texts, pick, config.seconds / 2, 1,
                                 &spans, nullptr);
    out.CountOps(2 * traced.pairs, traced.refused, "traced submits refused");
    refused += traced.refused;
    MetricSet& layer = out.per_layer;
    SetPercentile(layer, "core.query.parse_us_p50", traced.parse_us, 0.50);
    SetPercentile(layer, "core.pipeline.submit_us_p50", traced.submit_us,
                  0.50);
    SetPercentile(layer, "core.pipeline.submit_us_p99", traced.submit_us,
                  0.99);
    SetPercentile(layer, "core.pipeline.cancel_us_p50", traced.cancel_us,
                  0.50);
    SetPercentile(layer, "core.pipeline.cancel_us_p99", traced.cancel_us,
                  0.99);
    SetCoreLayerMetrics(c.factory(), layer);
    const double items = layer.Get("core.router.items_routed").value;
    layer.Set("core.router.items_per_event",
              traced.events > 0 ? items / static_cast<double>(traced.events)
                                : 0.0,
              traced.events);
    layer.Set("sim.events", static_cast<double>(traced.events), 1);
    layer.Set("sim.pending_peak", static_cast<double>(traced.pending_peak),
              traced.pairs);
    SetHostShares(spans, layer);
    layer.Set("obs.tracing_overhead_pct",
              OverheadPct(timed.windows, traced.windows), 2);
  }
  out.per_layer.Set("core.pipeline.refused", static_cast<double>(refused), 1);

  // Every pair replaced the query it cancelled.
  CheckLifecycle(c.factory(), out);
  out.Check(c.factory().queries().active_count() == kLive - c.refused,
            "live queries " +
                std::to_string(c.factory().queries().active_count()) +
                " != " + std::to_string(kLive - c.refused));

  // Quiescence: cancel everything, let the reaps run, audit the spans.
  for (const std::string& id : c.live) c.factory().CancelCxtQuery(id);
  c.world.sim().RunUntil(c.world.sim().Now());
  CheckLifecycle(c.factory(), out);
  out.Check(c.factory().queries().active_count() == 0,
            "queries still live after cancelling all");
  CheckQuiescentSpans(out);
  return out;
}

}  // namespace perfbench
