// item_delivery: the getCxtItem path, provider sampling through facade
// post-extraction to the DeliveryRouter and the client queues.
//
// One phone with four internal sensors (temperature, light, noise,
// humidity). Set-up submits 2,000 intSensor queries as text, merging on
// as in the paper: half periodic (EVERY 1-5 s, a per-query WHERE
// threshold that every reading passes), half event-based (EVENT value >
// one of four shared thresholds per type, plus a per-query WHERE that
// filters). The timed phase advances the simulation one simulated second
// per operation. The environment fields are made drift-free so every
// simulated second offers the same load, however far a run gets.
#include <cmath>
#include <cstdio>
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

constexpr std::size_t kQueries = 2'000;
constexpr int kSetups = 5;
/// Simulated seconds behind the exact outputs (power, items) and the
/// peak-RSS reading; every run measures at least this much.
constexpr std::uint64_t kExactSeconds = 600;
/// Longest EVERY in the workload: a merged poller may still run at this
/// period once before a faster query shortens it.
constexpr double kSlowestEveryS = 5.0;
/// Simulated seconds per measurement window (about 25 ms of host time).
constexpr std::size_t kWindowSeconds = 16;
/// Set-up ends with this much simulated time, so every event provider's
/// window (32 samples at one per 5 s) is full when timing starts.
constexpr std::chrono::seconds kWarmup{200};
/// Query DURATION, far beyond the simulated time any run reaches (about
/// 600 simulated seconds per host second on a 4-core VM, so a 20-s run
/// ends near 12,000 s of the 360,000,000), so no query expires and the
/// offered load stays fixed however fast the program gets. A check
/// confirms it.
constexpr int kDurationHours = 100'000;

struct Sensor {
  const char* type;
  sensors::FieldConfig field;
};

/// The environment's default fields for the four sensors, without the
/// diurnal drift.
const std::vector<Sensor>& Sensors() {
  using std::chrono::hours;
  static const std::vector<Sensor> sensors = {
      {vocab::kTemperature, {18.0, 0.4, -0.2, 0.0, hours{24}, 0.2, -40.0, 60.0}},
      {vocab::kLight,
       {20'000.0, 0.0, 0.0, 0.0, hours{24}, 500.0, 0.0, 120'000.0}},
      {vocab::kNoise, {45.0, 1.0, 1.0, 0.0, hours{24}, 2.0, 0.0, 130.0}},
      {vocab::kHumidity, {65.0, -0.5, 0.2, 0.0, hours{24}, 1.0, 0.0, 100.0}},
  };
  return sensors;
}

/// One application per query: checks every item it receives against its
/// own query (the post-extraction contract) and counts them.
class CheckingClient final : public core::Client {
 public:
  CheckingClient(std::string type, double where, double event, double every)
      : type_(std::move(type)), where_(where), event_(event), every_(every) {}

  void ReceiveCxtItem(const CxtItem& item) override {
    ++received_;
    const auto value = item.value.AsNumber();
    const bool ok = item.type == type_ && value.ok() && *value > where_ &&
                    (std::isnan(event_) || *value > event_);
    if (!ok) ++bad_;
  }
  void InformError(const std::string&) override { ++errors_; }
  bool MakeDecision(const std::string&) override { return true; }

  [[nodiscard]] std::uint64_t received() const noexcept { return received_; }
  [[nodiscard]] std::uint64_t bad() const noexcept { return bad_; }
  [[nodiscard]] std::uint64_t errors() const noexcept { return errors_; }
  /// EVERY in seconds; 0 for an event-based query.
  [[nodiscard]] double every() const noexcept { return every_; }

 private:
  std::string type_;
  double where_;
  double event_;  // NaN for a periodic query
  double every_;
  std::uint64_t received_ = 0;
  std::uint64_t bad_ = 0;
  std::uint64_t errors_ = 0;
};

struct Input {
  std::string text;
  std::string type;
  double where = 0.0;
  double event = std::nan("");
  double every = 0.0;
};

/// Rounds to the 4 decimals the query text carries, so the client checks
/// against exactly the threshold the program parsed.
double Decimal4(double v) { return std::round(v * 1e4) / 1e4; }

std::vector<Input> MakeInputs(std::uint64_t seed) {
  Rng rng{seed};
  std::vector<Input> inputs;
  inputs.reserve(kQueries);
  char buf[160];
  for (std::size_t i = 0; i < kQueries; ++i) {
    const Sensor& s = Sensors()[static_cast<std::size_t>(rng.UniformInt(0, 3))];
    Input in;
    in.type = s.type;
    if (i % 2 == 0) {
      in.every = static_cast<double>(rng.UniformInt(1, 5));
      in.where = Decimal4(s.field.base -
                          rng.Uniform(8.0, 12.0) * s.field.noise_sigma);
      std::snprintf(buf, sizeof buf,
                    "SELECT %s FROM intSensor WHERE value > %.4f "
                    "DURATION %d hour EVERY %.0f sec",
                    s.type, in.where, kDurationHours, in.every);
    } else {
      in.event = Decimal4(s.field.base +
                          0.5 * static_cast<double>(rng.UniformInt(0, 3)) *
                              s.field.noise_sigma);
      in.where =
          Decimal4(in.event + rng.Uniform(-1.0, 1.0) * s.field.noise_sigma);
      std::snprintf(buf, sizeof buf,
                    "SELECT %s FROM intSensor WHERE value > %.4f "
                    "DURATION %d hour EVENT value > %.4f",
                    s.type, in.where, kDurationHours, in.event);
    }
    in.text = buf;
    inputs.push_back(std::move(in));
  }
  return inputs;
}

struct Delivery {
  explicit Delivery(std::uint64_t seed) : world(seed) {
    for (const Sensor& s : Sensors()) {
      world.environment().Configure(s.type, s.field);
    }
    testbed::DeviceOptions opts;
    opts.name = "phone-items";
    opts.with_bt = false;
    opts.with_cellular = false;
    for (const Sensor& s : Sensors()) opts.internal_sensors.push_back(s.type);
    device = &world.AddDevice(opts);
  }

  core::ContextFactory& factory() { return device->contory(); }

  // Declared first so they outlive the factory that holds their addresses.
  std::vector<std::unique_ptr<CheckingClient>> clients;
  testbed::World world;
  testbed::Device* device = nullptr;
  std::vector<std::string> ids;
  std::uint64_t refused = 0;
  SimTime submitted_at{};
};

std::unique_ptr<Delivery> SetUp(std::uint64_t seed,
                                const std::vector<Input>& inputs) {
  obs::Observability::ResetForTest();
  auto d = std::make_unique<Delivery>(seed);
  for (const Input& in : inputs) {
    d->clients.push_back(std::make_unique<CheckingClient>(
        in.type, in.where, in.event, in.every));
    auto q = query::CxtQuery::Parse(in.text);
    if (!q.ok()) {
      ++d->refused;
      continue;
    }
    q->id = d->world.sim().ids().NextId("q");
    auto id = d->factory().ProcessCxtQuery(*std::move(q), *d->clients.back());
    if (id.ok()) {
      d->ids.push_back(*std::move(id));
    } else {
      ++d->refused;
    }
  }
  d->submitted_at = d->world.Now();
  d->world.RunFor(kWarmup);
  return d;
}

std::uint64_t ItemsReceived(const Delivery& d) {
  std::uint64_t n = 0;
  for (const auto& c : d.clients) n += c->received();
  return n;
}

}  // namespace

Outcome RunItemDelivery(const RunConfig& config, SpanRecorder& spans) {
  Outcome out;
  const std::vector<Input> inputs = MakeInputs(config.seed);
  std::unique_ptr<Delivery> delivery;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    delivery.reset();
    const std::int64_t t0 = NowNs();
    delivery = SetUp(config.seed, inputs);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  Delivery& d = *delivery;
  out.CountOps(kQueries, d.refused, "set-up submits refused");
  sim::Simulation& sim = d.world.sim();
  core::DeliveryRouter& router = d.factory().router();
  SecondStepper stepper(sim, [&router] {
    return StepSignals{0, router.items_routed(), WifiFrames(),
                       NeighborQueries()};
  });

  // Untraced phase: one simulated second per operation.
  const double untraced_s = config.trace ? config.seconds / 2 : config.seconds;
  Windows windows{kWindowSeconds};
  double rss_mb = 0.0;
  double exact_mw = 0.0;
  std::uint64_t exact_items = 0;
  const auto energy0 = d.device->phone().energy().Mark();
  const std::uint64_t items0 = ItemsReceived(d);
  const std::int64_t start = NowNs();
  windows.Start();
  const auto budget = static_cast<std::int64_t>(untraced_s * 1e9);
  while (true) {
    const std::int64_t t0 = NowNs();
    stepper.Advance();
    const std::int64_t t1 = NowNs();
    windows.Add(static_cast<double>(t1 - t0) / 1e3);
    if (windows.ops() == kExactSeconds) {
      rss_mb = PeakRssMb();
      exact_mw = d.device->phone().energy().JoulesSince(energy0) /
                 static_cast<double>(kExactSeconds) * 1e3;
      exact_items = ItemsReceived(d) - items0;
    }
    if (windows.ops() >= kExactSeconds && t1 - start >= budget) break;
  }

  SetSetupTime(setup_s, out);
  out.end_to_end.Set("peak_rss_mb", rss_mb, 1);
  windows.SetEndToEnd("one simulated second (throughput = simulated s "
                      "per host s)",
                      out);
  out.per_layer.Set("sim.avg_power_mw", exact_mw, kExactSeconds);
  char note[160];
  std::snprintf(note, sizeof note,
                "exact over the first %llu simulated s: %llu items, %.4f mW",
                static_cast<unsigned long long>(kExactSeconds),
                static_cast<unsigned long long>(exact_items), exact_mw);
  out.notes.push_back(note);

  if (config.trace) {
    const std::uint64_t events0 = sim.events_dispatched();
    const std::uint64_t routed0 = router.items_routed();
    const std::uint64_t frames0 = HistogramCount(
        "radio_frame_airtime_ms", {{"radio", "wifi"}});
    std::size_t steps = 0;
    Windows traced_windows{kWindowSeconds};
    const std::int64_t t0 = NowNs();
    const auto traced_budget =
        static_cast<std::int64_t>(config.seconds / 2 * 1e9);
    spans.Begin("item_delivery", "harness");
    while (steps == 0 || NowNs() - t0 < traced_budget) {
      const std::int64_t s0 = NowNs();
      stepper.AdvanceTraced(spans);
      traced_windows.Add(static_cast<double>(NowNs() - s0) / 1e3);
      ++steps;
    }
    spans.End();
    const auto events = static_cast<double>(sim.events_dispatched() - events0 -
                                            stepper.sentinels());
    MetricSet& layer = out.per_layer;
    SetCoreLayerMetrics(d.factory(), layer);
    layer.Set("core.router.items_per_event",
              events > 0 ? static_cast<double>(router.items_routed() -
                                               routed0) /
                               events
                         : 0.0,
              static_cast<std::uint64_t>(events));
    layer.Set("sim.events", events, 1);
    SetPercentile(layer, "sim.step_us_p50", stepper.step_us(), 0.50);
    SetPercentile(layer, "sim.step_us_p99", stepper.step_us(), 0.99);
    layer.Set("sim.pending_peak", static_cast<double>(stepper.pending_peak()),
              stepper.step_us().size());
    layer.Set("net.wifi.frames",
              static_cast<double>(HistogramCount("radio_frame_airtime_ms",
                                                 {{"radio", "wifi"}}) -
                                  frames0),
              1);
    SetHostShares(spans, layer);
    layer.Set("obs.tracing_overhead_pct",
              OverheadPct(windows, traced_windows), 2);
  }
  out.per_layer.Set("core.pipeline.refused", static_cast<double>(d.refused),
                    1);

  // Output checks: every item passes its own query, every periodic query
  // gets at least its requested rate.
  const double run_s = ToSeconds(sim.Now() - d.submitted_at);
  out.Check(run_s < kDurationHours * 3600.0,
            "the run outlasted the queries' DURATION");
  std::uint64_t items = 0;
  std::uint64_t bad = 0;
  for (const auto& c : d.clients) {
    items += c->received();
    bad += c->bad();
    out.Check(c->errors() == 0, "a query reported an error");
    if (c->every() > 0.0) {
      const double wanted = std::floor((run_s - kSlowestEveryS) / c->every());
      out.Check(static_cast<double>(c->received()) >= wanted,
                "periodic query got " + std::to_string(c->received()) +
                    " items, wanted " + std::to_string(wanted));
    }
  }
  out.CountOps(items, bad, "items failed their query's WHERE/EVENT");
  CheckLifecycle(d.factory(), out);

  for (const std::string& id : d.ids) d.factory().CancelCxtQuery(id);
  sim.RunUntil(sim.Now());
  CheckLifecycle(d.factory(), out);
  out.Check(d.factory().queries().active_count() == 0,
            "queries still live after cancelling all");
  CheckQuiescentSpans(out);
  return out;
}

}  // namespace perfbench
