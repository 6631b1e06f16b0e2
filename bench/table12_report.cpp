// Regenerates the paper's Tables 1 and 2 and cross-checks them.
//
// Every scenario runs once per seed (8 runs for Table 1, 5 for Table 2,
// 90% CI as in the paper) and two independent instruments observe that
// same run:
//
//   bench ..... (the `measured` column) sim-time marks and energy-ledger
//               Mark()/JoulesSince() taken by this file around each
//               operation;
//   registry .. what the pipeline recorded by itself: the op_latency_ms
//               and first_delivery_latency_ms histograms, the query's
//               own root span (on-demand energy), and explicit tracer
//               window spans over the paper's measurement windows.
//
// The binary exits 1 when a compared row's two means differ by more than
// the tighter of its two 90% CI half-widths. Rows no middleware hook
// observes print the bench column only: the host wall-clock object
// operations, the post-discovery BT poll with the inquiry/SDP times, and
// the SM per-hop break-up. With observability compiled out
// (-DCONTORY_OBS=OFF) or disabled, only the bench column is printed and
// the comparison is skipped.
//
// Periodic energy rows are the marginal energy above the Contory-idle
// baseline per item received; WiFi rows include the back-light (the
// paper's footnote a).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/contory.hpp"
#include "obs/observability.hpp"
#include "testbed/testbed.hpp"

using namespace contory;
using namespace std::chrono_literals;

namespace {

constexpr int kLatencyRuns = 8;
constexpr int kEnergyRuns = 5;
/// "Turning on Contory as well leads to a power consumption of 10.11 mW."
constexpr double kContoryIdleMw = 10.11;
constexpr const char* kInfra = "infra.dynamos.fi";

/// One scenario's samples from both instruments; `registry` stays empty
/// when observability is off.
struct Samples {
  RunningStats bench;
  RunningStats registry;
};

CxtItem LightItem(testbed::World& world) {
  CxtItem item;
  item.id = world.sim().ids().NextId("item");
  item.type = vocab::kLight;  // the paper's 136-byte lightItem
  item.value = 5200.0;
  item.timestamp = world.Now();
  item.metadata.accuracy = 50.0;
  return item;
}

testbed::DeviceOptions BtPhone(const std::string& name, double x,
                               bool with_cellular) {
  testbed::DeviceOptions opts;
  opts.name = name;
  opts.position = {x, 0};
  opts.with_cellular = with_cellular;
  return opts;
}

/// A WiFi-only Nokia 9500 communicator.
testbed::DeviceOptions WifiPhone(const std::string& name, double x) {
  testbed::DeviceOptions opts = BtPhone(name, x, false);
  opts.profile = phone::Nokia9500();
  opts.with_bt = false;
  opts.with_wifi = true;
  return opts;
}

/// A phone whose extInfra queries and stores go to kInfra.
testbed::DeviceOptions UmtsPhone(const std::string& name, bool with_bt) {
  testbed::DeviceOptions opts;
  opts.name = name;
  opts.infra_address = kInfra;
  opts.with_bt = with_bt;
  return opts;
}

/// Communicators 80 m apart; the last one, `hops` hops away, is
/// registered as a context server.
std::vector<testbed::Device*> WifiLine(testbed::World& world, int hops,
                                       core::CollectingClient& server) {
  std::vector<testbed::Device*> devices;
  for (int i = 0; i <= hops; ++i) {
    devices.push_back(&world.AddDevice(
        WifiPhone("comm-" + std::to_string(i), i * 80.0)));
  }
  (void)devices.back()->contory().RegisterCxtServer(server);
  return devices;
}

/// A requester and, 5 m away, a publisher registered as a context server.
std::pair<testbed::Device*, testbed::Device*> BtPair(
    testbed::World& world, core::CollectingClient& server,
    bool with_cellular) {
  auto& requester = world.AddDevice(BtPhone("requester", 0, with_cellular));
  auto& publisher = world.AddDevice(BtPhone("publisher", 5, with_cellular));
  (void)publisher.contory().RegisterCxtServer(server);
  return {&requester, &publisher};
}

template <typename Pred>
void StepUntil(testbed::World& world, Pred done) {
  while (!done() && world.sim().Step()) {
  }
}

std::string Submit(testbed::World& world, testbed::Device& device,
                   const std::string& text, core::Client& client) {
  const auto id = device.contory().ProcessCxtQuery(
      testbed::NewQuery(world.sim(), text), client);
  if (!id.ok()) throw std::runtime_error(id.status().ToString());
  return *id;
}

double MarginalPerItem(double joules, double window_s, std::uint64_t items) {
  if (items == 0) return 0.0;
  return (joules - kContoryIdleMw / 1e3 * window_s) /
         static_cast<double>(items);
}

/// The samples of one registry histogram since the last reset.
RunningStats HistogramStats(const std::string& name,
                            const obs::Labels& labels) {
  const obs::Histogram* h =
      obs::Observability::metrics().FindHistogram(name, labels);
  return h != nullptr ? h->stats() : RunningStats{};
}

RunningStats PublishLatency(const char* mechanism, const char* transport) {
  return HistogramStats("op_latency_ms", {{"op", "publishCxtItem"},
                                          {"mechanism", mechanism},
                                          {"transport", transport}});
}

RunningStats FirstDeliveryLatency(const char* mechanism) {
  return HistogramStats("first_delivery_latency_ms",
                        {{"mechanism", mechanism}});
}

/// The newest finished root span of `query_id`, or nullptr. Every run's
/// World restarts the query-id sequence, so earlier runs leave finished
/// roots under the same id; the newest one is this run's.
const obs::Span* NewestRootSpan(const std::string& query_id) {
  const auto& finished = obs::Observability::tracer().finished();
  for (auto it = finished.rbegin(); it != finished.rend(); ++it) {
    if (it->query_id == query_id && it->parent == 0) return &*it;
  }
  return nullptr;
}

/// An explicit tracer span metering `device` over a window no pipeline
/// span brackets; 0 when observability is off.
std::uint64_t OpenWindow(const std::string& id, testbed::World& world,
                         testbed::Device& device) {
  if (!COBS_ON()) return 0;
  return obs::Observability::tracer().BeginQuery(
      id, world.Now(),
      [&device] { return device.phone().energy().TotalEnergyJoules(); });
}

/// Closes a window span with `items` delivered; nullptr when obs is off.
const obs::Span* CloseWindow(std::uint64_t span, testbed::World& world,
                             std::uint64_t items) {
  if (span == 0) return nullptr;
  auto& tracer = obs::Observability::tracer();
  tracer.AddItems(span, items);
  return tracer.EndQuery(span, world.Now(), "window");
}

// --- Table 1 ------------------------------------------------------------

/// Host wall-clock cost of a local library operation, in ms.
template <typename Fn>
double WallClockMs(Fn&& fn, int iters = 20'000) {
  for (int i = 0; i < 100; ++i) fn();  // warm up
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count() / iters;
}

/// publishCxtItem in the ad hoc network: SDDB registration (BT) or SM
/// tag upsert (WiFi).
Samples AdHocPublish(std::uint64_t seed, const testbed::DeviceOptions& opts,
                     const char* transport) {
  obs::Observability::ResetForTest();
  Samples ms;
  for (int run = 0; run < kLatencyRuns; ++run) {
    testbed::World world{seed + static_cast<std::uint64_t>(run)};
    auto& device = world.AddDevice(opts);
    core::CollectingClient server;
    (void)device.contory().RegisterCxtServer(server);
    const SimTime start = world.Now();
    bool done = false;
    device.contory().publisher().Publish(LightItem(world), "",
                                         [&](Status) { done = true; });
    StepUntil(world, [&] { return done; });
    ms.bench.Add(ToMillis(world.Now() - start));
  }
  ms.registry = PublishLatency("adHocNetwork", transport);
  return ms;
}

/// A publisher storing repeatedly: the radio hovers between DCH tail and
/// FACH, which is where the paper's high variance comes from.
Samples UmtsPublish() {
  obs::Observability::ResetForTest();
  Samples ms;
  testbed::World world{340};
  auto& device = world.AddDevice(UmtsPhone("publisher", true));
  world.AddContextServer(kInfra);
  for (int run = 0; run < kLatencyRuns + 2; ++run) {
    world.RunFor(12s);
    const SimTime start = world.Now();
    bool done = false;
    device.contory().StoreCxtItem(LightItem(world),
                                  [&](Status) { done = true; });
    StepUntil(world, [&] { return done; });
    // Both instruments drop the two cold-start samples.
    if (run >= 2) ms.bench.Add(ToMillis(world.Now() - start));
    if (run == 1) obs::Observability::metrics().Reset();
  }
  ms.registry = PublishLatency("extInfra", "cellular");
  return ms;
}

struct BtPoll {
  RunningStats ms;
  double discovery_s = 0.0;  // of the last run
  double sdp_s = 0.0;
};

/// The one-hop getCxtItem "once device and service discovery has
/// occurred": inquiry, SDP and connection are driven by hand on the raw
/// BT stack and timed separately, then one request/response is timed.
BtPoll BtPostDiscoveryPoll() {
  BtPoll result;
  for (int run = 0; run < kLatencyRuns; ++run) {
    testbed::World world{360 + static_cast<std::uint64_t>(run)};
    core::CollectingClient server;
    auto [requester, publisher] = BtPair(world, server, true);
    (void)publisher->contory().PublishCxtItem(LightItem(world), true);
    world.RunFor(1s);
    net::BluetoothController& bt = *requester->bt();

    const SimTime t0 = world.Now();
    bool discovered = false;
    bt.StartInquiry(
        [&](Result<std::vector<net::BtDeviceInfo>>) { discovered = true; });
    StepUntil(world, [&] { return discovered; });
    result.discovery_s = ToSeconds(world.Now() - t0);

    const SimTime t1 = world.Now();
    bool sdp_done = false;
    bt.DiscoverServices(
        publisher->node(), core::CxtServiceName(vocab::kLight),
        [&](Result<std::vector<net::ServiceRecord>>) { sdp_done = true; });
    StepUntil(world, [&] { return sdp_done; });
    result.sdp_s = ToSeconds(world.Now() - t1);

    net::BtLinkId link = 0;
    bt.Connect(publisher->node(),
               [&](Result<net::BtLinkId> r) { link = r.value(); });
    world.RunFor(1s);
    bool got = false;
    bt.SetDataHandler(
        [&](net::BtLinkId, net::NodeId, const std::vector<std::byte>& f) {
          if (core::ParseCxtGetResponse(f).ok()) got = true;
        });
    const SimTime t2 = world.Now();
    bt.Send(link, core::BuildCxtGetRequest(vocab::kLight, ""));
    StepUntil(world, [&] { return got; });
    result.ms.Add(ToMillis(world.Now() - t2));
  }
  return result;
}

/// SM-FINDER round trip over `hops` WiFi hops.
Samples WifiGet(int hops) {
  obs::Observability::ResetForTest();
  Samples ms;
  for (int run = 0; run < kLatencyRuns; ++run) {
    testbed::World world{380 + static_cast<std::uint64_t>(hops * 40 + run)};
    core::CollectingClient server;
    const auto devices = WifiLine(world, hops, server);
    (void)devices.back()->contory().PublishCxtItem(LightItem(world), true);

    core::CollectingClient client;
    const SimTime start = world.Now();
    (void)Submit(world, *devices[0],
                 "SELECT light FROM adHocNetwork(1," + std::to_string(hops) +
                     ") DURATION 1 min",
                 client);
    StepUntil(world, [&] { return !client.items.empty(); });
    ms.bench.Add(ToMillis(world.Now() - start));
  }
  ms.registry = FirstDeliveryLatency("adHocNetwork");
  return ms;
}

/// One raw SM round trip to extract the per-hop latency break-up.
sm::HopBreakup MeasureBreakup() {
  testbed::World world{470};
  core::CollectingClient server;
  const auto devices = WifiLine(world, 1, server);
  (void)devices[1]->contory().PublishCxtItem(LightItem(world), true);

  sm::HopBreakup breakup;
  sm::SmRuntime* rt = devices[0]->sm();
  sm::SmartMessage finder;
  finder.id = "sm-breakup";
  finder.code_brick = core::kFinderBrick;
  finder.origin = devices[0]->node();
  finder.max_hops = 1;
  core::FinderState state;
  state.query = testbed::NewQuery(
      world.sim(), "SELECT light FROM adHocNetwork(1,1) DURATION 1 min");
  state.remaining_nodes = 1;
  finder.data = state.Encode();
  bool done = false;
  rt->RegisterReplyHandler(finder.id, [&](sm::SmartMessage reply) {
    breakup = reply.breakup;
    done = true;
  });
  (void)rt->Inject(std::move(finder));
  StepUntil(world, [&] { return done; });
  return breakup;
}

/// The extInfra on-demand get from a cold (idle) radio.
Samples UmtsGet() {
  obs::Observability::ResetForTest();
  Samples ms;
  testbed::World world{420};
  auto& device = world.AddDevice(UmtsPhone("requester", true));
  world.AddContextServer(kInfra).StoreDirect(
      {LightItem(world), "boat-7", std::nullopt});
  for (int run = 0; run < kLatencyRuns; ++run) {
    world.RunFor(60s);  // decay to idle: the paper's on-demand cold cost
    core::CollectingClient client;
    const SimTime start = world.Now();
    (void)Submit(world, device, "SELECT light FROM extInfra DURATION 1 min",
                 client);
    StepUntil(world, [&] { return !client.items.empty(); });
    ms.bench.Add(ToMillis(world.Now() - start));
  }
  ms.registry = FirstDeliveryLatency("extInfra");
  return ms;
}

// --- Table 2 ------------------------------------------------------------

struct BtGetResult {
  Samples ms;
  Samples joules;
};

/// The one-hop BT on-demand getCxtItem through the pipeline, device and
/// service discovery included, from submission to the first item. Its
/// latency is Table 1's row (first_delivery histogram on the registry
/// side); its requester energy is Table 2's (the query's own root span,
/// open from admission to terminal completion).
BtGetResult BtOnDemandGet(std::uint64_t seed, int runs, bool with_cellular) {
  obs::Observability::ResetForTest();
  BtGetResult result;
  for (int run = 0; run < runs; ++run) {
    testbed::World world{seed + static_cast<std::uint64_t>(run)};
    core::CollectingClient server;
    auto [requester, publisher] = BtPair(world, server, with_cellular);
    (void)publisher->contory().PublishCxtItem(LightItem(world), true);
    world.RunFor(1s);

    core::CollectingClient client;
    const SimTime start = world.Now();
    const auto mark = requester->phone().energy().Mark();
    const std::string id = Submit(
        world, *requester, "SELECT light FROM adHocNetwork DURATION 1 min",
        client);
    StepUntil(world, [&] { return !client.items.empty(); });
    result.ms.bench.Add(ToMillis(world.Now() - start));
    result.joules.bench.Add(requester->phone().energy().JoulesSince(mark));

    if (!COBS_ON()) continue;
    // The on-demand round completes right after delivery; give the
    // completion cascade its events, then read the finished root span.
    world.RunFor(5s);
    const obs::Span* root = NewestRootSpan(id);
    if (root == nullptr) {  // still open: fall back to duration expiry
      world.RunFor(60s);
      root = NewestRootSpan(id);
    }
    if (root != nullptr) result.joules.registry.Add(root->energy_joules());
  }
  result.ms.registry = FirstDeliveryLatency("adHocNetwork");
  return result;
}

struct BtPeriodicResult {
  Samples requester;
  Samples provider;
};

/// BT one-hop periodic query, post-discovery steady state over a 5-minute
/// window, metered on the requester and on the provider (publisher).
BtPeriodicResult BtPeriodic() {
  obs::Observability::ResetForTest();
  BtPeriodicResult result;
  for (int run = 0; run < kEnergyRuns; ++run) {
    testbed::World world{620 + static_cast<std::uint64_t>(run)};
    core::CollectingClient server;
    auto [requester, publisher] = BtPair(world, server, false);
    sim::PeriodicTask republish{world.sim(), 5s, [&] {
      (void)publisher->contory().PublishCxtItem(LightItem(world), true);
    }};

    core::CollectingClient client;
    (void)Submit(world, *requester,
                 "SELECT light FROM adHocNetwork DURATION 20 min EVERY 5 sec",
                 client);
    world.RunFor(30s);  // discovery + connection settle
    const std::size_t items_before = client.items.size();
    const std::string suffix = std::to_string(run);
    const auto req_mark = requester->phone().energy().Mark();
    const auto pub_mark = publisher->phone().energy().Mark();
    const std::uint64_t req_span =
        OpenWindow("t2-bt-req-" + suffix, world, *requester);
    const std::uint64_t pub_span =
        OpenWindow("t2-bt-prov-" + suffix, world, *publisher);
    const SimTime start = world.Now();
    world.RunFor(5min);
    const double window = ToSeconds(world.Now() - start);
    const std::uint64_t items = client.items.size() - items_before;
    result.requester.bench.Add(MarginalPerItem(
        requester->phone().energy().JoulesSince(req_mark), window, items));
    result.provider.bench.Add(MarginalPerItem(
        publisher->phone().energy().JoulesSince(pub_mark), window, items));
    for (const auto& [span, samples] :
         {std::pair{req_span, &result.requester},
          std::pair{pub_span, &result.provider}}) {
      if (const obs::Span* s = CloseWindow(span, world, items)) {
        samples->registry.Add(MarginalPerItem(
            s->energy_joules(), ToSeconds(s->duration()), s->items));
      }
    }
  }
  return result;
}

/// intSensor periodic location query over the BT-GPS (1 Hz NMEA stream).
Samples GpsPeriodic() {
  obs::Observability::ResetForTest();
  Samples joules;
  for (int run = 0; run < kEnergyRuns; ++run) {
    testbed::World world{640 + static_cast<std::uint64_t>(run)};
    auto& device = world.AddDevice(BtPhone("phone", 0, false));
    world.AddGps("gps-1", {3, 0});

    core::CollectingClient client;
    (void)Submit(world, device, "SELECT location DURATION 20 min EVERY 5 sec",
                 client);
    world.RunFor(30s);  // discovery + SDP + connect
    const std::size_t items_before = client.items.size();
    const auto mark = device.phone().energy().Mark();
    const std::uint64_t span =
        OpenWindow("t2-gps-" + std::to_string(run), world, device);
    const SimTime start = world.Now();
    world.RunFor(5min);
    const double window = ToSeconds(world.Now() - start);
    const std::uint64_t items = client.items.size() - items_before;
    joules.bench.Add(MarginalPerItem(
        device.phone().energy().JoulesSince(mark), window, items));
    if (const obs::Span* s = CloseWindow(span, world, items)) {
      joules.registry.Add(MarginalPerItem(
          s->energy_joules(), ToSeconds(s->duration()), s->items));
    }
  }
  return joules;
}

/// WiFi periodic get over `hops` hops: the requesting communicator's
/// energy over one round (launch to delivery), back-light on — system
/// power x round latency, the way the authors derived their lower bounds
/// from partial logs.
Samples WifiPeriodic(int hops) {
  obs::Observability::ResetForTest();
  Samples joules;
  for (int run = 0; run < kEnergyRuns; ++run) {
    testbed::World world{660 + static_cast<std::uint64_t>(hops * 20 + run)};
    core::CollectingClient server;
    const auto devices = WifiLine(world, hops, server);
    devices[0]->phone().SetBacklightOn(true);
    sim::PeriodicTask republish{world.sim(), 5s, [&] {
      (void)devices.back()->contory().PublishCxtItem(LightItem(world), true);
    }};
    world.RunFor(1s);

    core::CollectingClient client;
    (void)Submit(world, *devices[0],
                 "SELECT light FROM adHocNetwork(1," + std::to_string(hops) +
                     ") DURATION 20 min EVERY 30 sec",
                 client);
    StepUntil(world, [&] { return !client.items.empty(); });
    const std::size_t target = client.items.size() + 1;
    // Align to the next EVERY boundary, then meter exactly one round.
    world.RunFor(30s - (world.Now().time_since_epoch() % 30s));
    const auto mark = devices[0]->phone().energy().Mark();
    const std::uint64_t span = OpenWindow(
        "t2-wifi" + std::to_string(hops) + "-" + std::to_string(run), world,
        *devices[0]);
    StepUntil(world, [&] { return client.items.size() >= target; });
    joules.bench.Add(devices[0]->phone().energy().JoulesSince(mark));
    if (const obs::Span* s = CloseWindow(span, world, 1)) {
      joules.registry.Add(s->energy_joules());
    }
  }
  return joules;
}

/// extInfra on-demand get including the full radio tail decay. The root
/// span closes at the round's completion, before the DCH/FACH tails
/// decay, so the registry side needs an explicit window span.
Samples UmtsOnDemand() {
  obs::Observability::ResetForTest();
  Samples joules;
  testbed::World world{690};
  auto& device = world.AddDevice(UmtsPhone("requester", false));
  world.AddContextServer(kInfra).StoreDirect(
      {LightItem(world), "boat-7", std::nullopt});
  for (int run = 0; run < kEnergyRuns; ++run) {
    world.RunFor(60s);  // radio back to idle
    core::CollectingClient client;
    const auto mark = device.phone().energy().Mark();
    const std::uint64_t span =
        OpenWindow("t2-umts-" + std::to_string(run), world, device);
    (void)Submit(world, device, "SELECT light FROM extInfra DURATION 1 min",
                 client);
    StepUntil(world, [&] { return !client.items.empty(); });
    world.RunFor(30s);  // DCH + FACH tails decay
    joules.bench.Add(device.phone().energy().JoulesSince(mark));
    if (const obs::Span* s = CloseWindow(span, world, 1)) {
      joules.registry.Add(s->energy_joules());
    }
  }
  return joules;
}

// --- Presentation and the cross-check ----------------------------------

class Report {
 public:
  explicit Report(bool cross_check) : cross_check_(cross_check) {}

  void BenchOnly(const std::string& label, const std::string& bench,
                 const std::string& paper, const std::string& note) {
    rows_.push_back(
        {label, bench, paper, note, cross_check_ ? "(bench only)" : ""});
  }

  /// A row both instruments observe. It mismatches when the means differ
  /// by more than the tighter of the two 90% CI half-widths.
  void Compared(const std::string& label, const Samples& s,
                const std::string& unit, const std::string& paper,
                const std::string& note) {
    const std::string bench = s.bench.ToCell() + " " + unit;
    std::string registry;
    if (cross_check_) {
      ++compared_;
      registry = s.registry.count() == 0 ? "n/a (no samples)"
                                         : s.registry.ToCell() + " " + unit;
      const double bound = std::min(s.bench.ConfidenceInterval90(),
                                    s.registry.ConfidenceInterval90());
      if (s.registry.count() == 0 ||
          std::abs(s.bench.mean() - s.registry.mean()) > bound) {
        mismatches_.push_back(label + ": bench " + bench + " vs registry " +
                              registry);
      }
    }
    rows_.push_back({label, bench, paper, note, registry});
  }

  /// Prints and clears the rows gathered since the last call.
  void Print(const std::string& title) {
    bench::PrintTable(title, "notes", rows_);
    rows_.clear();
  }

  /// Prints the verdict; returns the exit code.
  int Finish() const {
    if (!cross_check_) {
      std::printf(
          "\nCross-check skipped: observability is compiled out "
          "(-DCONTORY_OBS=OFF) or disabled.\n");
      return 0;
    }
    for (const std::string& m : mismatches_) {
      std::fprintf(stderr, "CROSS-CHECK FAILED: %s\n", m.c_str());
    }
    if (!mismatches_.empty()) return 1;
    std::printf(
        "\nCross-check OK: on all %d compared rows the bench and registry "
        "means agree within the tighter 90%% CI half-width.\n",
        compared_);
    return 0;
  }

 private:
  bool cross_check_;
  int compared_ = 0;
  std::vector<bench::Row> rows_;
  std::vector<std::string> mismatches_;
};

std::string HostCell(double ms) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.4f ms (host)", ms);
  return buf;
}

}  // namespace

int main() {
  Report report(COBS_ON());

  bench::PrintHeading("Table 1: latency of basic Contory operations");
  // Local library operations (wall clock; the paper's numbers are for a
  // 220 MHz J2ME phone, so absolute values differ by the hardware gap —
  // the point is that both are sub-millisecond object operations).
  const double create_ms = WallClockMs([] {
    CxtItem item;
    item.id = "bench";
    item.type = vocab::kLight;
    item.value = 5200.0;
    item.metadata.accuracy = 50.0;
    if (item.Serialize().empty()) std::abort();
  });
  report.BenchOnly("createCxtItem", HostCell(create_ms), "0.078 ms",
                   "local op");
  const double query_ms = WallClockMs(
      [] {
        if (!query::ParseQuery(
                 "SELECT temperature FROM adHocNetwork(10,3) WHERE "
                 "accuracy=0.2 FRESHNESS 30 sec DURATION 1 hour EVENT "
                 "AVG(temperature)>25")
                 .ok()) {
          std::abort();
        }
      },
      5'000);
  report.BenchOnly("createCxtQuery", HostCell(query_ms), "(empty in paper)",
                   "local op");
  report.Compared("adHocNetwork BT: publishCxtItem",
                  AdHocPublish(300, BtPhone("publisher", 0, true), "bt"),
                  "ms", "140.359 ms", "SDDB registration");
  report.Compared("adHocNetwork WiFi: publishCxtItem",
                  AdHocPublish(320, WifiPhone("publisher", 0), "wifi"), "ms",
                  "0.130 ms", "SM tag upsert");
  report.Compared("extInfra UMTS: publishCxtItem", UmtsPublish(), "ms",
                  "772.728 ms", "event-based store");
  const BtPoll poll = BtPostDiscoveryPoll();
  report.BenchOnly("adHocNetwork BT one hop: getCxtItem",
                   poll.ms.ToCell() + " ms", "31.830 ms",
                   "post-discovery poll");
  // Through the pipeline the window spans the whole discovery chain, so
  // the paper reference is the sum of its three reported components.
  report.Compared("adHocNetwork BT one hop: getCxtItem+discovery",
                  BtOnDemandGet(360, kLatencyRuns, true).ms, "ms",
                  "~14152 ms", "13 s + 1.12 s + 31.8 ms, via pipeline");
  report.Compared("adHocNetwork WiFi one hop: getCxtItem", WifiGet(1), "ms",
                  "761.280 ms", "SM-FINDER round trip");
  report.Compared("adHocNetwork WiFi two hops: getCxtItem", WifiGet(2), "ms",
                  "1422.500 ms", "SM-FINDER round trip");
  report.Compared("extInfra UMTS: getCxtItem", UmtsGet(), "ms",
                  "1473.000 ms", "cold connection");
  report.Print("Latency (avg [90% CI] over 8 runs)");

  std::printf("\nBT device discovery: %.2f s (paper: ~13 s)\n",
              poll.discovery_s);
  std::printf("BT service discovery: %.2f s (paper: ~1.12 s)\n", poll.sdp_s);
  const sm::HopBreakup breakup = MeasureBreakup();
  const double total = ToMillis(breakup.Total());
  std::printf(
      "\nSM latency break-up over a 1-hop round trip (paper: connection "
      "4-5%%, serialization 26-33%%, thread switching 12-14%%, transfer "
      "51-54%%):\n");
  for (const auto& [name, part] :
       {std::pair{"connection   ", breakup.connect},
        std::pair{"serialization", breakup.serialize},
        std::pair{"thread switch", breakup.thread_switch},
        std::pair{"transfer     ", breakup.transfer}}) {
    std::printf("  %s %6.1f ms (%4.1f%%)\n", name, ToMillis(part),
                100.0 * ToMillis(part) / total);
  }

  bench::PrintHeading("Table 2: energy consumption per context item (Joule)");
  const BtPeriodicResult bt_periodic = BtPeriodic();
  report.Compared("adHocNetwork BT: provideCxtItem", bt_periodic.provider,
                  "J", "0.133 J", "provider side, periodic");
  report.Compared("adHocNetwork BT: getCxtItem (on-demand+discovery)",
                  BtOnDemandGet(600, kEnergyRuns, false).joules, "J",
                  "5.270 J", "13 s inquiry dominates");
  report.Compared("adHocNetwork BT: getCxtItem (periodic)",
                  bt_periodic.requester, "J", "0.099 J", "no re-discovery");
  report.Compared("intSensor BT-GPS: getCxtItem (periodic)", GpsPeriodic(),
                  "J", "0.422 J", "340 B NMEA @1 Hz, segmented");
  report.Compared("adHocNetwork WiFi 1 hop: getCxtItem (periodic)",
                  WifiPeriodic(1), "J", ">0.906 J", "incl. back-light (a)");
  report.Compared("adHocNetwork WiFi 2 hops: getCxtItem (periodic)",
                  WifiPeriodic(2), "J", ">1.693 J", "incl. back-light (a)");
  report.Compared("extInfra UMTS: getCxtItem (on-demand)", UmtsOnDemand(),
                  "J", "14.076 J", "connection + radio tails");
  report.Print("Energy per item (avg [90% CI] over 5 runs)");

  std::printf(
      "\nShape checks (paper):\n"
      "  on-demand-with-discovery >> periodic BT (x50+)\n"
      "  UMTS >> everything else (x100+ vs periodic BT)\n"
      "  intSensor periodic > adHocNetwork periodic (segmentation)\n"
      "  WiFi rows ~ system power x round latency\n"
      "\nBench-only rows: createCxtItem/createCxtQuery (host wall clock), "
      "the\npost-discovery BT poll with the inquiry/SDP times, and the SM "
      "per-hop\nbreak-up; no middleware hook observes those windows.\n");
  return report.Finish();
}
