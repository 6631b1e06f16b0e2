// Chaos extension of Fig. 5: query availability under compound faults.
//
// Default mode sweeps BT packet-loss rate x simultaneous-outage duration
// (the BT-GPS and the publishing neighbor go dark together, so failover
// has nowhere to go) and reports, per cell, how many 5 s delivery periods
// produced an answer, how many of those answers were degraded (served
// stale from the local repository), and the mean staleness of the
// degraded answers. `--mode=extinfra` runs the same sweep against the
// infrastructure path instead: cell.connectfail rate x broker.outage
// duration on a cellular-only device, exercising retry absorption and
// degradation over UMTS. Emits the sweep as JSON for machine consumption.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/contory.hpp"
#include "testbed/testbed.hpp"

using namespace contory;
using namespace std::chrono_literals;
using testbed::NewQuery;

namespace {

constexpr SimDuration kRun = 300s;
constexpr SimDuration kEvery = 5s;
constexpr double kFaultAtSec = 60.0;

struct CellResult {
  std::size_t items_total = 0;
  std::size_t items_stale = 0;
  double mean_staleness_s = 0.0;
  double success_rate = 0.0;
  std::size_t switches = 0;
  std::uint64_t retries = 0;
  std::uint64_t injected = 0;
};

CellResult RunCell(double loss_rate, int outage_sec, std::uint64_t seed) {
  testbed::World world{seed};

  testbed::DeviceOptions phone_opts;
  phone_opts.name = "phone-A";
  phone_opts.with_cellular = false;
  core::ContextFactoryConfig cfg;
  cfg.failover.recovery_probe_period = 20s;
  phone_opts.factory_config = cfg;
  auto& device = world.AddDevice(phone_opts);

  world.AddGps("gps-1", {3, 0});

  testbed::DeviceOptions nb_opts;
  nb_opts.name = "phone-B";
  nb_opts.position = {6, 0};
  nb_opts.with_cellular = false;
  auto& neighbor = world.AddDevice(nb_opts);
  core::CollectingClient nb_client;
  (void)neighbor.contory().RegisterCxtServer(nb_client);
  sim::PeriodicTask nb_publish{world.sim(), kEvery, [&] {
                                 CxtItem item;
                                 item.id = world.sim().ids().NextId("nb");
                                 item.type = vocab::kLocation;
                                 item.value =
                                     sensors::ToGeo(neighbor.position());
                                 item.timestamp = world.Now();
                                 item.metadata.accuracy = 30.0;
                                 (void)neighbor.contory().PublishCxtItem(
                                     item, true);
                               }};

  std::string plan;
  if (loss_rate > 0.0) {
    // Interference on both phone radios for the whole run.
    for (const char* target : {"phone-A", "phone-B"}) {
      plan += "at=1s bt.loss " + std::string(target) +
              " rate=" + std::to_string(loss_rate) + " for=299s\n";
    }
  }
  if (outage_sec > 0) {
    // The GPS and the neighbor vanish together: provisioning must ride
    // out the window on retries and stale repository answers.
    plan += "at=60s gps.off gps-1 for=" + std::to_string(outage_sec) + "s\n";
    plan += "at=60s bt.fail phone-B for=" + std::to_string(outage_sec) +
            "s\n";
  }
  if (!plan.empty()) {
    const Status s = world.injector().ExecuteText(plan);
    if (!s.ok()) throw std::runtime_error(s.ToString());
  }

  core::CollectingClient client;
  const auto id = device.contory().ProcessCxtQuery(
      NewQuery(world.sim(), "SELECT location DURATION 5 min EVERY 5 sec"),
      client);
  if (!id.ok()) throw std::runtime_error(id.status().ToString());
  world.RunFor(kRun);

  CellResult r;
  r.items_total = client.items.size();
  double staleness_sum = 0.0;
  for (const CxtItem& item : client.items) {
    if (item.metadata.staleness_seconds.has_value()) {
      ++r.items_stale;
      staleness_sum += *item.metadata.staleness_seconds;
    }
  }
  if (r.items_stale > 0) {
    r.mean_staleness_s = staleness_sum / static_cast<double>(r.items_stale);
  }
  const double periods = ToSeconds(kRun) / ToSeconds(kEvery);
  r.success_rate = static_cast<double>(r.items_total) / periods;
  if (r.success_rate > 1.0) r.success_rate = 1.0;
  r.switches = device.contory().switch_log().size();
  r.retries = device.contory().total_retries();
  r.injected = world.injector().injected();
  (void)kFaultAtSec;
  return r;
}

// extInfra variant of the sweep: cell.connectfail x broker.outage on a
// cellular-only device querying the remote repository.
CellResult RunExtInfraCell(double connectfail_rate, int outage_sec,
                           std::uint64_t seed) {
  testbed::World world{seed};
  auto& server = world.AddContextServer("infra.dynamos.fi");

  // A station feed keeps the remote repository warm every period.
  sim::PeriodicTask feed{world.sim(), kEvery, [&] {
                           infra::StoredItem stored;
                           stored.item.id =
                               world.sim().ids().NextId("station");
                           stored.item.type = vocab::kTemperature;
                           stored.item.value = 14.0;
                           stored.item.timestamp = world.Now();
                           stored.item.metadata.accuracy = 0.2;
                           stored.entity = "station-1";
                           server.StoreDirect(stored);
                         }};

  testbed::DeviceOptions phone_opts;
  phone_opts.name = "phone-A";
  phone_opts.with_bt = false;
  phone_opts.infra_address = "infra.dynamos.fi";
  core::ContextFactoryConfig cfg;
  cfg.failover.recovery_probe_period = 20s;
  cfg.retry.max_attempts = 6;
  cfg.retry.attempt_timeout = 6s;
  cfg.retry.initial_backoff = 500ms;
  cfg.retry.max_backoff = 4s;
  cfg.retry.total_deadline = 60s;
  phone_opts.factory_config = cfg;
  auto& device = world.AddDevice(phone_opts);

  std::string plan;
  if (connectfail_rate > 0.0) {
    plan += "at=1s cell.connectfail phone-A rate=" +
            std::to_string(connectfail_rate) + " for=299s\n";
  }
  if (outage_sec > 0) {
    plan += "at=60s broker.outage infra.dynamos.fi for=" +
            std::to_string(outage_sec) + "s\n";
  }
  if (!plan.empty()) {
    const Status s = world.injector().ExecuteText(plan);
    if (!s.ok()) throw std::runtime_error(s.ToString());
  }

  // Submit inside the connectfail window so the long-running registration
  // itself must ride the retry policy out.
  world.RunFor(2s);
  core::CollectingClient client;
  const auto id = device.contory().ProcessCxtQuery(
      NewQuery(world.sim(),
               "SELECT temperature FROM extInfra DURATION 5 min EVERY 5 sec"),
      client);
  if (!id.ok()) throw std::runtime_error(id.status().ToString());
  world.RunFor(kRun - 2s);

  CellResult r;
  r.items_total = client.items.size();
  double staleness_sum = 0.0;
  for (const CxtItem& item : client.items) {
    if (item.metadata.staleness_seconds.has_value()) {
      ++r.items_stale;
      staleness_sum += *item.metadata.staleness_seconds;
    }
  }
  if (r.items_stale > 0) {
    r.mean_staleness_s = staleness_sum / static_cast<double>(r.items_stale);
  }
  const double periods = ToSeconds(kRun) / ToSeconds(kEvery);
  r.success_rate = static_cast<double>(r.items_total) / periods;
  if (r.success_rate > 1.0) r.success_rate = 1.0;
  r.switches = device.contory().switch_log().size();
  r.retries = device.contory().total_retries();
  r.injected = world.injector().injected();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool extinfra = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--mode=extinfra") == 0) extinfra = true;
  }

  if (extinfra) {
    bench::PrintHeading(
        "Fig. 5 chaos sweep (extInfra): availability under "
        "connect failures x broker outages");
    std::printf(
        "300 s temperature query over UMTS (EVERY 5 s); at t=60 s the\n"
        "remote repository swallows requests for the outage window while\n"
        "connect attempts fail at the given rate; retries absorb what they\n"
        "can, then the factory degrades to stale local answers.\n");
  } else {
    bench::PrintHeading(
        "Fig. 5 chaos sweep: availability under packet loss x outages");
    std::printf(
        "300 s location query (EVERY 5 s); at t=60 s the BT-GPS and the\n"
        "publishing neighbor go dark for the outage window, so failover is\n"
        "exhausted and the factory degrades to stale repository answers.\n");
  }

  const std::vector<double> loss_rates{0.0, 0.1, 0.3};
  const std::vector<int> outages_sec{0, 30, 90};

  std::vector<bench::Row> rows;
  std::vector<bench::JsonObject> json;
  std::uint64_t seed = extinfra ? 9400 : 9100;
  for (const double loss : loss_rates) {
    for (const int outage : outages_sec) {
      const CellResult r = extinfra ? RunExtInfraCell(loss, outage, seed++)
                                    : RunCell(loss, outage, seed++);
      char label[64];
      std::snprintf(label, sizeof label, "%s=%.1f outage=%3ds",
                    extinfra ? "cfail" : "loss", loss, outage);
      char measured[96];
      std::snprintf(measured, sizeof measured,
                    "%.0f%% answered, %zu stale (mean %.0f s old)",
                    100.0 * r.success_rate, r.items_stale,
                    r.mean_staleness_s);
      char note[96];
      std::snprintf(note, sizeof note,
                    "%zu switches, %llu retries, %llu fault transitions",
                    r.switches, static_cast<unsigned long long>(r.retries),
                    static_cast<unsigned long long>(r.injected));
      rows.push_back({label, measured, "n/a (extension)", note});

      bench::JsonObject obj;
      obj.Set("mode", extinfra ? 1.0 : 0.0).Set("loss_rate", loss)
          .Set("outage_sec", static_cast<double>(outage))
          .Set("items_total", static_cast<double>(r.items_total))
          .Set("items_stale", static_cast<double>(r.items_stale))
          .Set("success_rate", r.success_rate)
          .Set("mean_staleness_s", r.mean_staleness_s)
          .Set("switches", static_cast<double>(r.switches))
          .Set("retries", static_cast<double>(r.retries));
      json.push_back(obj);
    }
  }

  bench::PrintTable("Query availability per fault mix", "availability",
                    rows);
  std::printf("\nJSON:\n%s", bench::ToJsonArray(json).c_str());
  return 0;
}
