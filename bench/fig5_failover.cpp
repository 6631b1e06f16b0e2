// Regenerates Fig. 5: "Contory behaviour in the presence of BT-GPS
// failure".
//
// The paper's trace: the phone retrieves location from a BT-GPS; at
// t=155 s the GPS is switched off; Contory switches to ad hoc
// provisioning from a neighboring device; later the GPS returns and
// Contory switches back. "The cost in terms of power consumption of the
// switches is due mostly to the BT device discovery: this varies from
// 163 mW up to 292 mW" (inquiry power averaged over meter samples).
#include <cstdio>

#include "bench_util.hpp"
#include "core/contory.hpp"
#include "energy/power_meter.hpp"
#include "testbed/testbed.hpp"

using namespace contory;
using namespace std::chrono_literals;
using testbed::NewQuery;

namespace {

}  // namespace

int main(int argc, char** argv) {
  const bool dump_tsv = argc > 1 && std::string(argv[1]) == "--tsv";
  bench::PrintHeading(
      "Fig. 5: Contory behaviour in the presence of BT-GPS failure");

  testbed::World world{2700};
  testbed::DeviceOptions phone_opts;
  phone_opts.name = "phone-A";
  phone_opts.with_cellular = false;
  core::ContextFactoryConfig cfg;
  cfg.failover.recovery_probe_period = 30s;
  phone_opts.factory_config = cfg;
  auto& device = world.AddDevice(phone_opts);

  auto& gps = world.AddGps("gps-1", {3, 0});

  // The neighboring boat that shares its location over BT.
  testbed::DeviceOptions nb_opts;
  nb_opts.name = "phone-B";
  nb_opts.position = {6, 0};
  nb_opts.with_cellular = false;
  auto& neighbor = world.AddDevice(nb_opts);
  core::CollectingClient nb_client;
  (void)neighbor.contory().RegisterCxtServer(nb_client);
  sim::PeriodicTask nb_publish{world.sim(), 5s, [&] {
    CxtItem item;
    item.id = world.sim().ids().NextId("nb");
    item.type = vocab::kLocation;
    item.value = sensors::ToGeo(neighbor.position());
    item.timestamp = world.Now();
    item.metadata.accuracy = 30.0;
    (void)neighbor.contory().PublishCxtItem(item, true);
  }};

  energy::PowerMeter meter{world.sim(), device.phone().energy()};
  meter.Start();

  core::CollectingClient client;
  const auto id = device.contory().ProcessCxtQuery(
      NewQuery(world.sim(), "SELECT location DURATION 15 min EVERY 5 sec"),
      client);
  if (!id.ok()) throw std::runtime_error(id.status().ToString());

  // The paper's timeline: failure at 155 s, recovery later.
  world.RunFor(155s);
  std::printf("t=155s: switching GPS off\n");
  gps.PowerOff();
  world.RunFor(145s);
  std::printf("t=300s: switching GPS back on\n");
  gps.PowerOn();
  world.RunFor(200s);
  meter.Stop();

  const TimeSeries& trace = meter.trace();
  std::printf("\nPower trace (multimeter, 500 ms sampling):\n\n%s\n",
              trace.AsciiPlot(100, 12, "mW").c_str());

  std::printf("Provisioning switches:\n");
  for (const auto& sw : device.contory().switch_log()) {
    std::printf("  %s  %s: %s -> %s\n", FormatTime(sw.at).c_str(),
                sw.query_id.c_str(), query::SourceSelName(sw.from),
                query::SourceSelName(sw.to));
  }
  std::printf("\nitems delivered: %zu (by source: ", client.items.size());
  std::size_t gps_items = 0;
  std::size_t adhoc_items = 0;
  for (const auto& item : client.items) {
    if (item.source.kind == SourceKind::kIntSensor) ++gps_items;
    if (item.source.kind == SourceKind::kAdHocNetwork) ++adhoc_items;
  }
  std::printf("intSensor %zu, adHocNetwork %zu)\n", gps_items, adhoc_items);

  // Discovery-window power: meter samples in the inquiry band.
  double switch_peak = 0.0;
  for (const auto& p : trace.points()) {
    const double t = ToSeconds(p.t);
    if (t > 155.0 && t < 300.0) switch_peak = std::max(switch_peak, p.value);
  }
  std::printf(
      "max meter sample during failover window: %.1f mW "
      "(paper: discovery cost 163-292 mW averaged per sample)\n",
      switch_peak);
  std::printf(
      "mean power over the run: %.1f mW (NMEA/poll bursts aliased by the "
      "500 ms meter show as column peaks above)\n",
      trace.TimeWeightedMean());

  if (dump_tsv) {
    std::printf("\n# t_seconds\tpower_mW\n%s", trace.ToTsv().c_str());
  }
  return 0;
}
