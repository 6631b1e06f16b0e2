// Regenerates Fig. 4: "Power consumption for extInfra provisioning".
//
// The paper's trace: a Nokia 6630 with the GSM radio on sends 5 on-demand
// queries to the infrastructure over UMTS, one every 3 minutes. Expected
// features: ~1000 mW peaks when the connection is opened and the request
// sent, radio-tail decay after each query, and background GSM paging
// peaks of 450-481 mW every 50-60 s. The multimeter samples at ~500 ms.
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
      "Fig. 4: power consumption for extInfra provisioning "
      "(5 UMTS queries, one every 3 min)");

  testbed::World world{2600};
  testbed::DeviceOptions opts;
  opts.name = "nokia-6630";
  opts.with_bt = false;
  opts.infra_address = "infra.dynamos.fi";
  auto& device = world.AddDevice(opts);
  auto& server = world.AddContextServer("infra.dynamos.fi");

  CxtItem seed;
  seed.id = "weather-1";
  seed.type = vocab::kTemperature;
  seed.value = 17.0;
  seed.timestamp = world.Now();
  server.StoreDirect({seed, "weather-station", std::nullopt});

  device.phone().battery().SetMeterInserted(true);
  energy::PowerMeter meter{world.sim(), device.phone().energy()};
  meter.Start();

  core::CollectingClient client;
  std::vector<double> query_latencies_ms;
  for (int i = 0; i < 5; ++i) {
    world.RunFor(3min);
    const SimTime start = world.Now();
    const std::size_t before = client.items.size();
    const auto id = device.contory().ProcessCxtQuery(
        NewQuery(world.sim(),
                 "SELECT temperature FROM extInfra DURATION 1 min"),
        client);
    if (!id.ok()) throw std::runtime_error(id.status().ToString());
    while (client.items.size() == before && world.sim().Step()) {
    }
    query_latencies_ms.push_back(ToMillis(world.Now() - start));
  }
  world.RunFor(1min);
  meter.Stop();

  const TimeSeries& trace = meter.trace();
  std::printf("\nPower trace (multimeter, 500 ms sampling):\n\n%s\n",
              trace.AsciiPlot(100, 14, "mW").c_str());

  // Characteristics the paper reports.
  std::printf("peak power:              %7.1f mW  (paper: 1000 mW at "
              "connection open)\n",
              trace.Max());
  std::printf("mean power:              %7.1f mW\n",
              trace.TimeWeightedMean());
  std::printf("sampled energy:          %7.1f J over %.0f s\n",
              meter.SampledEnergyJoules(),
              ToSeconds(trace.points().back().t - trace.points().front().t));

  // Count paging peaks (>400 mW samples outside query windows are GSM
  // paging; the paper: "peaks of 450-481 mW and every 50-60 sec").
  int paging_samples = 0;
  for (const auto& p : trace.points()) {
    if (p.value > 400.0 && p.value < 600.0) ++paging_samples;
  }
  std::printf("paging-band samples:     %7d     (450-481 mW bursts every "
              "50-60 s)\n",
              paging_samples);
  std::printf("queries completed:       %7zu\n", query_latencies_ms.size());
  for (std::size_t i = 0; i < query_latencies_ms.size(); ++i) {
    std::printf("  query %zu latency: %.0f ms\n", i + 1,
                query_latencies_ms[i]);
  }

  if (dump_tsv) {
    std::printf("\n# t_seconds\tpower_mW\n%s", trace.ToTsv().c_str());
  }
  return 0;
}
