// Ablation: the Smart Messages code cache.
//
// "code cache that stores frequently executed code bricks" (Sec. 5.1) —
// the first SM-FINDER visiting a node must carry its code brick
// (~700 B); subsequent finders travel data-only because the receiver has
// the brick cached, shortening serialization and transfer. This bench
// measures consecutive one-hop getCxtItem rounds: round 1 pays the code
// shipping, later rounds ride the cache.
#include <cstdio>

#include "bench_util.hpp"
#include "core/contory.hpp"
#include "testbed/testbed.hpp"

using namespace contory;
using namespace std::chrono_literals;
using testbed::NewQuery;

namespace {

}  // namespace

int main() {
  bench::PrintHeading(
      "Ablation: SM code cache (consecutive 1-hop SM-FINDER rounds)");

  testbed::World world{3100};
  std::vector<testbed::Device*> devices;
  for (int i = 0; i < 2; ++i) {
    testbed::DeviceOptions opts;
    opts.name = "comm-" + std::to_string(i);
    opts.profile = phone::Nokia9500();
    opts.position = {i * 80.0, 0};
    opts.with_bt = false;
    opts.with_wifi = true;
    opts.with_cellular = false;
    devices.push_back(&world.AddDevice(opts));
  }
  core::CollectingClient pub_app;
  if (!devices[1]->contory().RegisterCxtServer(pub_app).ok()) return 1;
  sim::PeriodicTask republish{world.sim(), 5s, [&] {
    CxtItem item;
    item.id = world.sim().ids().NextId("pub");
    item.type = vocab::kTemperature;
    item.value = 19.0;
    item.timestamp = world.Now();
    item.metadata.accuracy = 0.2;
    (void)devices[1]->contory().PublishCxtItem(item, true);
  }};
  world.RunFor(6s);

  std::printf("\n  round | latency (ms) | code cached at peer?\n");
  std::printf("  %s\n", std::string(48, '-').c_str());
  double first = 0.0;
  double last = 0.0;
  for (int round = 1; round <= 5; ++round) {
    const bool cached_before =
        devices[1]->sm()->CodeCached(core::kFinderBrick);
    core::CollectingClient client;
    const SimTime start = world.Now();
    const auto id = devices[0]->contory().ProcessCxtQuery(
        NewQuery(world.sim(),
                 "SELECT temperature FROM adHocNetwork(1,1) DURATION 1 min"),
        client);
    if (!id.ok()) return 1;
    while (client.items.empty() && world.sim().Step()) {
    }
    const double ms = ToMillis(world.Now() - start);
    std::printf("  %5d | %12.1f | %s\n", round, ms,
                cached_before ? "yes" : "no (code travels)");
    if (round == 1) first = ms;
    last = ms;
    world.RunFor(10s);
  }
  std::printf(
      "\ncold/warm ratio: x%.2f — the cache elides %zu code bytes per "
      "migration\n(serialization + transfer at the J2ME/WiFi rates of the "
      "Table 1 break-up).\n",
      first / last, core::kFinderCodeBytes);
  return first > last ? 0 : 1;
}
