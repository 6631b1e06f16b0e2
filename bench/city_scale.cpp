// City-scale SM-FINDER bench: 1k -> 10k -> 100k moving phones.
//
// The paper's ad-hoc experiments used four phones on a table; the
// ROADMAP's city-scale target asks what SM-FINDER context lookup costs
// when a whole city runs Contory. This bench builds a CityScenario per
// fleet size (RandomWaypoint mobility, constant node density so hop
// counts measure scale rather than crowding), then:
//
//   1. measures neighbor-query latency (Medium::NodesWithin at WiFi
//      range) under the spatial grid AND the brute-force linear oracle —
//      the grid must win by >= 10x at 10k nodes (hard gate, recorded as
//      grid_speedup_p50_10k in BENCH_city.json);
//   2. launches sequential SM-FINDER rounds from random issuers while
//      the fleet moves, reporting success rate, hop counts, and
//      reply latency;
//   3. charges the fleet's energy ledger across the finder phase and
//      reports Joules/query (includes the fleet's idle floor — the cost
//      of *operating* the city for one query interval, not just the TX).
//
// --smoke shrinks the sweep to one small size for ctest (label `city`);
// CONTORY_STRESS=ON re-points the smoke at 100k nodes. --nodes=a,b,c
// picks sizes, --rounds=N finders per size, --out=FILE writes the flat
// JSON object (BENCH_city.json at the repo root holds a reference run).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/observability.hpp"
#include "testbed/city_scenario.hpp"

using namespace contory;
using namespace std::chrono_literals;

namespace {

using Clock = std::chrono::steady_clock;

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto idx = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(samples.size())));
  return samples[idx];
}

struct SizeResult {
  std::size_t nodes = 0;
  std::size_t rounds = 0;
  double success_rate = 0.0;
  double reply_rate = 0.0;
  double hops_p50 = 0.0;
  double hops_max = 0.0;
  double latency_p50_ms = 0.0;
  double joules_per_query = 0.0;
  double neighbor_grid_p50_us = 0.0;
  double neighbor_linear_p50_us = 0.0;
  double neighbor_speedup_p50 = 0.0;
  double grid_cells = 0.0;
  double mean_cell_occupancy = 0.0;
  double cell_size_m = 0.0;
  double position_updates = 0.0;
  double build_ms = 0.0;
  double sweep_ms = 0.0;
  /// Sweep wall time per position update issued during the sweep: an
  /// upper bound on the mobility tick's per-phone cost, since the sweep
  /// also routes the finders.
  double ns_per_update = 0.0;
};

/// Wall-clocks NodesWithin at WiFi range from ~256 sampled nodes, once
/// per backend. The grid stays maintained while use_grid is off, so the
/// toggle is O(1) and both runs see identical node positions.
void MeasureNeighborLatency(testbed::CityScenario& city, SizeResult& out) {
  const std::size_t n = city.phone_count();
  const std::size_t samples = std::min<std::size_t>(n, 256);
  const std::size_t stride = std::max<std::size_t>(1, n / samples);
  const double range = city.options().wifi_range_m;

  const auto measure = [&](bool grid) {
    city.medium().set_use_grid(grid);
    std::vector<double> us;
    us.reserve(samples);
    for (std::size_t i = 0; i < n; i += stride) {
      const auto start = Clock::now();
      auto hits = city.medium().NodesWithin(city.node(i), range);
      const auto end = Clock::now();
      if (hits.size() == n) std::abort();  // keep `hits` observable
      us.push_back(
          std::chrono::duration<double, std::micro>(end - start).count());
    }
    return Percentile(std::move(us), 0.5);
  };

  out.neighbor_grid_p50_us = measure(true);
  out.neighbor_linear_p50_us = measure(false);
  city.medium().set_use_grid(true);
  out.neighbor_speedup_p50 =
      out.neighbor_grid_p50_us > 0.0
          ? out.neighbor_linear_p50_us / out.neighbor_grid_p50_us
          : 0.0;
}

SizeResult RunSize(std::size_t nodes, std::size_t rounds, int num_hops,
                   std::uint64_t seed, bool record) {
  SizeResult out;
  out.nodes = nodes;
  out.rounds = rounds;

  testbed::CityOptions options;
  options.phones = nodes;
  // Tighter than the builder's default density: mean WiFi degree ~6.4,
  // comfortably above the continuum-percolation threshold, so a giant
  // component exists and finders genuinely route multi-hop.
  options.area_m = 70.0 * std::sqrt(static_cast<double>(nodes));
  options.provider_fraction = 0.25;
  options.seed = seed;

  const auto build_start = Clock::now();
  testbed::CityScenario city(options);
  out.build_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                           build_start)
                     .count();

  // Let the waypoint fleet disperse from the uniform scatter first.
  city.sim().RunFor(20s);
  MeasureNeighborLatency(city, out);

  // The SM hop timeout budget AdHocCxtProvider uses for its own rounds.
  const SimDuration timeout = std::chrono::milliseconds{
      static_cast<std::int64_t>(1500.0 * 2.0 * (num_hops + 1))};

  const auto updates = [&city] {
    return city.mobility() != nullptr ? city.mobility()->position_updates()
                                      : std::uint64_t{0};
  };
  Rng pick{seed ^ 0xc1f7u};
  const std::uint64_t updates_before = updates();
  const auto sweep_start = Clock::now();
  const double joules_before = city.TotalEnergyJoules();
  std::size_t successes = 0;
  std::size_t replies = 0;
  std::vector<double> hops;
  std::vector<double> latency_ms;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto issuer = static_cast<std::size_t>(
        pick.UniformInt(0, static_cast<std::int64_t>(nodes) - 1));
    std::optional<testbed::CityScenario::FinderOutcome> outcome;
    city.LaunchFinder(issuer, /*num_nodes=*/-1, num_hops, timeout,
                      [&](testbed::CityScenario::FinderOutcome o) {
                        outcome = o;
                      });
    city.sim().RunFor(timeout + 5s);  // mobility keeps ticking throughout
    // One flight-recorder frame per finder round: the hop and airtime
    // curves line up with the rounds that produced them.
    if (record) {
      COBS(obs::Observability::recorder().Sample(city.sim().Now()));
    }
    if (!outcome.has_value()) continue;
    successes += outcome->success ? 1 : 0;
    replies += outcome->replied ? 1 : 0;
    if (outcome->replied) {
      hops.push_back(static_cast<double>(outcome->hops));
      latency_ms.push_back(ToSeconds(outcome->latency) * 1e3);
    }
  }
  const double joules_after = city.TotalEnergyJoules();
  out.sweep_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                           sweep_start)
                     .count();

  out.success_rate =
      static_cast<double>(successes) / static_cast<double>(rounds);
  out.reply_rate =
      static_cast<double>(replies) / static_cast<double>(rounds);
  out.hops_p50 = Percentile(hops, 0.5);
  out.hops_max = hops.empty() ? 0.0 : *std::max_element(hops.begin(),
                                                        hops.end());
  out.latency_p50_ms = Percentile(std::move(latency_ms), 0.5);
  out.joules_per_query =
      (joules_after - joules_before) / static_cast<double>(rounds);
  out.grid_cells = static_cast<double>(city.medium().occupied_cells());
  out.mean_cell_occupancy = city.medium().mean_cell_occupancy();
  out.cell_size_m = city.medium().cell_size_m();
  out.position_updates = static_cast<double>(updates());
  const std::uint64_t sweep_updates = updates() - updates_before;
  out.ns_per_update =
      sweep_updates > 0
          ? out.sweep_ms * 1e6 / static_cast<double>(sweep_updates)
          : 0.0;
  return out;
}

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

std::string SizeLabel(std::size_t nodes) {
  if (nodes % 1000 == 0) return std::to_string(nodes / 1000) + "k nodes";
  return std::to_string(nodes) + " nodes";
}

int Run(const std::vector<std::size_t>& sizes, std::size_t rounds,
        int num_hops, bool gate, const std::string& out_path,
        const std::string& trace_path) {
  if (!trace_path.empty()) {
    if (!COBS_ON()) {
      std::fprintf(stderr,
                   "--trace-out ignored: observability is compiled out or "
                   "disabled\n");
    } else {
      obs::RecorderConfig rec;
      rec.capacity = 4096;
      rec.prefixes = {"sm_", "radio_", "recorder_"};
      obs::Observability::recorder().Configure(std::move(rec));
    }
  }

  std::vector<SizeResult> results;
  for (const std::size_t nodes : sizes) {
    std::printf("building %zu-phone city...\n", nodes);
    results.push_back(RunSize(nodes, rounds, num_hops, /*seed=*/20260808,
                              /*record=*/!trace_path.empty()));
    const SizeResult& r = results.back();
    std::printf(
        "  done: success %.0f%%, hops p50 %.0f, grid speedup x%.1f "
        "(build %.0f ms, sweep %.0f ms, %.0f ns/update)\n",
        r.success_rate * 100.0, r.hops_p50, r.neighbor_speedup_p50,
        r.build_ms, r.sweep_ms, r.ns_per_update);
  }

  std::vector<bench::Row> finder_rows;
  std::vector<bench::Row> neighbor_rows;
  for (const SizeResult& r : results) {
    finder_rows.push_back(bench::Row{
        SizeLabel(r.nodes),
        Fmt("%.0f%%", r.success_rate * 100.0) + " success, hops p50 " +
            Fmt("%.0f", r.hops_p50) + ", " +
            Fmt("%.0f ms", r.latency_p50_ms) + ", " +
            Fmt("%.2f J/query", r.joules_per_query),
        "-",
        std::to_string(r.rounds) + " finders, hop budget " +
            std::to_string(num_hops)});
    neighbor_rows.push_back(bench::Row{
        SizeLabel(r.nodes),
        Fmt("%.2f us grid", r.neighbor_grid_p50_us) + " vs " +
            Fmt("%.2f us linear", r.neighbor_linear_p50_us),
        "-", "speedup x" + Fmt("%.1f", r.neighbor_speedup_p50)});
  }
  bench::PrintTable("SM-FINDER at city scale (RandomWaypoint mobility)",
                    "outcome", finder_rows);
  bench::PrintTable("NodesWithin p50 at WiFi range, grid vs linear oracle",
                    "latency", neighbor_rows);

  if (!out_path.empty()) {
    bench::JsonObject json;
    json.Set("bench", std::string("city_scale"));
    json.Set("cores",
             static_cast<double>(std::thread::hardware_concurrency()));
    json.Set("build_type", std::string(CONTORY_BUILD_TYPE));
    json.Set("seed", 20260808.0);
    json.Set("rounds_per_size", static_cast<double>(rounds));
    json.Set("num_hops", static_cast<double>(num_hops));
    for (const SizeResult& r : results) {
      const std::string p = "n" + std::to_string(r.nodes) + "_";
      json.Set(p + "success_rate", r.success_rate);
      json.Set(p + "reply_rate", r.reply_rate);
      json.Set(p + "hops_p50", r.hops_p50);
      json.Set(p + "hops_max", r.hops_max);
      json.Set(p + "latency_p50_ms", r.latency_p50_ms);
      json.Set(p + "joules_per_query", r.joules_per_query);
      json.Set(p + "neighbor_grid_p50_us", r.neighbor_grid_p50_us);
      json.Set(p + "neighbor_linear_p50_us", r.neighbor_linear_p50_us);
      json.Set(p + "neighbor_speedup_p50", r.neighbor_speedup_p50);
      json.Set(p + "grid_cells", r.grid_cells);
      json.Set(p + "mean_cell_occupancy", r.mean_cell_occupancy);
      json.Set(p + "cell_size_m", r.cell_size_m);
      json.Set(p + "position_updates", r.position_updates);
      json.Set(p + "build_ms", r.build_ms);
      json.Set(p + "sweep_ms", r.sweep_ms);
      json.Set(p + "ns_per_update", r.ns_per_update);
    }
    for (const SizeResult& r : results) {
      if (r.nodes == 10000) {
        json.Set("grid_speedup_p50_10k", r.neighbor_speedup_p50);
      }
    }
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", json.ToString().c_str());
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }

  if (gate) {
    for (const SizeResult& r : results) {
      if (r.nodes < 10000) continue;
      if (r.neighbor_speedup_p50 < 10.0) {
        std::fprintf(stderr,
                     "GATE FAILED: grid speedup x%.1f at %zu nodes "
                     "(>= x10 required)\n",
                     r.neighbor_speedup_p50, r.nodes);
        return 1;
      }
      std::printf("gate ok: grid speedup x%.1f at %zu nodes (>= x10)\n",
                  r.neighbor_speedup_p50, r.nodes);
    }
  }

  if (!trace_path.empty() && COBS_ON()) {
    if (obs::ExportChromeTrace(trace_path)) {
      std::printf("wrote %s (load at ui.perfetto.dev)\n",
                  trace_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<std::size_t> sizes;
  std::size_t rounds = 0;
  int num_hops = 10;
  std::string out_path;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      trace_path = arg + 12;
    } else if (std::strncmp(arg, "--nodes=", 8) == 0) {
      std::string list = arg + 8;
      for (std::size_t pos = 0; pos < list.size();) {
        const std::size_t comma = list.find(',', pos);
        const std::string tok =
            list.substr(pos, comma == std::string::npos ? comma
                                                        : comma - pos);
        if (!tok.empty()) sizes.push_back(std::stoul(tok));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (std::strncmp(arg, "--rounds=", 9) == 0) {
      rounds = std::stoul(arg + 9);
    } else if (std::strncmp(arg, "--hops=", 7) == 0) {
      num_hops = std::stoi(arg + 7);
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else {
      std::fprintf(stderr,
                   "usage: city_scale [--smoke] [--nodes=a,b,c] "
                   "[--rounds=N] [--hops=N] [--out=FILE] "
                   "[--trace-out=FILE]\n");
      return 2;
    }
  }
  if (sizes.empty()) {
    sizes = smoke ? std::vector<std::size_t>{2000}
                  : std::vector<std::size_t>{1000, 10000, 100000};
  }
  if (rounds == 0) rounds = smoke ? 3 : 20;
  // The smoke run is a liveness check, not a perf measurement: skip the
  // >= 10x gate (1-core CI noise) unless the caller swept a 10k+ size
  // explicitly in a full run.
  return Run(sizes, rounds, num_hops, /*gate=*/!smoke, out_path,
             trace_path);
}
