// Query-table scaling bench: submit/cancel latency vs. active query count.
//
// The ROADMAP's production-scale target means millions of concurrent
// queries per ContextFactory. This bench grows one factory through
// 10k -> 100k -> 1M live queries (each with a distinct SELECT type, so no
// two merge and every query owns a facade cluster) and measures the
// wall-clock latency of ProcessCxtQuery and CancelCxtQuery at each
// population milestone; with the id-keyed table and the indexed facades
// both stay flat. --out=FILE writes the whole trajectory as one JSON
// object (see BENCH_scale.json at the repo root; `cores` records the
// machine the numbers came from).
//
// --smoke shrinks the sweep to a seconds-scale sanity pass wired into
// ctest, so the binary cannot silently rot.
//
// --obs=on|off|both selects whether the observability hooks (root span,
// admission counters, delivery metrics) are live during the sweep; the
// submit path is the hot path they instrument, so this is the overhead
// harness for docs/OBSERVABILITY.md. "both" runs the 10k sweep twice and
// reports the relative submit-latency overhead at the 10k milestone
// (budget: <= 5%). --out=FILE then writes the comparison instead (see
// BENCH_obs.json at the repo root), with the interquartile range of the
// per-rep overheads, `cores` and the build type beside it.
//
// --overload switches to the overload-protection sweep: a 10x offered-
// load spike against an OverloadGovernor-gated factory, reporting
// per-class submit p50/p99 and shed rates per phase plus the graceful-
// degradation gates (see RunOverloadMode below and docs/ADMISSION.md;
// BENCH_overload.json at the repo root holds a reference run).
// --submits=N scales the sweep; the CONTORY_STRESS CMake toggle uses it
// to grow the ctest smoke from 1k to 100k submits.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/contory.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/observability.hpp"
#include "testbed/testbed.hpp"

using namespace contory;
using namespace std::chrono_literals;

namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

struct OpStats {
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

OpStats Summarize(std::vector<double> samples) {
  OpStats s;
  if (samples.empty()) return s;
  double sum = 0.0;
  for (const double v : samples) sum += v;
  s.mean_us = sum / static_cast<double>(samples.size());
  std::sort(samples.begin(), samples.end());
  s.p50_us = samples[samples.size() / 2];
  s.p99_us = samples[std::min(samples.size() - 1,
                              (samples.size() * 99) / 100)];
  return s;
}

query::CxtQuery MakeQuery(sim::Simulation& sim, std::size_t n) {
  // Distinct SELECT types so every query lands in its own cluster.
  auto q = query::QueryBuilder("scale-type-" + std::to_string(n))
               .FromAdHoc(1, 1)
               .For(std::chrono::hours{1})
               .Every(60s)
               .Build();
  q.id = sim.ids().NextId("q");
  return q;
}

testbed::DeviceOptions ScaleDeviceOptions() {
  testbed::DeviceOptions opts;
  opts.name = "phone-scale";
  opts.with_cellular = false;  // adHoc facade only: isolates cluster lookup
  return opts;
}

struct Milestone {
  std::size_t active = 0;
  OpStats submit;
  OpStats cancel;
};

struct SweepResult {
  std::vector<bench::JsonObject> json;
  std::vector<Milestone> milestones;
  /// Submit p50 at the largest milestone — the overhead comparison point
  /// (the median is robust against scheduler outliers; the mean swings
  /// tens of percent between identical runs).
  double submit_p50_final_us = 0.0;
};

SweepResult RunSweep(bool obs_on, const std::vector<std::size_t>& milestones) {
  obs::Observability::ResetForTest();
  obs::Observability::Enable(obs_on);

  testbed::World world{4242};
  auto& device = world.AddDevice(ScaleDeviceOptions());
  core::CollectingClient client;

  constexpr std::size_t kTimedWindow = 2'000;  // ops timed at each milestone
  constexpr std::size_t kCancelSample = 250;

  std::vector<std::string> ids;
  ids.reserve(milestones.back());
  std::vector<bench::Row> rows;
  SweepResult result;
  Rng sample_rng{7};

  std::size_t submitted = 0;
  for (const std::size_t target : milestones) {
    // Grow to the milestone, timing the last kTimedWindow submissions.
    std::vector<double> submit_us;
    while (submitted < target) {
      auto q = MakeQuery(world.sim(), submitted);
      const bool timed = submitted + kTimedWindow >= target;
      const auto start = Clock::now();
      const auto id = device.contory().ProcessCxtQuery(std::move(q), client);
      if (timed) submit_us.push_back(MicrosSince(start));
      if (!id.ok()) {
        std::fprintf(stderr, "submit failed at %zu: %s\n", submitted,
                     id.status().ToString().c_str());
        std::exit(1);
      }
      ids.push_back(*id);
      ++submitted;
    }

    // Cancel a deterministic sample spread across the whole population
    // (early ids are the linear scan's worst case), then resubmit to
    // restore the population.
    std::vector<double> cancel_us;
    for (std::size_t i = 0; i < kCancelSample; ++i) {
      const std::size_t victim = static_cast<std::size_t>(
          sample_rng.UniformInt(0, static_cast<std::int64_t>(ids.size()) - 1));
      const auto start = Clock::now();
      device.contory().CancelCxtQuery(ids[victim]);
      cancel_us.push_back(MicrosSince(start));
      auto q = MakeQuery(world.sim(), submitted + i);
      const auto id = device.contory().ProcessCxtQuery(std::move(q), client);
      if (id.ok()) ids[victim] = *id;
    }

    const OpStats sub = Summarize(std::move(submit_us));
    const OpStats can = Summarize(std::move(cancel_us));
    result.submit_p50_final_us = sub.p50_us;
    result.milestones.push_back({target, sub, can});
    char label[48];
    std::snprintf(label, sizeof label, "%7zu active", target);
    char measured[96];
    std::snprintf(measured, sizeof measured,
                  "submit %.1f us (p50 %.1f), cancel %.1f us (p50 %.1f)",
                  sub.mean_us, sub.p50_us, can.mean_us, can.p50_us);
    rows.push_back({label, measured, "n/a (extension)", ""});

    bench::JsonObject obj;
    obj.Set("active_queries", static_cast<double>(target))
        .Set("obs", obs_on ? "on" : "off")
        .Set("submit_mean_us", sub.mean_us)
        .Set("submit_p50_us", sub.p50_us)
        .Set("submit_p99_us", sub.p99_us)
        .Set("cancel_mean_us", can.mean_us)
        .Set("cancel_p50_us", can.p50_us)
        .Set("cancel_p99_us", can.p99_us);
    result.json.push_back(obj);
  }

  char title[96];
  std::snprintf(title, sizeof title,
                "Per-op latency vs. active query count (obs %s)",
                obs_on ? "on" : "off");
  bench::PrintTable(title, "latency", rows);
  return result;
}

int RunScaleMode(bool smoke, std::size_t max_active,
                 const std::string& out_path) {
  std::vector<std::size_t> milestones;
  if (smoke) {
    milestones = {1'000, 5'000};
  } else {
    for (const std::size_t m :
         {std::size_t{10'000}, std::size_t{100'000}, std::size_t{1'000'000}}) {
      if (m <= max_active) milestones.push_back(m);
    }
    if (milestones.empty() || milestones.back() != max_active) {
      milestones.push_back(max_active);
    }
  }

  bench::PrintHeading(
      "Query scaling: submit/cancel latency vs. active query count");
  std::printf(
      "One factory grown to %zu concurrent single-cluster queries; per-op\n"
      "wall-clock latency sampled at each milestone.\n\n",
      milestones.back());

  const SweepResult sweep = RunSweep(/*obs_on=*/true, milestones);
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("\nJSON:\n%s", bench::ToJsonArray(sweep.json).c_str());

  const Milestone& first = sweep.milestones.front();
  const Milestone& last = sweep.milestones.back();
  const double growth = first.submit.p50_us > 0.0
                            ? last.submit.p50_us / first.submit.p50_us
                            : 0.0;
  std::printf(
      "\nSubmit p50: %.2f us at %zu -> %.2f us at %zu (x%.2f); %u core(s).\n",
      first.submit.p50_us, first.active, last.submit.p50_us, last.active,
      growth, cores);

  if (!out_path.empty()) {
    bench::JsonObject summary;
    summary.Set("bench", "scale_queries")
        .Set("cores", static_cast<double>(cores))
        .Set("max_active_queries", static_cast<double>(last.active))
        .Set("submit_p50_us_first_milestone", first.submit.p50_us)
        .Set("submit_p50_us_max", last.submit.p50_us)
        .Set("submit_p50_growth_ratio", growth)
        .Set("cancel_p50_us_max", last.cancel.p50_us)
        .Set("obs", COBS_ON() ? "on" : "off")
        .Set("build_type", std::string(CONTORY_BUILD_TYPE));
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", summary.ToString().c_str());
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }

  if (smoke) {
    // Sanity gates only — smoke runs on shared CI machines where absolute
    // numbers are meaningless, but a zero sample means the harness itself
    // broke.
    if (sweep.milestones.empty() || last.submit.p50_us <= 0.0) {
      std::fprintf(stderr, "SMOKE FAILED: empty sweep\n");
      return 1;
    }
    std::printf("SMOKE OK\n");
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Overload mode (--overload): graceful load shedding under a 10x spike.
//
// One factory with the OverloadGovernor's watermarks armed is driven
// through three phases on a frozen simulation clock (occupancy, not
// time, is the pressure axis):
//   1. baseline — N/10 single submits, below every watermark;
//   2. spike    — 6N/10 single submits, a 10x offered-load burst that
//                 crosses the background and then the standard watermark;
//   3. tail     — 3N/10 more single submits, still shedding.
// Every 5th query is interactive, two in five standard, two in five
// background; half the background queries reuse one of eight "warm"
// SELECT types seeded into the repository up front, so their sheds take
// the stale-answer fast path (degraded delivery) instead of a refusal.
// The gates at the end are the graceful-degradation contract: interactive
// is never shed and its p99 stays within 2x of the unloaded baseline,
// background sheds strictly before standard, admitted == completed +
// live, zero invalid transitions, zero leaked spans — plus the
// completion_log_dropped gauge the bounded completion log must have
// populated.

constexpr std::size_t kWarmTypes = 8;

query::QueryPriority ClassOf(std::size_t i) {
  switch (i % 5) {
    case 0: return query::QueryPriority::kInteractive;
    case 1:
    case 2: return query::QueryPriority::kStandard;
    default: return query::QueryPriority::kBackground;
  }
}

query::CxtQuery MakeOverloadQuery(sim::Simulation& sim, std::size_t i) {
  const query::QueryPriority cls = ClassOf(i);
  // i % 10 in {3, 8}: half the background share (i % 5 in {3, 4}).
  const bool warm = i % 10 == 3 || i % 10 == 8;
  auto builder = query::QueryBuilder(
      warm ? "warm-" + std::to_string(i % kWarmTypes)
           : "load-type-" + std::to_string(i));
  builder.FromAdHoc(1, 1).For(std::chrono::hours{1}).Priority(cls);
  // Warm queries are on-demand: their stale fast path delivers one item
  // and finishes, feeding the bounded completion log.
  if (!warm) builder.Every(60s);
  auto q = builder.Build();
  q.id = sim.ids().NextId("q");
  return q;
}

struct ClassCounts {
  std::size_t admitted = 0;
  std::size_t shed = 0;   // refused with OVERLOADED
  std::size_t stale = 0;  // shed, but admitted on the stale fast path
  std::vector<double> lat_us;  // wall latency of every submit call
};

struct OverloadPhase {
  const char* name = "";
  ClassCounts cls[3];
};

const char* ClassName(std::size_t c) {
  return query::QueryPriorityName(static_cast<query::QueryPriority>(c));
}

/// Flight-recorder cadence in --overload: the sim clock is frozen, so
/// "time" is submit count — one frame per 200 submits keeps the shed /
/// occupancy curves dense without recorder cost showing in the latencies.
constexpr std::size_t kRecorderStride = 200;

void SubmitSingles(core::ContextFactory& factory,
                   core::CollectingClient& client, sim::Simulation& sim,
                   std::size_t begin, std::size_t count, OverloadPhase& phase,
                   std::vector<std::string>& ids, std::size_t* first_shed,
                   std::size_t* order, bool record) {
  for (std::size_t k = 0; k < count; ++k) {
    if (record && (k + 1) % kRecorderStride == 0) {
      COBS(obs::Observability::recorder().Sample(sim.Now()));
    }
    const std::size_t i = begin + k;
    auto q = MakeOverloadQuery(sim, i);
    const auto c = static_cast<std::size_t>(q.priority);
    const std::uint64_t degraded = factory.degraded_deliveries();
    const auto start = Clock::now();
    const auto id = factory.ProcessCxtQuery(std::move(q), client);
    phase.cls[c].lat_us.push_back(MicrosSince(start));
    if (id.ok()) {
      ++phase.cls[c].admitted;
      ids.push_back(*id);
      // The stale fast path answers a shed query from the repository
      // inside the submit call.
      if (factory.degraded_deliveries() != degraded) ++phase.cls[c].stale;
    } else if (id.status().code() == StatusCode::kOverloaded) {
      ++phase.cls[c].shed;
      if (first_shed[c] == SIZE_MAX) first_shed[c] = *order;
    } else {
      std::fprintf(stderr, "unexpected submit failure at %zu: %s\n", i,
                   id.status().ToString().c_str());
      std::exit(1);
    }
    ++*order;
  }
}

int RunOverloadMode(bool smoke, std::size_t submits,
                    const std::string& out_path, bool record) {
  obs::Observability::ResetForTest();
  obs::Observability::Enable(true);
  if (record && COBS_ON()) {
    obs::RecorderConfig rec;
    rec.capacity = 4096;
    rec.prefixes = {"admission_", "completion_log", "queries_",
                    "recorder_"};
    obs::Observability::recorder().Configure(std::move(rec));
  }

  const std::size_t n = submits != 0 ? submits : (smoke ? 1'000 : 30'000);
  const std::size_t baseline_n = std::max<std::size_t>(n / 10, 50);
  const std::size_t spike_n = baseline_n * 6;
  const std::size_t tail_n = baseline_n * 3;
  // Background sheds early in the spike; standard only once the spike has
  // pushed occupancy past half its span. Interactive has no watermark.
  const std::size_t high_wm = baseline_n + spike_n / 10;
  const std::size_t standard_wm = baseline_n + spike_n / 2;

  bench::PrintHeading("Overload protection: graceful shedding under spike");
  std::printf(
      "Admission gated by the OverloadGovernor (high watermark %zu,\n"
      "standard watermark %zu). Baseline %zu submits, spike %zu (10x\n"
      "offered load), then a tail of %zu; class mix 1:2:2\n"
      "interactive:standard:background, half the background warm.\n\n",
      high_wm, standard_wm, baseline_n, spike_n, tail_n);

  testbed::DeviceOptions opts;
  opts.name = "phone-overload";
  opts.with_cellular = false;
  // Warm SELECT types repeat across queries; merging would collapse them.
  opts.factory_config.enable_query_merging = false;
  // Small bound so the drop path is exercised even in smoke runs.
  opts.factory_config.completion_log_capacity = 64;
  opts.factory_config.overload.shed_high_watermark = high_wm;
  opts.factory_config.overload.shed_standard_watermark = standard_wm;

  OverloadPhase baseline;
  baseline.name = "baseline";
  OverloadPhase spike;
  spike.name = "spike-10x";
  OverloadPhase tail;
  tail.name = "tail";
  std::size_t first_shed[3] = {SIZE_MAX, SIZE_MAX, SIZE_MAX};
  std::uint64_t total_admitted = 0;
  std::uint64_t total_completed = 0;
  std::uint64_t invalid_transitions = 0;
  std::uint64_t degraded = 0;
  std::uint64_t stale_fastpath = 0;
  std::uint64_t shed_counter[3] = {0, 0, 0};
  std::size_t live = 0;
  double log_dropped = 0.0;
  {
    testbed::World world{777};
    auto& device = world.AddDevice(opts);
    auto& factory = device.contory();
    auto& sim = world.sim();
    core::CollectingClient client;

    for (std::size_t k = 0; k < kWarmTypes; ++k) {
      CxtItem item;
      item.id = "seed-" + std::to_string(k);
      item.type = "warm-" + std::to_string(k);
      item.value = CxtValue(20.0 + static_cast<double>(k));
      item.timestamp = sim.Now();
      item.source = {SourceKind::kIntSensor, "bench-seed"};
      factory.repository().Store(std::move(item));
    }

    std::vector<std::string> ids;
    ids.reserve(n);
    std::size_t order = 0;
    SubmitSingles(factory, client, sim, 0, baseline_n, baseline, ids,
                  first_shed, &order, record);
    SubmitSingles(factory, client, sim, baseline_n, spike_n, spike, ids,
                  first_shed, &order, record);

    SubmitSingles(factory, client, sim, baseline_n + spike_n, tail_n, tail,
                  ids, first_shed, &order, record);
    if (record) {
      COBS(obs::Observability::recorder().Sample(sim.Now()));
    }

    // Lifecycle accounting snapshot, before draining.
    auto& table = factory.queries();
    total_admitted = table.total_admitted();
    total_completed = table.total_completed();
    live = table.active_count();
    invalid_transitions = table.invalid_transitions();
    degraded = factory.degraded_deliveries();

    // From the bench's own phase counts and public accessors, so the
    // gates hold with observability compiled out too.
    log_dropped = static_cast<double>(table.completions_dropped());
    for (const OverloadPhase* phase : {&baseline, &spike, &tail}) {
      for (std::size_t c = 0; c < 3; ++c) {
        shed_counter[c] += phase->cls[c].shed + phase->cls[c].stale;
        stale_fastpath += phase->cls[c].stale;
      }
    }

    // Drain: cancel everything still live so every span must close.
    for (const auto& id : ids) factory.CancelCxtQuery(id);
  }
  const std::size_t open_spans = obs::Observability::tracer().open_count();
  const std::size_t double_closes =
      obs::Observability::tracer().double_closes();

  std::vector<bench::Row> rows;
  std::vector<bench::JsonObject> json;
  OpStats stats[3][3];  // [phase][class]
  const OverloadPhase* phases[3] = {&baseline, &spike, &tail};
  for (std::size_t p = 0; p < 3; ++p) {
    for (std::size_t c = 0; c < 3; ++c) {
      const ClassCounts& counts = phases[p]->cls[c];
      const std::size_t offered = counts.admitted + counts.shed;
      const double shed_pct =
          offered > 0 ? 100.0 * static_cast<double>(counts.shed) /
                            static_cast<double>(offered)
                      : 0.0;
      stats[p][c] = Summarize(counts.lat_us);
      char label[48];
      std::snprintf(label, sizeof label, "%-9s %s", phases[p]->name,
                    ClassName(c));
      char measured[96];
      std::snprintf(measured, sizeof measured,
                    "p50 %.1f us p99 %.1f us, shed %zu/%zu (%.0f%%)",
                    stats[p][c].p50_us, stats[p][c].p99_us, counts.shed,
                    offered, shed_pct);
      rows.push_back({label, measured, "n/a (extension)", ""});

      bench::JsonObject obj;
      obj.Set("phase", phases[p]->name)
          .Set("class", ClassName(c))
          .Set("offered", static_cast<double>(offered))
          .Set("admitted", static_cast<double>(counts.admitted))
          .Set("shed", static_cast<double>(counts.shed))
          .Set("shed_pct", shed_pct);
      if (!counts.lat_us.empty()) {
        obj.Set("submit_p50_us", stats[p][c].p50_us)
            .Set("submit_p99_us", stats[p][c].p99_us);
      }
      json.push_back(obj);
    }
  }
  bench::PrintTable("Per-class submit latency and shed rate by phase",
                    "latency / shed", rows);
  std::printf("\nJSON:\n%s", bench::ToJsonArray(json).c_str());

  const double p99_ratio =
      stats[0][0].p99_us > 0.0 ? stats[1][0].p99_us / stats[0][0].p99_us
                               : 0.0;
  const std::uint64_t live64 = static_cast<std::uint64_t>(live);
  std::printf(
      "\nInteractive p99: %.2f us baseline -> %.2f us spike (x%.2f, "
      "budget 2x)\n"
      "Accounting: admitted %llu = completed %llu + live %llu; "
      "invalid transitions %llu\n"
      "Shed counters i/s/b: %llu/%llu/%llu; stale fast path %llu; "
      "degraded deliveries %llu\n"
      "Gauges: completion_log_dropped %.0f; open spans %zu, double closes "
      "%zu\n",
      stats[0][0].p99_us, stats[1][0].p99_us, p99_ratio,
      static_cast<unsigned long long>(total_admitted),
      static_cast<unsigned long long>(total_completed),
      static_cast<unsigned long long>(live64),
      static_cast<unsigned long long>(invalid_transitions),
      static_cast<unsigned long long>(shed_counter[0]),
      static_cast<unsigned long long>(shed_counter[1]),
      static_cast<unsigned long long>(shed_counter[2]),
      static_cast<unsigned long long>(stale_fastpath),
      static_cast<unsigned long long>(degraded), log_dropped, open_spans,
      double_closes);

  if (!out_path.empty()) {
    bench::JsonObject summary;
    summary.Set("bench", "scale_queries_overload")
        .Set("cores", static_cast<double>(std::thread::hardware_concurrency()))
        .Set("submits_total",
             static_cast<double>(baseline_n + spike_n + tail_n))
        .Set("high_watermark", static_cast<double>(high_wm))
        .Set("standard_watermark", static_cast<double>(standard_wm))
        .Set("interactive_p99_us_baseline", stats[0][0].p99_us)
        .Set("interactive_p99_us_spike", stats[1][0].p99_us)
        .Set("interactive_p99_spike_over_baseline", p99_ratio)
        .Set("interactive_shed",
             static_cast<double>(shed_counter[0]))
        .Set("standard_shed", static_cast<double>(shed_counter[1]))
        .Set("background_shed", static_cast<double>(shed_counter[2]))
        .Set("stale_fastpath_total", static_cast<double>(stale_fastpath))
        .Set("degraded_deliveries", static_cast<double>(degraded))
        .Set("admitted", static_cast<double>(total_admitted))
        .Set("completed_plus_live",
             static_cast<double>(total_completed + live64))
        .Set("invalid_transitions",
             static_cast<double>(invalid_transitions))
        .Set("completion_log_dropped", log_dropped)
        .Set("open_spans", static_cast<double>(open_spans));
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", summary.ToString().c_str());
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }

  // Graceful-degradation gates. Latency is wall-clock and shared CI
  // machines are noisy, so the 2x interactive budget is informational in
  // smoke runs and enforced in full runs; the structural gates always
  // hold or the governor is broken.
  bool ok = true;
  const auto gate = [&ok](bool pass, const char* what) {
    if (!pass) {
      std::fprintf(stderr, "OVERLOAD GATE FAILED: %s\n", what);
      ok = false;
    }
  };
  gate(shed_counter[0] == 0, "interactive must never shed");
  gate(shed_counter[2] > 0, "background must shed under spike");
  gate(shed_counter[1] > 0, "standard must shed past its watermark");
  gate(first_shed[2] < first_shed[1],
       "background must shed before standard");
  gate(stale_fastpath > 0, "warm sheds must take the stale fast path");
  gate(degraded > 0, "stale fast path must deliver");
  gate(total_admitted == total_completed + live64,
       "admitted != completed + live");
  gate(invalid_transitions == 0, "invalid lifecycle transitions");
  gate(log_dropped > 0.0, "bounded completion log never dropped");
  gate(open_spans == 0 && double_closes == 0, "leaked or double-closed spans");
  if (!smoke) {
    gate(p99_ratio <= 2.0, "interactive p99 exceeded 2x baseline");
  } else if (p99_ratio > 2.0) {
    std::printf("note: interactive p99 ratio %.2f > 2 (not gated in smoke)\n",
                p99_ratio);
  }
  if (smoke) std::printf(ok ? "SMOKE OK\n" : "SMOKE FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string obs_mode = "scale";
  std::string out_path;
  std::string trace_path;
  bool smoke = false;
  bool overload = false;
  std::size_t submits = 0;
  std::size_t max_active = 1'000'000;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--obs=", 6) == 0) {
      obs_mode = arg + 6;
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      trace_path = arg + 12;
    } else if (std::strncmp(arg, "--max=", 6) == 0) {
      max_active = static_cast<std::size_t>(std::strtoull(arg + 6, nullptr, 10));
    } else if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(arg, "--overload") == 0) {
      overload = true;
    } else if (std::strncmp(arg, "--submits=", 10) == 0) {
      submits = static_cast<std::size_t>(std::strtoull(arg + 10, nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: scale_queries [--obs=on|off|both] [--out=FILE]\n"
                   "                     [--trace-out=FILE]\n"
                   "                     [--max=N] [--smoke]\n"
                   "                     [--overload] [--submits=N]\n");
      return 2;
    }
  }
  // Exports whatever spans + recorder frames the selected mode left in
  // the singletons (each sweep resets them, so the *last* sweep's view).
  const auto finish = [&trace_path](int rc) {
    if (trace_path.empty()) return rc;
    if (!COBS_ON()) {
      std::fprintf(stderr,
                   "--trace-out ignored: observability is compiled out or "
                   "disabled\n");
      return rc;
    }
    if (obs::ExportChromeTrace(trace_path)) {
      std::printf("wrote %s (load at ui.perfetto.dev)\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      if (rc == 0) rc = 1;
    }
    return rc;
  };
  if (overload) {
    return finish(RunOverloadMode(smoke, submits, out_path,
                                  /*record=*/!trace_path.empty()));
  }
  if (obs_mode == "scale") {
    return finish(RunScaleMode(smoke, max_active, out_path));
  }
  if (obs_mode != "on" && obs_mode != "off" && obs_mode != "both") {
    std::fprintf(stderr, "unknown --obs mode '%s'\n", obs_mode.c_str());
    return 2;
  }

  // Observability-overhead mode: the 10k sweep, with the hooks toggled.
  const std::vector<std::size_t> obs_milestones{1'000, 2'500, 5'000, 10'000};
  bench::PrintHeading(
      "Query scaling: submit/cancel latency vs. active query count");
  std::printf(
      "One factory grown to 10k concurrent single-cluster queries; per-op\n"
      "wall-clock latency sampled at each population milestone.\n\n");

  std::vector<bench::JsonObject> json;
  double on_final_us = 0.0;
  double off_final_us = 0.0;
  double overhead_iqr_pct = 0.0;
  if (obs_mode == "both") {
    // Interleave repetitions per mode and compare the median of the
    // per-sweep medians: a single sweep's p50 still swings ~10% with
    // scheduler noise, and a min would reward whichever mode got lucky.
    // The order within each pair alternates so allocator/page warmup
    // doesn't systematically favor whichever mode runs second. Nine reps
    // (up from five) because the median of five still wobbled past the
    // 5% budget run-to-run on a loaded single-core host.
    constexpr int kReps = 9;
    std::vector<double> off_p50s;
    std::vector<double> on_p50s;
    std::vector<double> rep_overheads_pct;
    for (int rep = 0; rep < kReps; ++rep) {
      const bool on_first = (rep % 2) == 1;
      const SweepResult first = RunSweep(on_first, obs_milestones);
      const SweepResult second = RunSweep(!on_first, obs_milestones);
      const SweepResult& off = on_first ? second : first;
      const SweepResult& on = on_first ? first : second;
      off_p50s.push_back(off.submit_p50_final_us);
      on_p50s.push_back(on.submit_p50_final_us);
      rep_overheads_pct.push_back(
          (on.submit_p50_final_us - off.submit_p50_final_us) /
          off.submit_p50_final_us * 100.0);
      if (rep == kReps - 1) {
        json.insert(json.end(), off.json.begin(), off.json.end());
        json.insert(json.end(), on.json.begin(), on.json.end());
      }
    }
    std::sort(off_p50s.begin(), off_p50s.end());
    std::sort(on_p50s.begin(), on_p50s.end());
    std::sort(rep_overheads_pct.begin(), rep_overheads_pct.end());
    off_final_us = off_p50s[kReps / 2];
    on_final_us = on_p50s[kReps / 2];
    // How far the reps disagree: a median overhead smaller than this
    // spread is not resolved on the host it came from.
    overhead_iqr_pct =
        rep_overheads_pct[3 * kReps / 4] - rep_overheads_pct[kReps / 4];
  } else {
    const bool on = obs_mode == "on";
    const SweepResult r = RunSweep(on, obs_milestones);
    (on ? on_final_us : off_final_us) = r.submit_p50_final_us;
    json.insert(json.end(), r.json.begin(), r.json.end());
  }

  std::printf("\nJSON:\n%s", bench::ToJsonArray(json).c_str());

  if (obs_mode == "both") {
    const double overhead_pct =
        off_final_us > 0.0 ? (on_final_us - off_final_us) / off_final_us * 100.0
                           : 0.0;
    std::printf(
        "\nObservability overhead at 10k active queries: submit p50 "
        "%.2f us (on) vs %.2f us (off) = %+.2f%% (budget: <= 5%%); "
        "per-rep overhead IQR %.2f points\n",
        on_final_us, off_final_us, overhead_pct, overhead_iqr_pct);
    if (!out_path.empty()) {
      bench::JsonObject summary;
      summary.Set("bench", "scale_queries")
          .Set("milestone_active_queries", 10'000.0)
          .Set("submit_p50_us_obs_on", on_final_us)
          .Set("submit_p50_us_obs_off", off_final_us)
          .Set("submit_overhead_pct", overhead_pct)
          .Set("overhead_iqr_pct", overhead_iqr_pct)
          .Set("budget_pct", 5.0)
          .Set("cores",
               static_cast<double>(std::thread::hardware_concurrency()))
          .Set("build_type", std::string(CONTORY_BUILD_TYPE));
      std::FILE* f = std::fopen(out_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
      }
      std::fprintf(f, "%s\n", summary.ToString().c_str());
      std::fclose(f);
      std::printf("wrote %s\n", out_path.c_str());
    }
  }
  return finish(0);
}
