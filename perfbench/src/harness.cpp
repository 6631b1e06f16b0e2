#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {
namespace {

/// Layers the spans are charged to; each gets a `<layer>.host_share`.
constexpr const char* kSpanLayers[] = {
    "core.query", "core.pipeline", "core.facade", "core.router",
    "sim",        "sim.mobility",  "sm",          "harness",
};

constexpr std::size_t kMaxViolationMessages = 8;

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      const double kib = std::strtod(line.c_str() + 6, nullptr);
      return kib * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

const std::vector<MetricDef>& EndToEndCatalog() {
  static const std::vector<MetricDef> catalog = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"throughput_per_s", "1/s"},
      {"op_p1_us", "us"},
  };
  return catalog;
}

const std::vector<MetricDef>& PerLayerCatalog() {
  static const std::vector<MetricDef> catalog = {
      {"core.query.parse_us_p50", "us"},
      {"core.query.host_share", "share"},
      {"core.pipeline.submit_us_p50", "us"},
      {"core.pipeline.submit_us_p99", "us"},
      {"core.pipeline.cancel_us_p50", "us"},
      {"core.pipeline.cancel_us_p99", "us"},
      {"core.pipeline.live_queries", "count"},
      {"core.pipeline.admitted", "count"},
      {"core.pipeline.completed", "count"},
      {"core.pipeline.refused", "count"},
      {"core.pipeline.host_share", "share"},
      {"core.facade.providers_created", "count"},
      {"core.facade.queries_per_provider", "ratio"},
      {"core.facade.host_share", "share"},
      {"core.router.items_routed", "count"},
      {"core.router.items_per_event", "ratio"},
      {"core.router.host_share", "share"},
      {"sim.events", "count"},
      {"sim.step_us_p50", "us"},
      {"sim.step_us_p99", "us"},
      {"sim.pending_peak", "count"},
      {"sim.avg_power_mw", "mW"},
      {"sim.host_share", "share"},
      {"sim.mobility.tick_ms_p50", "ms"},
      {"sim.mobility.position_updates", "count"},
      {"sim.mobility.ns_per_update", "ns"},
      {"sim.mobility.host_share", "share"},
      {"net.medium.nodes_within_us_p50", "us"},
      {"net.medium.neighbor_queries", "count"},
      {"net.medium.occupied_cells", "count"},
      {"net.medium.mean_cell_occupancy", "count"},
      {"net.wifi.frames", "count"},
      {"sm.next_hop_us_p50", "us"},
      {"sm.finder_launch_us_p50", "us"},
      {"sm.migrations", "count"},
      {"sm.admission_rejects", "count"},
      {"sm.hops_per_finder", "count"},
      {"sm.items_per_finder", "count"},
      {"sm.finder_success_rate", "ratio"},
      {"sm.finder_latency_p50_ms", "ms"},
      {"sm.host_share", "share"},
      {"obs.open_spans", "count"},
      {"obs.double_closes", "count"},
      {"obs.tracing_overhead_pct", "%"},
      {"harness.host_share", "share"},
  };
  return catalog;
}

MetricSet::MetricSet(const std::vector<MetricDef>& catalog)
    : catalog_(&catalog) {
  for (const MetricDef& def : catalog) values_[def.name] = MetricValue{};
}

void MetricSet::Set(const std::string& name, double value,
                    std::uint64_t samples) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::logic_error("metric '" + name + "' is not in the catalog");
  }
  it->second = MetricValue{value, samples};
}

const MetricValue& MetricSet::Get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::logic_error("metric '" + name + "' is not in the catalog");
  }
  return it->second;
}

Outcome::Outcome()
    : end_to_end(EndToEndCatalog()), per_layer(PerLayerCatalog()) {}

void Outcome::Check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (violations.size() < kMaxViolationMessages) violations.push_back(what);
}

void Outcome::CountOps(std::uint64_t n, std::uint64_t failed_n,
                       const std::string& what) {
  attempted += n;
  failed += failed_n;
  if (failed_n > 0 && violations.size() < kMaxViolationMessages) {
    violations.push_back(std::to_string(failed_n) + " of " +
                         std::to_string(n) + " " + what);
  }
}

void SpanRecorder::Begin(const char* name, const char* layer) {
  stack_.push_back(Open{name, layer, NowNs(), 0});
}

std::int64_t SpanRecorder::End() {
  return End(stack_.back().name, stack_.back().layer);
}

std::int64_t SpanRecorder::End(const char* name, const char* layer) {
  const std::int64_t end = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - open.start_ns;
  const std::int64_t self = dur - open.child_ns;
  self_ns_[layer] += static_cast<double>(self);
  if (stack_.empty()) {
    root_ns_ += static_cast<double>(dur);
  } else {
    stack_.back().child_ns += dur;
  }
  ++recorded_;
  if (kept_.size() < keep_ || stack_.empty()) {
    kept_.push_back(Kept{name, layer, open.start_ns, dur, self});
  }
  return dur;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path,
                                    const std::string& other_data) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Spans are kept in end order; the earliest start is the trace origin.
  std::int64_t first = kept_.empty() ? 0 : kept_.front().start_ns;
  for (const Kept& k : kept_) first = std::min(first, k.start_ns);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"otherData\":%s,",
               other_data.c_str());
  std::fprintf(f,
               "\"traceEvents\":[{\"name\":\"thread_name\",\"ph\":\"M\","
               "\"pid\":1,\"tid\":1,\"args\":{\"name\":\"simulation "
               "thread (host time)\"}}");
  for (const Kept& k : kept_) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"self_us\":%.3f}}",
                 k.name, k.layer,
                 static_cast<double>(k.start_ns - first) / 1e3,
                 static_cast<double>(k.dur_ns) / 1e3,
                 static_cast<double>(k.self_ns) / 1e3);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void SetHostShares(const SpanRecorder& spans, MetricSet& layer) {
  const double root = spans.root_ns();
  for (const char* name : kSpanLayers) {
    const auto it = spans.self_ns().find(name);
    const double self = it == spans.self_ns().end() ? 0.0 : it->second;
    layer.Set(std::string(name) + ".host_share",
              root > 0.0 ? self / root : 0.0, spans.recorded());
  }
}

void Windows::Add(double op_us) {
  ++current_;
  all_.push_back(op_us);
  if (current_ < window_ops_) return;
  const std::int64_t now = NowNs();
  rates_.push_back(static_cast<double>(current_) /
                   (static_cast<double>(now - start_ns_) / 1e9));
  current_ = 0;
  start_ns_ = now;
}

void Windows::SetEndToEnd(const char* op_name, Outcome& out) const {
  MetricSet& e2e = out.end_to_end;
  e2e.Set("throughput_per_s", FastRate(), rates_.size());
  e2e.Set("op_p1_us", Percentile(all_, 0.01), all_.size());
  char note[320];
  std::snprintf(note, sizeof note,
                "op = %s; %zu ops in %zu windows of %zu; whole run: %.6g "
                "ops/s; window rate p10 %.6g, p50 %.6g; op p50 %.6g us, "
                "p99 %.6g us",
                op_name, all_.size(), rates_.size(), window_ops_,
                static_cast<double>(all_.size()) /
                    (static_cast<double>(NowNs() - first_ns_) / 1e9),
                Percentile(rates_, 0.10), Percentile(rates_, 0.50),
                Percentile(all_, 0.50), Percentile(all_, 0.99));
  out.notes.push_back(note);
}

double OverheadPct(const Windows& untraced, const Windows& traced) {
  const double fast = untraced.FastRate();
  const double slow = traced.FastRate();
  return fast > 0.0 && slow > 0.0 ? (fast / slow - 1.0) * 100.0 : 0.0;
}

void SetSetupTime(const std::vector<double>& setup_s, Outcome& out) {
  out.end_to_end.Set("setup_s", Percentile(setup_s, 0.5), setup_s.size());
  std::string note = "set-up runs (s):";
  for (const double s : setup_s) {
    note += ' ';
    note += std::to_string(s);
  }
  out.notes.push_back(note);
}

void SetPercentile(MetricSet& set, const std::string& name,
                   const std::vector<double>& samples, double q) {
  set.Set(name, Percentile(samples, q), samples.size());
}

}  // namespace perfbench
