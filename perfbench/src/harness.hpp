// Shared plumbing of the repository benchmark: run configuration, metric
// catalogs and result sets, sample statistics, and the host-time span
// recorder with its Chrome-trace export.
//
// The spans are recorded by the benchmark around each call it makes into
// a module's public API; nothing inside src/ is instrumented. Spans nest
// through a stack, and every End() charges the span's self time (its
// duration minus the time of its child spans) to the span's layer, so the
// per-layer host-time shares come straight from the recorded spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct RunConfig {
  std::uint64_t seed = 1;
  /// Host seconds the timed phase measures.
  double seconds = 10.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
};

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample set.
[[nodiscard]] double Percentile(std::vector<double> samples, double q);

/// Peak resident set size of this process so far (VmHWM), in MB. One
/// process runs one workload, so this is that workload's peak.
[[nodiscard]] double PeakRssMb();

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric (untraced run) and every per-layer metric
/// (traced run), in print order. METRICS.md documents each one.
[[nodiscard]] const std::vector<MetricDef>& EndToEndCatalog();
[[nodiscard]] const std::vector<MetricDef>& PerLayerCatalog();

struct MetricValue {
  double value = 0.0;
  std::uint64_t samples = 0;
};

/// The values of one catalog, each starting at zero with no samples, so a
/// layer a workload bypasses reads as an explicit zero.
class MetricSet {
 public:
  explicit MetricSet(const std::vector<MetricDef>& catalog);

  /// Sets a catalog metric; an unknown name is a benchmark bug and throws.
  void Set(const std::string& name, double value, std::uint64_t samples);
  [[nodiscard]] const MetricValue& Get(const std::string& name) const;
  [[nodiscard]] const std::vector<MetricDef>& catalog() const noexcept {
    return *catalog_;
  }

 private:
  const std::vector<MetricDef>* catalog_;
  std::map<std::string, MetricValue> values_;
};

/// Result of one workload run.
struct Outcome {
  Outcome();

  MetricSet end_to_end;
  MetricSet per_layer;
  /// Operations attempted (plus every check made); `failed` counts the
  /// non-OK results where success was expected and the violated checks.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// First few violation messages, for the report.
  std::vector<std::string> violations;
  /// Extra report lines (secondary figures, exact simulated outputs).
  std::vector<std::string> notes;

  /// Counts one check; a false `ok` is a failure with message `what`.
  void Check(bool ok, const std::string& what);
  /// Counts `n` operations of which `failed_n` returned a non-OK result.
  void CountOps(std::uint64_t n, std::uint64_t failed_n,
                const std::string& what);
};

/// Host-time spans of one traced window (see the file comment).
class SpanRecorder {
 public:
  /// At most `keep` spans are kept for the Chrome trace; self time is
  /// accounted for every span regardless.
  explicit SpanRecorder(std::size_t keep = 100'000) : keep_(keep) {}

  void Begin(const char* name, const char* layer);
  /// Closes the innermost span; returns its duration in ns.
  std::int64_t End();
  /// Closes the innermost span under a name and layer chosen after the
  /// call it wrapped (a simulation step is classified by what it did).
  std::int64_t End(const char* name, const char* layer);

  /// Self time per layer, ns.
  [[nodiscard]] const std::map<std::string, double>& self_ns() const {
    return self_ns_;
  }
  /// Summed duration of the outermost spans, ns.
  [[nodiscard]] double root_ns() const noexcept { return root_ns_; }
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }

  /// Writes the kept spans as Chrome trace-event JSON (loadable in
  /// Perfetto); `other_data` is a JSON object stored as "otherData".
  bool WriteChromeTrace(const std::string& path,
                        const std::string& other_data) const;

 private:
  struct Open {
    const char* name;
    const char* layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  struct Kept {
    const char* name;
    const char* layer;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::int64_t self_ns;
  };

  std::size_t keep_;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  std::map<std::string, double> self_ns_;
  double root_ns_ = 0.0;
  std::uint64_t recorded_ = 0;
};

/// Fills `<layer>.host_share` for every catalog layer from the recorder.
void SetHostShares(const SpanRecorder& spans, MetricSet& layer);

/// A closed loop's operations, grouped into short windows (about 20 ms) of
/// a fixed op count. On a shared machine, interference from other tenants
/// slows the program by up to 2x, in stretches of tens of milliseconds to
/// minutes. The figures therefore read the quiet moments, which almost
/// every run has: the fastest windows and the fastest operations. A
/// whole-run or median figure would read how busy the neighbours were.
class Windows {
 public:
  explicit Windows(std::size_t window_ops) : window_ops_(window_ops) {}

  void Start() { start_ns_ = first_ns_ = NowNs(); }
  /// Records one operation's latency; closes a window every window_ops.
  void Add(double op_us);

  /// throughput_per_s: the 99th percentile of the per-window op rates;
  /// op_p1_us: the 1st percentile of the operation latencies. Notes the
  /// whole-run and median figures, tail latency included.
  void SetEndToEnd(const char* op_name, Outcome& out) const;

  [[nodiscard]] std::size_t ops() const noexcept { return all_.size(); }
  /// The 99th percentile of the per-window op rates.
  [[nodiscard]] double FastRate() const { return Percentile(rates_, 0.99); }

 private:
  std::size_t window_ops_;
  std::int64_t start_ns_ = 0;
  std::int64_t first_ns_ = 0;
  std::size_t current_ = 0;
  std::vector<double> all_;
  std::vector<double> rates_;
};

/// How much slower the traced windows ran than the untraced ones, in %
/// (0 when either has no complete window).
[[nodiscard]] double OverheadPct(const Windows& untraced,
                                 const Windows& traced);

/// Sets setup_s to the median of the set-up times and notes them all.
void SetSetupTime(const std::vector<double>& setup_s, Outcome& out);

/// Sets `name` to the percentile of `samples` (µs), with its count.
void SetPercentile(MetricSet& set, const std::string& name,
                   const std::vector<double>& samples, double q);

}  // namespace perfbench
