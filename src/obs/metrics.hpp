// MetricsRegistry: counters, gauges and fixed-bucket latency histograms.
//
// The paper's whole evaluation (Sec. 6, Tables 1-2, Figs. 4-5) is
// per-operation latency and per-context-item energy attributed to each
// provisioning mechanism. The registry makes those first-class runtime
// objects instead of bespoke bench code: every metric is labeled (by
// mechanism intSensor/extInfra/adHocNetwork, by pipeline stage, ...),
// histograms carry both fixed buckets (p50/p95/p99) and a Welford
// RunningStats accumulator (common/stats.hpp) so any metric can render
// the paper's "Avg [90% CI]" cell format directly.
//
// Cost discipline (same as CLOG_*): instrumentation sites resolve their
// handle once — Get*() returns a reference that stays valid for the
// registry's lifetime, including across Reset() — and each update is a
// few arithmetic ops on plain members. The simulation is single-threaded
// so there are no locks at all; "lock-cheap" here means free.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"

namespace contory::obs {

/// Label key/value pairs. Encoded sorted by key, so the same set in any
/// order names the same metric.
using Labels = std::vector<std::pair<std::string, std::string>>;

class Counter {
 public:
  void Inc(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  void Reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(double v) noexcept { value_ = v; }
  void Add(double delta) noexcept { value_ += delta; }
  [[nodiscard]] double value() const noexcept { return value_; }
  void Reset() noexcept { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram with a parallel Welford accumulator. Bucket i
/// counts observations <= bounds[i]; one implicit overflow bucket counts
/// the rest. Percentiles interpolate linearly inside the bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return stats_.count(); }
  [[nodiscard]] const RunningStats& stats() const noexcept { return stats_; }
  /// p in (0, 100]; 0 when empty.
  [[nodiscard]] double Percentile(double p) const noexcept;
  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts()
      const noexcept {
    return counts_;
  }
  /// The paper's table cell: "140.359 [0.337]".
  [[nodiscard]] std::string ToCell(int precision = 3) const {
    return stats_.ToCell(precision);
  }
  void Reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  RunningStats stats_;
};

/// Default histogram bounds for latencies in milliseconds: 10 us to 60 s,
/// roughly logarithmic — covers createCxtItem (0.078 ms) through BT
/// device discovery (~13 s).
[[nodiscard]] const std::vector<double>& DefaultLatencyBoundsMs();
/// Default bounds for small hop counts (sm_finder_hops): exact up to 16,
/// then coarse to 64.
[[nodiscard]] const std::vector<double>& DefaultHopBounds();

class MetricsRegistry {
 public:
  enum class Kind { kCounter, kGauge, kHistogram };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the named metric, creating it on first use. The reference
  /// stays valid for the registry's lifetime (Reset() zeroes values but
  /// never invalidates handles). Requesting an existing name with a
  /// different kind throws std::logic_error.
  Counter& GetCounter(const std::string& name, const Labels& labels = {});
  Gauge& GetGauge(const std::string& name, const Labels& labels = {});
  Histogram& GetHistogram(const std::string& name, const Labels& labels = {},
                          const std::vector<double>& bounds =
                              DefaultLatencyBoundsMs());

  /// Lookup without creation; nullptr when the metric does not exist.
  [[nodiscard]] const Counter* FindCounter(const std::string& name,
                                           const Labels& labels = {}) const;
  [[nodiscard]] const Gauge* FindGauge(const std::string& name,
                                       const Labels& labels = {}) const;
  [[nodiscard]] const Histogram* FindHistogram(
      const std::string& name, const Labels& labels = {}) const;

  /// "name{k="v",...}" — the canonical identity (labels sorted by key).
  [[nodiscard]] static std::string EncodeKey(const std::string& name,
                                             const Labels& labels);

  struct Entry {
    std::string name;
    Labels labels;
    Kind kind;
    const Counter* counter = nullptr;      // kind == kCounter
    const Gauge* gauge = nullptr;          // kind == kGauge
    const Histogram* histogram = nullptr;  // kind == kHistogram
  };
  /// Every metric, sorted by canonical key (deterministic across runs).
  [[nodiscard]] std::vector<Entry> Entries() const;

  /// One flat JSON object, keys in canonical order; histograms expand to
  /// {count, mean, ci90, min, max, p50, p95, p99}.
  [[nodiscard]] std::string ToJson() const;
  /// Prometheus text exposition (# TYPE lines, _bucket/_sum/_count for
  /// histograms).
  [[nodiscard]] std::string ToPrometheusText() const;

  /// Zeroes every value. Handles handed out by Get*() remain valid.
  void Reset();

  /// Caps how many *labeled* series one metric name may mint (unlabeled
  /// series are never capped). Beyond the cap, Get*() redirects to an
  /// overflow series with every label value replaced by "other" and
  /// bumps `metrics_series_capped_total` — so a per-client gauge like
  /// `overload_bucket_tokens{client}` cannot explode the registry at
  /// city scale. 0 = unlimited. Applies to series created after the
  /// call; existing series are never evicted.
  void SetSeriesCap(std::size_t cap) { series_cap_ = cap; }
  [[nodiscard]] std::size_t series_cap() const noexcept {
    return series_cap_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct Slot {
    std::string name;
    Labels labels;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Slot& GetSlot(const std::string& name, const Labels& labels, Kind kind,
                const std::vector<double>* bounds);
  /// Creation half of GetSlot. May redirect to the "other" overflow
  /// series when `name` is at its labeled-series cap.
  Slot& CreateSlot(const std::string& name, const Labels& labels, Kind kind,
                   const std::vector<double>* bounds);
  [[nodiscard]] const Slot* FindSlot(const std::string& name,
                                     const Labels& labels, Kind kind) const;

  /// std::map: node-based (stable Slot addresses) and key-sorted
  /// (deterministic exporter output).
  std::map<std::string, Slot> entries_;
  /// Labeled series minted per metric name (overflow series excluded).
  std::map<std::string, std::size_t> labeled_series_;
  std::size_t series_cap_ = 64;
};

}  // namespace contory::obs
