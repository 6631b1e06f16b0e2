#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace contory::obs {
namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

const char* KindName(MetricsRegistry::Kind kind) {
  switch (kind) {
    case MetricsRegistry::Kind::kCounter: return "counter";
    case MetricsRegistry::Kind::kGauge: return "gauge";
    case MetricsRegistry::Kind::kHistogram: return "histogram";
  }
  return "?";
}

/// Prometheus metric names: the label block goes after the name; for
/// histograms the `le` label is appended inside the existing block.
std::string PromSeries(const std::string& name, const Labels& labels,
                       const std::string& extra_label = {}) {
  std::string out = name;
  if (labels.empty() && extra_label.empty()) return out;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += v;
    out += '"';
  }
  if (!extra_label.empty()) {
    if (!first) out += ',';
    out += extra_label;
  }
  out += '}';
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    std::sort(bounds_.begin(), bounds_.end());
  }
}

void Histogram::Observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  stats_.Add(v);
}

double Histogram::Percentile(double p) const noexcept {
  const std::size_t n = stats_.count();
  if (n == 0) return 0.0;
  const double target = p / 100.0 * static_cast<double>(n);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += counts_[i];
    if (static_cast<double>(cumulative) < target) continue;
    // Interpolate inside bucket i. The overflow bucket has no upper
    // bound; report the observed maximum instead.
    if (i == bounds_.size()) return stats_.max();
    const double lo = i == 0 ? std::min(stats_.min(), bounds_[0])
                             : bounds_[i - 1];
    const double hi = bounds_[i];
    const double frac =
        (target - before) / static_cast<double>(counts_[i]);
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return stats_.max();
}

void Histogram::Reset() noexcept {
  std::fill(counts_.begin(), counts_.end(), 0);
  stats_ = RunningStats{};
}

const std::vector<double>& DefaultLatencyBoundsMs() {
  static const std::vector<double> kBounds{
      0.01, 0.025, 0.05, 0.1,  0.25, 0.5,  1.0,    2.5,    5.0,    10.0,
      25.0, 50.0,  100., 250., 500., 1000., 2500.0, 5000.0, 15000.0, 60000.0};
  return kBounds;
}

const std::vector<double>& DefaultHopBounds() {
  static const std::vector<double> kBounds{1.0,  2.0,  3.0,  4.0,  5.0,
                                           6.0,  7.0,  8.0,  10.0, 12.0,
                                           16.0, 24.0, 32.0, 48.0, 64.0};
  return kBounds;
}

std::string MetricsRegistry::EncodeKey(const std::string& name,
                                       const Labels& labels) {
  std::string key = name;
  if (labels.empty()) return key;
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  key += '{';
  bool first = true;
  for (const auto& [k, v] : sorted) {
    if (!first) key += ',';
    first = false;
    key += k;
    key += "=\"";
    key += v;
    key += '"';
  }
  key += '}';
  return key;
}

MetricsRegistry::Slot& MetricsRegistry::GetSlot(
    const std::string& name, const Labels& labels, Kind kind,
    const std::vector<double>* bounds) {
  const std::string key = EncodeKey(name, labels);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.kind != kind) {
      throw std::logic_error("metric '" + key + "' already registered as " +
                             KindName(it->second.kind));
    }
    return it->second;
  }
  return CreateSlot(name, labels, kind, bounds);
}

MetricsRegistry::Slot& MetricsRegistry::CreateSlot(
    const std::string& name, const Labels& labels, Kind kind,
    const std::vector<double>* bounds) {
  // Cardinality guard: a labeled series past the per-name cap collapses
  // into the "other" overflow series (same keys, every value "other").
  if (series_cap_ != 0 && !labels.empty()) {
    const bool is_overflow =
        std::all_of(labels.begin(), labels.end(),
                    [](const auto& kv) { return kv.second == "other"; });
    if (!is_overflow) {
      auto& minted = labeled_series_[name];
      if (minted >= series_cap_) {
        GetCounter("metrics_series_capped_total").Inc();
        Labels overflow = labels;
        for (auto& [k, v] : overflow) v = "other";
        const std::string overflow_key = EncodeKey(name, overflow);
        const auto it = entries_.find(overflow_key);
        if (it != entries_.end()) {
          if (it->second.kind != kind) {
            throw std::logic_error("metric '" + overflow_key +
                                   "' already registered as " +
                                   KindName(it->second.kind));
          }
          return it->second;
        }
        return CreateSlot(name, overflow, kind, bounds);
      }
      ++minted;
    }
  }
  Slot slot;
  slot.name = name;
  slot.labels = labels;
  std::sort(slot.labels.begin(), slot.labels.end());
  slot.kind = kind;
  switch (kind) {
    case Kind::kCounter: slot.counter = std::make_unique<Counter>(); break;
    case Kind::kGauge: slot.gauge = std::make_unique<Gauge>(); break;
    case Kind::kHistogram:
      slot.histogram = std::make_unique<Histogram>(
          bounds != nullptr ? *bounds : DefaultLatencyBoundsMs());
      break;
  }
  return entries_.emplace(EncodeKey(name, labels), std::move(slot))
      .first->second;
}

const MetricsRegistry::Slot* MetricsRegistry::FindSlot(
    const std::string& name, const Labels& labels, Kind kind) const {
  const auto it = entries_.find(EncodeKey(name, labels));
  if (it == entries_.end() || it->second.kind != kind) return nullptr;
  return &it->second;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const Labels& labels) {
  return *GetSlot(name, labels, Kind::kCounter, nullptr).counter;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const Labels& labels) {
  return *GetSlot(name, labels, Kind::kGauge, nullptr).gauge;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const Labels& labels,
                                         const std::vector<double>& bounds) {
  return *GetSlot(name, labels, Kind::kHistogram, &bounds).histogram;
}

const Counter* MetricsRegistry::FindCounter(const std::string& name,
                                            const Labels& labels) const {
  const Slot* slot = FindSlot(name, labels, Kind::kCounter);
  return slot != nullptr ? slot->counter.get() : nullptr;
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name,
                                        const Labels& labels) const {
  const Slot* slot = FindSlot(name, labels, Kind::kGauge);
  return slot != nullptr ? slot->gauge.get() : nullptr;
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name,
                                                const Labels& labels) const {
  const Slot* slot = FindSlot(name, labels, Kind::kHistogram);
  return slot != nullptr ? slot->histogram.get() : nullptr;
}

std::vector<MetricsRegistry::Entry> MetricsRegistry::Entries() const {
  std::vector<Entry> out;
  out.reserve(entries_.size());
  for (const auto& [key, slot] : entries_) {
    Entry entry;
    entry.name = slot.name;
    entry.labels = slot.labels;
    entry.kind = slot.kind;
    entry.counter = slot.counter.get();
    entry.gauge = slot.gauge.get();
    entry.histogram = slot.histogram.get();
    out.push_back(std::move(entry));
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, slot] : entries_) {
    if (!first) out += ',';
    first = false;
    out += "\n  \"";
    out += key;
    out += "\": ";
    switch (slot.kind) {
      case Kind::kCounter:
        out += std::to_string(slot.counter->value());
        break;
      case Kind::kGauge:
        out += FormatDouble(slot.gauge->value());
        break;
      case Kind::kHistogram: {
        const Histogram& h = *slot.histogram;
        out += "{\"count\": " + std::to_string(h.count());
        out += ", \"mean\": " + FormatDouble(h.stats().mean());
        out += ", \"ci90\": " + FormatDouble(h.stats().ConfidenceInterval90());
        out += ", \"min\": " + FormatDouble(h.stats().min());
        out += ", \"max\": " + FormatDouble(h.stats().max());
        out += ", \"p50\": " + FormatDouble(h.Percentile(50));
        out += ", \"p95\": " + FormatDouble(h.Percentile(95));
        out += ", \"p99\": " + FormatDouble(h.Percentile(99));
        out += "}";
        break;
      }
    }
  }
  out += "\n}\n";
  return out;
}

std::string MetricsRegistry::ToPrometheusText() const {
  std::string out;
  // Group # TYPE headers by metric name; entries_ is key-sorted so all
  // label variants of one name are adjacent.
  std::string last_name;
  for (const auto& [key, slot] : entries_) {
    if (slot.name != last_name) {
      out += "# TYPE " + slot.name + ' ' + KindName(slot.kind) + '\n';
      last_name = slot.name;
    }
    switch (slot.kind) {
      case Kind::kCounter:
        out += PromSeries(slot.name, slot.labels) + ' ' +
               std::to_string(slot.counter->value()) + '\n';
        break;
      case Kind::kGauge:
        out += PromSeries(slot.name, slot.labels) + ' ' +
               FormatDouble(slot.gauge->value()) + '\n';
        break;
      case Kind::kHistogram: {
        const Histogram& h = *slot.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          cumulative += h.bucket_counts()[i];
          out += PromSeries(slot.name + "_bucket", slot.labels,
                            "le=\"" + FormatDouble(h.bounds()[i]) + "\"") +
                 ' ' + std::to_string(cumulative) + '\n';
        }
        cumulative += h.bucket_counts().back();
        out += PromSeries(slot.name + "_bucket", slot.labels,
                          "le=\"+Inf\"") +
               ' ' + std::to_string(cumulative) + '\n';
        out += PromSeries(slot.name + "_sum", slot.labels) + ' ' +
               FormatDouble(h.stats().mean() *
                            static_cast<double>(h.count())) +
               '\n';
        out += PromSeries(slot.name + "_count", slot.labels) + ' ' +
               std::to_string(h.count()) + '\n';
        break;
      }
    }
  }
  return out;
}

void MetricsRegistry::Reset() {
  for (auto& [key, slot] : entries_) {
    switch (slot.kind) {
      case Kind::kCounter: slot.counter->Reset(); break;
      case Kind::kGauge: slot.gauge->Reset(); break;
      case Kind::kHistogram: slot.histogram->Reset(); break;
    }
  }
}

}  // namespace contory::obs
