#include "obs/observability.hpp"

namespace contory::obs {

bool Observability::enabled_ = true;

MetricsRegistry& Observability::metrics() {
  static MetricsRegistry registry;
  return registry;
}

QueryTracer& Observability::tracer() {
  static QueryTracer tracer;
  return tracer;
}

FlightRecorder& Observability::recorder() {
  static FlightRecorder recorder;
  return recorder;
}

void Observability::ResetForTest() {
  metrics().Reset();
  tracer().Reset();
  recorder().Reset();
  enabled_ = true;
}

}  // namespace contory::obs
