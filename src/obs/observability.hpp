// Observability master switch + the COBS() hook macro.
//
// Two gates, mirroring the CLOG_* discipline:
//
//   compile time — the CMake option CONTORY_OBS (default ON). OFF defines
//     CONTORY_OBS_DISABLED and COBS(stmt) becomes `if (false) stmt`:
//     dead-code-eliminated, but still parsed, so an OFF build cannot rot.
//   run time — Observability::Enable(bool) (default ON). When disabled,
//     every COBS() hook costs exactly one predictable branch.
//
// Instrumentation sites therefore always read:
//
//   COBS(Observability::metrics().GetCounter("queries_admitted_total").Inc());
//
// The registry and tracer are process-wide singletons: the simulation is
// single-threaded and the point of the registry is that bench tools and
// tests can read what the pipeline wrote without plumbing a handle
// through every constructor. Tests call ResetForTest() in SetUp.
#pragma once

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/tracer.hpp"

namespace contory::obs {

class Observability {
 public:
  static void Enable(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] static bool Enabled() noexcept { return enabled_; }

  /// The process-wide registry/tracer/recorder. Construction is lazy;
  /// references stay valid for the process lifetime.
  [[nodiscard]] static MetricsRegistry& metrics();
  [[nodiscard]] static QueryTracer& tracer();
  [[nodiscard]] static FlightRecorder& recorder();

  /// Zeroes the registry, clears the tracer (open window, old
  /// generation, finished deque) and the recorder ring, re-enables. For
  /// test SetUp and bench run boundaries.
  static void ResetForTest();

 private:
  static bool enabled_;
};

}  // namespace contory::obs

#if defined(CONTORY_OBS_DISABLED)
// Compiled out: the statement is parsed (so it cannot rot) and discarded.
#define COBS_ON() false
#else
#define COBS_ON() (::contory::obs::Observability::Enabled())
#endif

/// Guard an instrumentation statement: one branch when disabled.
#define COBS(stmt)        \
  do {                    \
    if (COBS_ON()) {      \
      stmt;               \
    }                     \
  } while (false)
