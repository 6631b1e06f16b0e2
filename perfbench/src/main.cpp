// Repository benchmark binary (run it through perfbench/run.py).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit ID] [--trace-dir DIR]
//
// NAME is query_churn, item_delivery, city_mobile or city_static; one
// process runs one workload, on this thread (run.py's `all` starts one
// process per workload, so each peak RSS is its own). Prints the machine
// record, a table (metric, value, unit, sample count), and as its last
// line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics, or with --trace 1 the per-layer ones;
// a traced run also writes its spans to DIR/trace_<workload>.json.
// Exits 1 when any output check failed, 2 on bad usage or a build that
// must not be measured (Debug, unoptimized, sanitized, or without the
// observability hooks).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/logging.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

#if defined(NDEBUG) && defined(__OPTIMIZE__) && !defined(PERFBENCH_SANITIZED) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
constexpr bool kMeasurableBuild = true;
#else
constexpr bool kMeasurableBuild = false;
#endif

#if defined(CONTORY_OBS_DISABLED)
constexpr bool kObsCompiled = false;
#else
constexpr bool kObsCompiled = true;
#endif

struct Workload {
  const char* name;
  Outcome (*run)(const RunConfig&, SpanRecorder&);
};

constexpr Workload kWorkloads[] = {
    {"query_churn", RunQueryChurn},
    {"item_delivery", RunItemDelivery},
    {"city_mobile", RunCityMobile},
    {"city_static", RunCityStatic},
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

/// All significant digits, so repeated runs never read identical by
/// rounding.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string MachineJson(const std::string& commit) {
  return std::string("{\"nproc\":") +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + JsonString(PERFBENCH_COMPILER) +
         ",\"cxx_flags\":" + JsonString(PERFBENCH_CXX_FLAGS) +
         ",\"contory_obs\":" + (kObsCompiled ? "true" : "false") +
         ",\"commit\":" + JsonString(commit) + "}";
}

void PrintTable(const MetricSet& set) {
  std::printf("  %-34s %16s  %-6s %10s\n", "metric", "value", "unit",
              "samples");
  for (const MetricDef& def : set.catalog()) {
    const MetricValue& v = set.Get(def.name);
    std::printf("  %-34s %16.6g  %-6s %10llu\n", def.name, v.value, def.unit,
                static_cast<unsigned long long>(v.samples));
  }
}

std::string MetricsJson(const MetricSet& set) {
  std::string json;
  for (const MetricDef& def : set.catalog()) {
    json += json.empty() ? "" : ", ";
    json += JsonString(def.name) + ": {\"value\": " +
            JsonNumber(set.Get(def.name).value) +
            ", \"unit\": " + JsonString(def.unit) + "}";
  }
  return json;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "query_churn|item_delivery|city_mobile|city_static\n"
               "                 --seed N --seconds S --trace 0|1\n"
               "                 [--commit ID] [--trace-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunConfig config;
  std::string commit = "unknown";
  std::string trace_dir;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && config.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      config.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--trace-dir") {
      trace_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace) {
    return Usage();
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) return Usage();

  const std::string machine = MachineJson(commit);
  std::printf("perfbench machine %s\n", machine.c_str());
  if (!kMeasurableBuild ||
      std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a Debug, unoptimized or "
                 "sanitized build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  // Without the hooks the frame and neighbor-query counters never move and
  // the span checks read 0, so the per-layer figures would be silently
  // wrong.
  if (!kObsCompiled) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a build without "
                 "observability hooks (CONTORY_OBS_DISABLED)\n");
    return 2;
  }
  contory::Log::SetLevel(contory::LogLevel::kError);

  std::printf("perfbench workload %s seed %llu seconds %g trace %d\n",
              w->name, static_cast<unsigned long long>(config.seed),
              config.seconds, config.trace ? 1 : 0);
  std::fflush(stdout);
  SpanRecorder spans;
  const Outcome out = w->run(config, spans);
  const MetricSet& shown = config.trace ? out.per_layer : out.end_to_end;
  PrintTable(shown);
  for (const std::string& note : out.notes) {
    std::printf("  note: %s\n", note.c_str());
  }
  const double share = out.attempted > 0
                           ? static_cast<double>(out.failed) /
                                 static_cast<double>(out.attempted)
                           : 0.0;
  std::printf("  checks: attempted %llu, failed %llu, error_share %.3g\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), share);
  for (const std::string& v : out.violations) {
    std::printf("  VIOLATION: %s\n", v.c_str());
  }
  bool correct = out.failed == 0;
  if (config.trace && !trace_dir.empty()) {
    const std::string path = trace_dir + "/trace_" + w->name + ".json";
    if (spans.WriteChromeTrace(path, machine)) {
      std::printf("  wrote %s (%llu spans; load at ui.perfetto.dev)\n",
                  path.c_str(),
                  static_cast<unsigned long long>(spans.recorded()));
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      correct = false;
    }
  }

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed),
      MetricsJson(shown).c_str());
  return correct ? 0 : 1;
}
