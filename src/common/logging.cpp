#include "common/logging.hpp"

#include <cstdio>

namespace contory {
namespace {

LogLevel g_level = LogLevel::kWarn;
Log::Sink g_sink;
std::function<SimTime()> g_time_source;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?????";
}

}  // namespace

void Log::SetLevel(LogLevel level) noexcept { g_level = level; }
LogLevel Log::level() noexcept { return g_level; }

void Log::SetSink(Sink sink) { g_sink = std::move(sink); }

void Log::SetTimeSource(std::function<SimTime()> now) {
  g_time_source = std::move(now);
}

void Log::Emit(LogLevel level, const char* module, const char* fmt, ...) {
  char msg[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(msg, sizeof msg, fmt, args);
  va_end(args);

  std::string line;
  if (g_time_source) {
    line += FormatTime(g_time_source());
    line += ' ';
  }
  line += LevelName(level);
  line += " [";
  line += module;
  line += "] ";
  line += msg;

  if (g_sink) {
    g_sink(level, line);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

}  // namespace contory
