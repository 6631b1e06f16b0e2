#include "common/logging.hpp"

#include <cstdio>
#include <string>

namespace contory {
namespace {

LogLevel g_level = LogLevel::kWarn;
std::function<SimTime()> g_time_source;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?????";
}

}  // namespace

void Log::SetLevel(LogLevel level) noexcept { g_level = level; }
LogLevel Log::level() noexcept { return g_level; }

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

  std::fprintf(stderr, "%s\n", line.c_str());
}

}  // namespace contory
