// Leveled, sim-time-aware logging to stderr.
//
// Kept deliberately tiny: a global level (kWarn by default; benches raise
// it to silence warnings) and printf-style formatting. Log calls below the
// active level cost one branch.
#pragma once

#include <cstdarg>
#include <functional>

#include "common/time.hpp"

namespace contory {

enum class LogLevel { kWarn, kError, kOff };

/// Process-wide logging configuration.
class Log {
 public:
  static void SetLevel(LogLevel level) noexcept;
  [[nodiscard]] static LogLevel level() noexcept;

  /// Sets the clock used to prefix log lines with simulated time.
  /// obs::Clock::Install sets it; nullptr removes the prefix.
  static void SetTimeSource(std::function<SimTime()> now);

  /// printf-style emission; prefer the CLOG_* macros below.
  static void Emit(LogLevel level, const char* module, const char* fmt, ...)
      __attribute__((format(printf, 3, 4)));

  [[nodiscard]] static bool Enabled(LogLevel level) noexcept {
    return level >= Log::level();
  }
};

#define CLOG_WARN(module, ...)                                        \
  do {                                                                \
    if (::contory::Log::Enabled(::contory::LogLevel::kWarn))          \
      ::contory::Log::Emit(::contory::LogLevel::kWarn, module,        \
                           __VA_ARGS__);                              \
  } while (0)
#define CLOG_ERROR(module, ...)                                       \
  do {                                                                \
    if (::contory::Log::Enabled(::contory::LogLevel::kError))         \
      ::contory::Log::Emit(::contory::LogLevel::kError, module,       \
                           __VA_ARGS__);                              \
  } while (0)

}  // namespace contory
