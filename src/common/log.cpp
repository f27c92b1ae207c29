#include "common/log.hpp"

#include <atomic>
#include <cstdio>

namespace hpmmap {
namespace {

std::atomic<LogLevel> g_level{LogLevel::kWarn};

constexpr std::string_view level_tag(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug: return "DBG";
    case LogLevel::kInfo:  return "INF";
    case LogLevel::kWarn:  return "WRN";
    case LogLevel::kError: return "ERR";
    case LogLevel::kOff:   return "OFF";
  }
  return "?";
}

} // namespace

void set_log_level(LogLevel level) noexcept { g_level.store(level, std::memory_order_relaxed); }

LogLevel log_level() noexcept { return g_level.load(std::memory_order_relaxed); }

namespace detail {

void vlog_line(LogLevel level, std::string_view subsystem, const char* fmt, std::va_list args) {
  if (level < log_level()) {
    return;
  }
  char message[1024];
  std::vsnprintf(message, sizeof message, fmt, args);
  std::fprintf(stderr, "[%.*s] %.*s: %s\n", static_cast<int>(level_tag(level).size()),
               level_tag(level).data(), static_cast<int>(subsystem.size()), subsystem.data(),
               message);
}

} // namespace detail

#define HPMMAP_DEFINE_LOG_FN(fn_name, level)                                   \
  void fn_name(std::string_view subsystem, const char* fmt, ...) {            \
    std::va_list args;                                                         \
    va_start(args, fmt);                                                       \
    detail::vlog_line((level), subsystem, fmt, args);                          \
    va_end(args);                                                              \
  }

HPMMAP_DEFINE_LOG_FN(log_debug, LogLevel::kDebug)
HPMMAP_DEFINE_LOG_FN(log_info, LogLevel::kInfo)
HPMMAP_DEFINE_LOG_FN(log_warn, LogLevel::kWarn)
HPMMAP_DEFINE_LOG_FN(log_error, LogLevel::kError)

#undef HPMMAP_DEFINE_LOG_FN

} // namespace hpmmap
