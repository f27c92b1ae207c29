// Minimal leveled logging. The simulated kernel logs like a kernel:
// terse, prefixed, printf-formatted, and off by default except warnings.
#pragma once

#include <atomic>
#include <cstdarg>
#include <cstdint>
#include <string_view>

namespace hpmmap {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Process-wide threshold; benchmarks keep it at kWarn so figure output
/// stays clean, tests may lower it when debugging.
void set_log_level(LogLevel level) noexcept;
[[nodiscard]] LogLevel log_level() noexcept;

namespace detail {
void vlog_line(LogLevel level, std::string_view subsystem, const char* fmt, std::va_list args);
}

#if defined(__GNUC__)
#define HPMMAP_PRINTF(fmt_idx, args_idx) __attribute__((format(printf, fmt_idx, args_idx)))
#else
#define HPMMAP_PRINTF(fmt_idx, args_idx)
#endif

void log_debug(std::string_view subsystem, const char* fmt, ...) HPMMAP_PRINTF(2, 3);
void log_info(std::string_view subsystem, const char* fmt, ...) HPMMAP_PRINTF(2, 3);
void log_warn(std::string_view subsystem, const char* fmt, ...) HPMMAP_PRINTF(2, 3);
void log_error(std::string_view subsystem, const char* fmt, ...) HPMMAP_PRINTF(2, 3);

/// Budget for repetitive warnings (kernel printk_ratelimit idiom): a
/// per-site counter that allows the first `limit` messages and counts
/// the rest, so per-fault warnings cannot flood benchmark output under
/// pathological configs.
class LogLimiter {
 public:
  explicit constexpr LogLimiter(std::uint64_t limit) noexcept : limit_(limit) {}

  /// Counts the call; true while the budget lasts.
  bool allow() noexcept {
    ++calls_;
    return calls_ <= limit_;
  }
  /// True exactly on the first suppressed call — the moment to log a
  /// final "further warnings suppressed" marker.
  [[nodiscard]] bool just_saturated() const noexcept { return calls_ == limit_ + 1; }
  [[nodiscard]] std::uint64_t suppressed() const noexcept {
    return calls_ > limit_ ? calls_ - limit_ : 0;
  }
  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }
  void reset() noexcept { calls_ = 0; }

 private:
  std::uint64_t limit_;
  std::uint64_t calls_ = 0;
};

/// Warn through `limiter`; after the budget runs out, logs one
/// suppression marker and then nothing.
#define HPMMAP_LOG_WARN_LIMITED(limiter, subsystem, ...)                          \
  do {                                                                            \
    if ((limiter).allow()) {                                                      \
      ::hpmmap::log_warn(subsystem, __VA_ARGS__);                                 \
    } else if ((limiter).just_saturated()) {                                      \
      ::hpmmap::log_warn(subsystem, "(further warnings from this site suppressed)"); \
    }                                                                             \
  } while (0)

/// Warn at most once per call site for the process lifetime. Atomic so
/// batch-runner worker threads hitting the same site race benignly (at
/// most one wins the exchange and logs).
#define HPMMAP_LOG_WARN_ONCE(subsystem, ...)                                  \
  do {                                                                        \
    static ::std::atomic<bool> hpmmap_warned_once{false};                     \
    if (!hpmmap_warned_once.exchange(true, ::std::memory_order_relaxed)) {    \
      ::hpmmap::log_warn(subsystem, __VA_ARGS__);                             \
    }                                                                         \
  } while (0)

} // namespace hpmmap
