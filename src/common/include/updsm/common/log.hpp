// Minimal leveled logging to stderr.
//
// Logging is off by default (level None) so that deterministic benchmark
// output is never interleaved with diagnostics; debugging sessions raise the
// level through the UPDSM_LOG environment variable (trace|debug|info|warn).
#pragma once

#include <sstream>
#include <string>

namespace updsm {

enum class LogLevel : int { None = 0, Warn = 1, Info = 2, Debug = 3, Trace = 4 };

/// Global log level. Initialised from the UPDSM_LOG environment variable.
[[nodiscard]] LogLevel log_level();

namespace detail {
void log_emit(LogLevel level, const std::string& msg);
}

}  // namespace updsm

#define UPDSM_LOG(level, stream_expr)                                 \
  do {                                                                 \
    if (static_cast<int>(::updsm::log_level()) >=                      \
        static_cast<int>(::updsm::LogLevel::level)) {                  \
      std::ostringstream updsm_log_os_;                                \
      updsm_log_os_ << stream_expr;                                    \
      ::updsm::detail::log_emit(::updsm::LogLevel::level,              \
                                updsm_log_os_.str());                  \
    }                                                                  \
  } while (false)
