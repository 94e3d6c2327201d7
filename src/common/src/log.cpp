#include "updsm/common/log.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>

namespace updsm {
namespace {

LogLevel level_from_env() {
  const char* env = std::getenv("UPDSM_LOG");
  if (env == nullptr) return LogLevel::None;
  if (std::strcmp(env, "warn") == 0) return LogLevel::Warn;
  if (std::strcmp(env, "info") == 0) return LogLevel::Info;
  if (std::strcmp(env, "debug") == 0) return LogLevel::Debug;
  if (std::strcmp(env, "trace") == 0) return LogLevel::Trace;
  return LogLevel::None;
}

std::atomic<LogLevel> g_level{level_from_env()};
std::mutex g_emit_mutex;

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Warn:
      return "WARN";
    case LogLevel::Info:
      return "INFO";
    case LogLevel::Debug:
      return "DEBUG";
    case LogLevel::Trace:
      return "TRACE";
    case LogLevel::None:
      break;
  }
  return "?";
}

}  // namespace

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

namespace detail {

void log_emit(LogLevel level, const std::string& msg) {
  // One mutex-protected write: node threads in the gang scheduler never run
  // concurrently, but harness code may log from the controller thread.
  std::lock_guard<std::mutex> lock(g_emit_mutex);
  std::cerr << "[updsm " << level_name(level) << "] " << msg << '\n';
}

}  // namespace detail
}  // namespace updsm
