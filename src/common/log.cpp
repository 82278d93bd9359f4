#include "common/log.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace rfh {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};

const char* level_name(LogLevel level) noexcept {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) noexcept { g_level.store(level); }
LogLevel log_level() noexcept { return g_level.load(); }

void log(LogLevel level, const char* fmt, ...) noexcept {
  if (level < g_level.load()) return;
  // The whole line — prefix, message, newline — is formatted first and
  // written with one stdio call, which locks the stream, so lines logged
  // from concurrent threads never interleave mid-line. A message too long
  // for the stack buffer is formatted again into a heap one.
  char stack[512];
  char* line = stack;
  const auto prefix = static_cast<std::size_t>(
      std::snprintf(stack, sizeof stack, "[rfh %s] ", level_name(level)));
  va_list args;
  va_start(args, fmt);
  va_list again;
  va_copy(again, args);
  const int body =
      std::vsnprintf(stack + prefix, sizeof stack - prefix - 1, fmt, args);
  va_end(args);
  std::size_t length = prefix + static_cast<std::size_t>(std::max(body, 0));
  if (length + 1 >= sizeof stack) {
    line = static_cast<char*>(std::malloc(length + 1));
    if (line != nullptr) {
      std::memcpy(line, stack, prefix);
      std::vsnprintf(line + prefix, length + 1 - prefix, fmt, again);
    } else {
      line = stack;  // out of memory: keep what fits
      length = sizeof stack - 2;
    }
  }
  va_end(again);
  line[length] = '\n';
  std::fwrite(line, 1, length + 1, stderr);
  if (line != stack) std::free(line);
}

}  // namespace rfh
