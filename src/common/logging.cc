#include "common/logging.h"

#include <cstdio>

namespace pb {

namespace {
const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kWarning:
      return "WARN";
  }
  return "?";
}
}  // namespace

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) {
  stream_ << "[" << LevelTag(level) << " " << file << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
}

FatalMessage::FatalMessage(const char* file, int line, const char* condition) {
  stream_ << "[FATAL " << file << ":" << line << "] Check failed: " << condition
          << " ";
}

FatalMessage::~FatalMessage() {
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
  std::abort();
}

}  // namespace internal
}  // namespace pb
