// Minimal logging and check macros.
//
// PB_CHECK fires in all builds; PB_DCHECK only when NDEBUG is not defined.
// PB_LOG(Warning) writes one tagged line to stderr. There is no
// process-wide level: every PB_LOG line prints.

#ifndef PB_COMMON_LOGGING_H_
#define PB_COMMON_LOGGING_H_

#include <cstdlib>
#include <sstream>
#include <string>

namespace pb {

/// The levels a PB_LOG site may name.
enum class LogLevel { kWarning };

namespace internal {

/// Accumulates one log line and emits it (with level tag) on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

/// Like LogMessage but aborts the process on destruction.
class FatalMessage {
 public:
  FatalMessage(const char* file, int line, const char* condition);
  [[noreturn]] ~FatalMessage();

  template <typename T>
  FatalMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace pb

#define PB_LOG(level)                                                    \
  ::pb::internal::LogMessage(::pb::LogLevel::k##level, __FILE__, __LINE__)

#define PB_CHECK(condition)                                             \
  if (!(condition))                                                     \
  ::pb::internal::FatalMessage(__FILE__, __LINE__, #condition)

#ifdef NDEBUG
#define PB_DCHECK(condition) \
  if (false) ::pb::internal::FatalMessage(__FILE__, __LINE__, #condition)
#else
#define PB_DCHECK(condition) PB_CHECK(condition)
#endif

#endif  // PB_COMMON_LOGGING_H_
