// Wall-clock stopwatch used by evaluation strategies for time budgets and by
// benches for reporting.

#ifndef PB_COMMON_STOPWATCH_H_
#define PB_COMMON_STOPWATCH_H_

#include <chrono>

namespace pb {

/// Starts on construction; ElapsedSeconds() reports time since construction
/// or the last Restart().
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace pb

#endif  // PB_COMMON_STOPWATCH_H_
