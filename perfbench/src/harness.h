// Load generation: a loopback client and the open-loop generator.
//
// The generator sends a fixed schedule over at most `connections` persistent
// connections, one client thread each. A thread takes the next unsent
// operation, sleeps until it is due, sends it and waits for the reply, so
// latency is measured from the due time: when every connection is busy, the
// wait for a free one is charged to the system, as an open loop requires.
// The generator's own lateness (wake-up after the due time on a free
// connection) is recorded separately and left out of the reported latency,
// so the load generator's timer delays are not charged to the program.
// The first reply after each interval boundary also marks the host's steal
// ticks and the process's CPU, so the timed metrics can be read where the
// host left the VM alone.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "workloads.h"

namespace pbb {

/// One blocking newline-JSON connection to the server.
class Connection {
 public:
  Connection() = default;
  ~Connection();
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  pb::Status Connect(int port);
  /// Sends `line` + '\n' and returns the reply line.
  pb::Result<std::string> Call(const std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// What happened to one scheduled operation. Times are seconds since the
/// phase start.
struct Sample {
  double due = 0.0;
  double free = 0.0;  ///< when a connection became free to send it
  double sent = 0.0;
  double done = 0.0;
  bool transport_ok = false;
  std::string reply;
  /// Traced runs: the envelope, parsed on the client thread as it arrives
  /// (the in-memory span of the server/engine boundary).
  pb::json::Value envelope;
  bool traced = false;
};

/// CPU counters at one instant: the whole machine's ticks from /proc/stat
/// (zeros where the kernel does not report them) and this process's CPU.
struct Mark {
  double t = 0.0;      ///< seconds since the phase start
  double steal = 0.0;  ///< machine ticks the hypervisor ran something else
  double total = 0.0;  ///< machine ticks of every kind
  double process_cpu_s = 0.0;
  bool set = false;
};

Mark ReadMark();

struct PhaseResult {
  std::vector<Sample> samples;  ///< parallel to the schedule
  double wall_s = 0.0;          ///< first due time to last reply
  double process_cpu_s = 0.0;   ///< user+sys of the whole process
  double client_cpu_s = 0.0;    ///< the client threads' own CPU
  /// Marks about once per kMarkIntervalS, ascending by time, from the
  /// phase start to its end: how much CPU the host took away, when.
  std::vector<Mark> marks;
};

/// Length of the intervals the phase is marked at: short enough to find the
/// gaps in a burst of steal, long enough (~100 machine ticks on 4 vCPUs)
/// that one tick of steal shows.
constexpr double kMarkIntervalS = 0.25;

/// Runs `ops` open-loop against 127.0.0.1:`port`.
pb::Result<PhaseResult> RunOpenLoop(int port, const std::vector<Op>& ops,
                                    int connections, bool trace);

/// Sends request lines one at a time on one connection; returns each round
/// trip in seconds (replies in `replies`). One at a time, because the
/// server's replies are subject to Nagle's algorithm: a pipelined group
/// would measure delayed acknowledgements, not the server.
pb::Result<std::vector<double>> RunSequential(
    int port, const std::vector<std::string>& lines,
    std::vector<std::string>* replies);

// ---- statistics ---------------------------------------------------------------

/// Linear-interpolated percentile (q in [0, 100]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double q);

/// user+sys CPU seconds of the whole process.
double ProcessCpuSeconds();
/// Peak resident set of the process in MiB.
double PeakRssMb();

}  // namespace pbb

#endif  // PERFBENCH_HARNESS_H_
