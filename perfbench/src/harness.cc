#include "harness.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

namespace pbb {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

}  // namespace

// ---- Connection -----------------------------------------------------------------

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

pb::Status Connection::Connect(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return pb::Status::Internal(std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return pb::Status::Internal(std::string("connect: ") +
                                std::strerror(errno));
  }
  return pb::Status::OK();
}

pb::Result<std::string> Connection::Call(const std::string& line) {
  const std::string out = line + "\n";
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n =
        ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return pb::Status::Internal("send failed");
    sent += static_cast<size_t>(n);
  }
  for (;;) {
    const size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string reply = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return reply;
    }
    char buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return pb::Status::Internal("connection closed");
    buffer_.append(buf, static_cast<size_t>(n));
  }
}

// ---- load generation ------------------------------------------------------------

pb::Result<PhaseResult> RunOpenLoop(int port, const std::vector<Op>& ops,
                                    int connections, bool trace) {
  std::vector<std::unique_ptr<Connection>> conns;
  for (int i = 0; i < connections; ++i) {
    conns.push_back(std::make_unique<Connection>());
    PB_RETURN_IF_ERROR(conns.back()->Connect(port));
  }
  PhaseResult result;
  result.samples.resize(ops.size());
  std::atomic<size_t> next{0};
  std::vector<double> thread_cpu(connections, 0.0);
  // A short lead so every thread is parked before the first due time.
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);
  const double cpu0 = ProcessCpuSeconds();
  // Mark slots, one per interval; slot k is written once, by the thread
  // whose reply first lands in interval k (the CAS winner), and read only
  // after the join.
  const double span = ops.empty() ? 0.0 : ops.back().due_s;
  std::vector<Mark> slots(static_cast<size_t>(span / kMarkIntervalS) + 2);
  std::atomic<int64_t> marked{0};
  slots[0] = ReadMark();
  slots[0].t = Seconds(start, Clock::now());

  auto worker = [&](int t) {
    // Wake as close to each due time as the kernel allows (the default
    // slack lets a timer fire 50 us late).
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const double cpu_start = ThreadCpuSeconds();
    Connection* conn = conns[t].get();
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= ops.size()) break;
      Sample& s = result.samples[i];
      s.due = ops[i].due_s;
      s.free = Seconds(start, Clock::now());
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(s.due)));
      s.sent = Seconds(start, Clock::now());
      auto reply = conn->Call(ops[i].line);
      s.done = Seconds(start, Clock::now());
      s.transport_ok = reply.ok();
      if (reply.ok()) s.reply = std::move(reply).value();
      const int64_t k = std::min<int64_t>(
          static_cast<int64_t>(s.done / kMarkIntervalS),
          static_cast<int64_t>(slots.size()) - 1);
      int64_t last = marked.load(std::memory_order_relaxed);
      while (k > last && !marked.compare_exchange_weak(last, k)) {
      }
      if (k > last) {
        slots[k] = ReadMark();
        slots[k].t = Seconds(start, Clock::now());
      }
      if (trace && s.transport_ok) {
        auto env = pb::json::Parse(s.reply);
        if (env.ok()) s.envelope = std::move(env).value();
        s.traced = env.ok();
      }
    }
    thread_cpu[t] = ThreadCpuSeconds() - cpu_start;
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < connections; ++t) threads.emplace_back(worker, t);
  for (std::thread& th : threads) th.join();

  result.process_cpu_s = ProcessCpuSeconds() - cpu0;
  for (const Mark& m : slots) {
    if (m.set) result.marks.push_back(m);
  }
  // The end closes the last interval; a tail shorter than half an interval
  // joins the one before it rather than standing as an interval whose few
  // ticks make its steal share noise.
  Mark end = ReadMark();
  end.t = Seconds(start, Clock::now());
  if (result.marks.size() > 1 &&
      end.t - result.marks.back().t < kMarkIntervalS / 2) {
    result.marks.back() = end;
  } else {
    result.marks.push_back(end);
  }
  for (double c : thread_cpu) result.client_cpu_s += c;
  double last = 0.0;
  for (const Sample& s : result.samples) last = std::max(last, s.done);
  const double first = ops.empty() ? 0.0 : ops.front().due_s;
  result.wall_s = last - first;
  return result;
}

pb::Result<std::vector<double>> RunSequential(
    int port, const std::vector<std::string>& lines,
    std::vector<std::string>* replies) {
  Connection conn;
  PB_RETURN_IF_ERROR(conn.Connect(port));
  std::vector<double> out;
  out.reserve(lines.size());
  for (const std::string& line : lines) {
    const Clock::time_point t0 = Clock::now();
    PB_ASSIGN_OR_RETURN(std::string reply, conn.Call(line));
    out.push_back(Seconds(t0, Clock::now()));
    if (replies != nullptr) replies->push_back(std::move(reply));
  }
  return out;
}

Mark ReadMark() {
  Mark m;
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  double v = 0.0;
  for (int i = 0; i < 8 && f >> v; ++i) {
    m.total += v;
    if (i == 7) m.steal = v;
  }
  m.process_cpu_s = ProcessCpuSeconds();
  m.set = true;
  return m;
}

// ---- statistics -----------------------------------------------------------------

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 + ru.ru_stime.tv_sec +
         ru.ru_stime.tv_usec * 1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace pbb
