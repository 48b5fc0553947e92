#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "server/protocol.h"

namespace pb::server {

namespace {

/// Per-request size cap; a longer line poisons the connection (one error
/// envelope, then close).
constexpr size_t kMaxLineBytes = 1 << 20;

/// Writes the whole buffer, absorbing partial sends. MSG_NOSIGNAL keeps a
/// dead peer from killing the process with SIGPIPE.
bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool SendLine(int fd, std::string line) {
  line.push_back('\n');
  return SendAll(fd, line);
}

}  // namespace

Server::Server(engine::Engine* engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address '" + options_.host +
                                   "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status s =
        Status::Internal(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 64) < 0) {
    Status s =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }
  stopping_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    // A second caller still needs to wait for the first teardown, which
    // holds mu_ while joining.
    MutexLock lock(&mu_);
    return;
  }
  if (listen_fd_ >= 0) {
    // Kick the accept thread out of ::accept. The fd value itself is not
    // overwritten until after the join: AcceptLoop still reads it.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_ = -1;
  MutexLock lock(&mu_);
  for (auto& conn : connections_) {
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& conn : connections_) {
    if (conn->thread.joinable()) conn->thread.join();
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
  connections_.clear();
}

void Server::ReapFinishedLocked() {
  std::erase_if(connections_, [](const std::unique_ptr<Connection>& c) {
    if (!c->finished.load(std::memory_order_acquire)) return false;
    if (c->thread.joinable()) c->thread.join();
    ::close(c->fd);
    return true;
  });
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by Stop()
    }
    MutexLock lock(&mu_);
    ReapFinishedLocked();
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    if (connections_.size() >=
        static_cast<size_t>(options_.max_connections)) {
      SendLine(fd, ErrorEnvelope(StatusCode::kResourceExhausted,
                                 "server overloaded: connection limit "
                                 "reached")
                       .Dump());
      ::close(fd);
      continue;
    }
    // Replies are small and one per request line. With Nagle on, every
    // reply after the first of a pipelined batch waits for the client's
    // delayed ACK (~40 ms on Linux).
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    conn->thread = std::thread([this, raw] { ServeConnection(raw); });
    connections_.push_back(std::move(conn));
  }
}

void Server::ServeConnection(Connection* conn) {
  ConnectionContext ctx;
  std::string pending;
  char buf[4096];
  bool poisoned = false;
  while (!poisoned) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed or Stop() shut the socket down
    pending.append(buf, static_cast<size_t>(n));
    if (pending.size() > kMaxLineBytes &&
        pending.find('\n') == std::string::npos) {
      SendLine(conn->fd, ErrorEnvelope(StatusCode::kInvalidArgument,
                                       "request line exceeds the size limit")
                             .Dump());
      break;
    }
    size_t start = 0;
    for (size_t nl = pending.find('\n', start); nl != std::string::npos;
         nl = pending.find('\n', start)) {
      std::string line = pending.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (line.size() > kMaxLineBytes) {
        SendLine(conn->fd, ErrorEnvelope(StatusCode::kInvalidArgument,
                                         "request line exceeds the size "
                                         "limit")
                               .Dump());
        poisoned = true;
        break;
      }
      if (!SendLine(conn->fd, HandleRequestLine(engine_, line, &ctx))) {
        poisoned = true;
        break;
      }
    }
    pending.erase(0, start);
  }
  // Disconnect hygiene: a dropped client must not keep queries running or
  // sessions registered.
  for (const uint64_t session : ctx.sessions) {
    const Status close_status = engine_->CloseSession(session);
    if (!close_status.ok()) {
      PB_LOG(Warning) << "session " << session
                      << " did not close cleanly on disconnect: "
                      << close_status.ToString();
    }
  }
  conn->finished.store(true, std::memory_order_release);
}

}  // namespace pb::server
