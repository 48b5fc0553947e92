// Framed-TCP front end for pb::Engine (the pbserve transport).
//
// One accept thread plus one thread per connection; each connection reads
// newline-framed JSON requests of at most 1 MiB, runs them through the
// protocol layer on its own thread (the engine admits each query), and
// writes back one envelope per line. Connections beyond max_connections
// receive an overload envelope and are closed instead of queued — the
// transport-level half of the server's backpressure, mirroring the
// engine's max_pending_queries on the query level.
//
// Sessions opened on a connection (op "hello") are closed — cancelling any
// in-flight query — when the peer disconnects.

#ifndef PB_SERVER_SERVER_H_
#define PB_SERVER_SERVER_H_

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"
#include "engine/engine.h"

namespace pb::server {

struct ServerOptions {
  /// Bind address. Loopback by default: pbserve is a local/trusted-network
  /// service with no authentication layer.
  std::string host = "127.0.0.1";
  /// Listen port; 0 picks an ephemeral port (read it back via port()).
  int port = 0;
  /// Concurrent-connection cap; excess connections get an overload
  /// envelope and an immediate close.
  int max_connections = 32;
};

class Server {
 public:
  /// The engine must outlive the server.
  Server(engine::Engine* engine, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the accept thread.
  Status Start();

  /// Stops accepting, shuts down every live connection, joins all threads.
  /// Idempotent; also called by the destructor.
  void Stop();

  /// The bound port (valid after Start()).
  int port() const { return port_; }

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> finished{false};
  };

  void AcceptLoop();
  void ServeConnection(Connection* conn);
  /// Joins connections whose handler has returned.
  void ReapFinishedLocked() PB_REQUIRES(mu_);

  engine::Engine* engine_;
  ServerOptions options_;
  // listen_fd_ / port_ / accept_thread_ are written by Start() and Stop()
  // only, serialized through the stopping_ exchange (AcceptLoop reads the
  // fd that Start() published before spawning it).
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  Mutex mu_;
  std::vector<std::unique_ptr<Connection>> connections_ PB_GUARDED_BY(mu_);
};

}  // namespace pb::server

#endif  // PB_SERVER_SERVER_H_
