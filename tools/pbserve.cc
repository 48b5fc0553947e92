// pbserve — the PackageBuilder package-query server.
//
// Serves PaQL over newline-framed JSON on TCP (see src/server/protocol.h
// for the wire protocol and docs/adr/0001-error-envelopes.md for the
// envelope contract). Drive it with tools/pbclient.py:
//
//   ./build/pbserve --port 7781 --preload recipes:500:42 &
//   tools/pbclient.py --port 7781 query \
//     'SELECT PACKAGE(R) FROM recipes R SUCH THAT COUNT(*) = 3
//      MAXIMIZE SUM(protein)'
//
// Flags:
//   --port N               listen port (default 7781; 0 = ephemeral)
//   --host A               bind address (default 127.0.0.1)
//   --threads N            queries that run at once (default: hardware)
//   --max-pending N        queries waiting or running at once; the rest
//                          are refused as overload (default 32)
//   --max-connections N    concurrent-connection cap (default 32)
//   --time-limit S         default per-query wall-clock budget (seconds)
//   --preload kind:n:seed  generate a dataset at startup (repeatable);
//                          kind in recipes|travel|stocks|lineitem
//   --load path:name       load a CSV at startup (repeatable)
//
// Prints "pbserve listening on HOST:PORT" on stdout when ready, then
// serves until SIGINT/SIGTERM.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "server/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int) { g_stop = 1; }

/// Splits "a:b:c" on ':'.
std::vector<std::string> SplitColon(const std::string& s) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == ':') {
      parts.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

bool Preload(pb::engine::Engine* engine, const std::string& spec) {
  std::vector<std::string> parts = SplitColon(spec);
  const std::string kind = parts.empty() ? "" : parts[0];
  const size_t n = parts.size() > 1 ? std::strtoull(parts[1].c_str(),
                                                    nullptr, 10)
                                    : 1000;
  const uint64_t seed = parts.size() > 2
                            ? std::strtoull(parts[2].c_str(), nullptr, 10)
                            : 42;
  auto rows = engine->GenerateDataset(kind, n, seed);
  if (!rows.ok()) {
    std::fprintf(stderr, "pbserve: --preload %s: %s\n", spec.c_str(),
                 rows.status().ToString().c_str());
    return false;
  }
  std::printf("pbserve: preloaded %s (%zu rows, seed %llu)\n", kind.c_str(),
              *rows, static_cast<unsigned long long>(seed));
  return true;
}

bool LoadCsv(pb::engine::Engine* engine, const std::string& spec) {
  std::vector<std::string> parts = SplitColon(spec);
  if (parts.size() != 2) {
    std::fprintf(stderr, "pbserve: --load wants path:name, got '%s'\n",
                 spec.c_str());
    return false;
  }
  auto rows = engine->LoadCsv(parts[0], parts[1]);
  if (!rows.ok()) {
    std::fprintf(stderr, "pbserve: --load %s: %s\n", spec.c_str(),
                 rows.status().ToString().c_str());
    return false;
  }
  std::printf("pbserve: loaded %s as '%s' (%zu rows)\n", parts[0].c_str(),
              parts[1].c_str(), *rows);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  pb::engine::EngineOptions engine_options;
  pb::server::ServerOptions server_options;
  server_options.port = 7781;
  std::vector<std::string> preloads;
  std::vector<std::string> loads;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--port") {
      server_options.port = std::atoi(next());
    } else if (arg == "--host") {
      server_options.host = next();
    } else if (arg == "--threads") {
      engine_options.num_threads = std::atoi(next());
    } else if (arg == "--max-pending") {
      engine_options.max_pending_queries =
          static_cast<size_t>(std::atoi(next()));
    } else if (arg == "--max-connections") {
      server_options.max_connections = std::atoi(next());
    } else if (arg == "--time-limit") {
      engine_options.defaults.milp.time_limit_s = std::atof(next());
    } else if (arg == "--preload") {
      preloads.push_back(next());
    } else if (arg == "--load") {
      loads.push_back(next());
    } else {
      std::fprintf(stderr, "pbserve: unknown flag '%s'\n", arg.c_str());
      return 2;
    }
  }

  pb::engine::Engine engine(engine_options);
  for (const std::string& spec : preloads) {
    if (!Preload(&engine, spec)) return 1;
  }
  for (const std::string& spec : loads) {
    if (!LoadCsv(&engine, spec)) return 1;
  }

  pb::server::Server server(&engine, server_options);
  pb::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "pbserve: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("pbserve listening on %s:%d\n", server_options.host.c_str(),
              server.port());
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  sigset_t mask;
  sigemptyset(&mask);
  while (g_stop == 0) {
    sigsuspend(&mask);  // sleep until a signal arrives
  }
  std::printf("pbserve: shutting down\n");
  server.Stop();
  return 0;
}
