// gsopt_server: serves the gsopt wire protocol (src/server/protocol.h)
// over TCP from a seeded demo catalog. The serving stack is the real one
// -- gsopt::Session with its sharded plan cache and statement-text memo,
// per-tenant admission control, the optimizer's syntactic fallback under
// per-request budgets -- only the data is synthetic (r1..rN with columns
// a, b, c; relational/datagen.h).
//
//   gsopt_server --port=7433 --workers=4
//   gsopt_server --port=0                 # ephemeral; the bound port is
//                                         # printed on stdout as "PORT n"
//
// Drive it with gsopt_loadgen, or by hand:
//   printf 'SELECT * FROM r1 WHERE r1.a = 3' | ...   (see client.h)
//
// SIGINT/SIGTERM (or --duration-sec) trigger a graceful drain: in-flight
// queries finish, new frames are shed with the wire-stable `shed` error
// class, then sockets close and the final ServerStats line is printed.
//
// Exit codes: 0 clean shutdown; 2 bad usage; 3 failed to start.
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "base/rng.h"
#include "relational/datagen.h"
#include "server/server.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *value = arg + prefix.size();
  return true;
}

int Usage() {
  std::cerr <<
      "usage: gsopt_server [options]\n"
      "  --host=ADDR           listen address (default 127.0.0.1)\n"
      "  --port=N              listen port; 0 = ephemeral (default 7433)\n"
      "  --workers=N           worker threads (default 4)\n"
      "  --max-queue=N         admission queue bound (default 256)\n"
      "  --deadline-ms=N       per-request deadline, 0 = none (default 0)\n"
      "  --max-rows=N          per-request row cap, 0 = none (default 0)\n"
      "  --tenant-concurrent=N per-tenant in-flight cap (default 1<<20)\n"
      "  --tables=N            demo catalog relations r1..rN (default 6)\n"
      "  --rows=N              rows per relation (default 1000)\n"
      "  --domain=N            value domain (default 64)\n"
      "  --seed=N              datagen seed (default 42)\n"
      "  --duration-sec=N      exit after N seconds, 0 = until signal\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using gsopt::server::GsoptServer;
  using gsopt::server::ServerOptions;

  ServerOptions options;
  options.port = 7433;
  int tables = 6;
  gsopt::RandomRelationOptions data;
  data.num_rows = 1000;
  data.domain = 64;
  uint64_t seed = 42;
  int duration_sec = 0;
  int deadline_ms = 0;
  int max_rows = 0;

  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "host", &v)) {
      options.host = v;
    } else if (ParseFlag(argv[i], "port", &v)) {
      options.port = static_cast<uint16_t>(std::atoi(v.c_str()));
    } else if (ParseFlag(argv[i], "workers", &v)) {
      options.num_workers = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "max-queue", &v)) {
      options.max_queue = static_cast<size_t>(std::atoll(v.c_str()));
    } else if (ParseFlag(argv[i], "deadline-ms", &v)) {
      deadline_ms = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "max-rows", &v)) {
      max_rows = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "tenant-concurrent", &v)) {
      options.default_quota.max_concurrent = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "tables", &v)) {
      tables = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "rows", &v)) {
      data.num_rows = std::atoll(v.c_str());
    } else if (ParseFlag(argv[i], "domain", &v)) {
      data.domain = std::atoll(v.c_str());
    } else if (ParseFlag(argv[i], "seed", &v)) {
      seed = static_cast<uint64_t>(std::atoll(v.c_str()));
    } else if (ParseFlag(argv[i], "duration-sec", &v)) {
      duration_sec = std::atoi(v.c_str());
    } else {
      std::cerr << "unknown flag: " << argv[i] << "\n";
      return Usage();
    }
  }
  if (deadline_ms > 0) {
    options.default_quota.deadline =
        std::chrono::microseconds(static_cast<int64_t>(deadline_ms) * 1000);
  }
  if (max_rows > 0) {
    options.default_quota.max_rows = static_cast<uint64_t>(max_rows);
  }

  gsopt::Catalog catalog;
  gsopt::Rng rng(seed);
  gsopt::AddRandomTables(tables, data, &rng, &catalog);

  GsoptServer server(catalog, options);
  gsopt::Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "start failed: " << started.ToString() << "\n";
    return 3;
  }
  std::printf("PORT %u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  ::signal(SIGINT, HandleSignal);
  ::signal(SIGTERM, HandleSignal);

  auto begin = std::chrono::steady_clock::now();
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (duration_sec > 0 &&
        std::chrono::steady_clock::now() - begin >=
            std::chrono::seconds(duration_sec)) {
      break;
    }
  }

  server.Stop();
  std::printf("STATS %s\n", server.stats().ToString().c_str());
  return 0;
}
