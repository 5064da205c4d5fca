// gsopt_server core: a TCP serving layer over gsopt::Session.
//
// Topology (DESIGN.md §13): one dispatcher thread owns the listen socket
// and every connection's read side behind a poll() loop; N worker threads
// drain a bounded admission queue and run queries through one shared
// Session (whose sharded plan cache and statement-text memo are what make
// warm traffic cheap). The protocol is request/response per connection
// (clients pipeline, the server answers in order), so scaling comes from
// many connections multiplexed over the fixed worker pool -- the
// "millions of users" shape, minus the millions.
//
// Admission control, per request frame, in order:
//
//   1. draining?            -> shed (typed ERROR, class `shed`)
//   2. tenant quota full?   -> shed (per-tenant in-flight cap, counting
//                              queued + executing; a noisy tenant cannot
//                              occupy the whole worker pool)
//   3. queue at max_queue?  -> shed (global backlog bound: past it the
//                              server is in overload and queueing deeper
//                              only converts latency into timeouts)
//   4. admit: charge the tenant, enqueue. Every admitted request executes
//      under a fresh ResourceBudget built from its tenant's quota
//      (deadline / row cap / memory cap), so a single hostile query
//      degrades or fails alone -- the optimizer's syntactic fallback and
//      the executor's spill path do the graceful part, and the ROWS frame
//      reports the degraded disposition.
//
// Overload shedding is therefore two-layered: hard sheds refuse work
// before it costs anything (the client sees class `shed` and retries
// elsewhere/later), while soft pressure -- an admission queue at least
// half of max_queue deep -- cuts the deadline of admitted work to a
// quarter, so a search that would outlast it falls back to the syntactic
// plan sooner and the backlog drains faster. No request is ever silently
// dropped: every
// admitted frame gets exactly one ROWS or ERROR frame, shutdown drains
// in-flight work before closing sockets, and sheds are counted per cause
// in ServerStats.
#ifndef GSOPT_SERVER_SERVER_H_
#define GSOPT_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/session.h"
#include "server/protocol.h"

namespace gsopt::server {

// Per-tenant admission limits; the defaults admit everything and cap
// nothing (a trusted single-tenant deployment).
struct TenantQuota {
  // Requests queued or executing for this tenant at once.
  int max_concurrent = 1 << 20;
  // Per-request budget caps; microseconds(0) / kUnlimited = uncapped.
  std::chrono::microseconds deadline{0};
  uint64_t max_rows = ResourceBudget::kUnlimited;
  uint64_t max_memory = ResourceBudget::kUnlimited;

  TenantQuota& WithMaxConcurrent(int n) { max_concurrent = n; return *this; }
  TenantQuota& WithDeadline(std::chrono::microseconds d) {
    deadline = d;
    return *this;
  }
  TenantQuota& WithMaxRows(uint64_t n) { max_rows = n; return *this; }
  TenantQuota& WithMaxMemory(uint64_t n) { max_memory = n; return *this; }
};

struct ServerOptions {
  // Listen address. Port 0 binds an ephemeral port; read the actual one
  // back with GsoptServer::port() (how tests and the loopback loadgen
  // avoid collisions).
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int num_workers = 4;
  // Global admission-queue bound (requests queued, not yet executing).
  size_t max_queue = 256;
  // Admission limits for tenants without an explicit entry.
  TenantQuota default_quota;
  std::map<std::string, TenantQuota> tenant_quotas;
  // How long Stop() waits for in-flight work before closing sockets.
  std::chrono::milliseconds drain_timeout{10000};
  // The shared serving Session's configuration (plan cache sizing,
  // execution policy defaults, retry budget).
  SessionOptions session;
};

// Monotonic counters, readable while serving (relaxed atomic snapshots).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t requests_admitted = 0;
  uint64_t responses_rows = 0;
  uint64_t responses_error = 0;   // admitted work that failed (non-shed)
  uint64_t sheds_queue_full = 0;
  uint64_t sheds_tenant_quota = 0;
  uint64_t sheds_draining = 0;
  uint64_t degraded_served = 0;   // ROWS frames with the degraded bit set
  uint64_t protocol_errors = 0;   // malformed frames / bad handshakes
  uint64_t queue_high_water = 0;

  uint64_t sheds_total() const {
    return sheds_queue_full + sheds_tenant_quota + sheds_draining;
  }
  std::string ToString() const;
};

class GsoptServer {
 public:
  // The catalog is referenced, not copied; it must outlive the server and
  // must not be mutated while requests are in flight: every query reads
  // the base tables it scans in place until it has answered. Quiesce
  // first: stop sending, wait for in_flight() == 0 -- the Session's epoch
  // machinery then re-optimizes stale templates on the next lookup.
  GsoptServer(const Catalog& catalog, ServerOptions options = {});
  ~GsoptServer();

  GsoptServer(const GsoptServer&) = delete;
  GsoptServer& operator=(const GsoptServer&) = delete;

  // Binds, listens and starts the dispatcher + worker threads.
  Status Start();
  // Graceful drain: stop accepting, shed new frames, wait (bounded by
  // drain_timeout) for admitted work to finish, then tear down.
  // Idempotent.
  void Stop();

  // The bound port (after Start); useful with port 0.
  uint16_t port() const { return port_; }
  ServerStats stats() const;
  // Requests admitted but not yet answered. Tests use this to quiesce
  // before a catalog mutation.
  size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }
  Session& session() { return *session_; }

 private:
  struct TenantState {
    TenantQuota quota;
    std::atomic<int> in_flight{0};
  };

  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    ~Connection();

    const int fd;
    // Dispatcher-only state (no lock needed): framing buffer + handshake.
    std::string inbuf;
    bool hello_done = false;
    TenantState* tenant = nullptr;

    // Guarded by mu: the per-connection request pipeline.
    std::mutex mu;
    std::deque<Frame> pending;
    bool busy = false;   // a frame is queued or executing
    bool alive = true;   // false once the dispatcher dropped the socket
    Frame current;       // the admitted frame a worker is handling

    // Serializes socket writes (dispatcher sheds vs worker responses are
    // already ordered by the busy flag; this keeps it airtight).
    std::mutex write_mu;

    // Worker-only (requests on one connection never run concurrently).
    std::map<uint64_t, PreparedStatement> stmts;
    uint64_t next_stmt_id = 1;
  };
  using ConnPtr = std::shared_ptr<Connection>;

  void DispatchLoop();
  void WorkerLoop();
  // Reads whatever the socket has; returns false when the connection
  // should be dropped (EOF, error, oversized frame).
  bool ReadReady(const ConnPtr& conn);
  // Handshake + admission for the connection's next pending frame(s).
  void TryDispatch(const ConnPtr& conn);
  // One admitted request end-to-end on a worker thread.
  void ServeRequest(const ConnPtr& conn);
  Status HandleHello(const ConnPtr& conn, const Frame& f);
  void WriteError(const ConnPtr& conn, const Status& status);
  void DropConnection(int fd);
  void Wake();

  const Catalog& catalog_;
  ServerOptions options_;
  std::unique_ptr<Session> session_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};

  std::thread dispatcher_;
  std::vector<std::thread> workers_;

  // Dispatcher-owned connection table; guarded by conns_mu_ because
  // Stop() walks it from another thread.
  std::mutex conns_mu_;
  std::map<int, ConnPtr> conns_;

  // Admission queue (admitted requests waiting for a worker).
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<ConnPtr> queue_;
  bool workers_should_exit_ = false;

  // Connections whose worker finished and may have more pending frames;
  // the dispatcher re-runs TryDispatch on them after a Wake().
  std::mutex recheck_mu_;
  std::vector<ConnPtr> recheck_;

  std::mutex tenants_mu_;
  std::map<std::string, std::unique_ptr<TenantState>> tenants_;

  std::atomic<size_t> in_flight_{0};
  std::condition_variable drain_cv_;  // waits on queue_mu_

  // Stats counters (relaxed; exactness matters per-counter, not across).
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> requests_admitted_{0};
  std::atomic<uint64_t> responses_rows_{0};
  std::atomic<uint64_t> responses_error_{0};
  std::atomic<uint64_t> sheds_queue_full_{0};
  std::atomic<uint64_t> sheds_tenant_quota_{0};
  std::atomic<uint64_t> sheds_draining_{0};
  std::atomic<uint64_t> degraded_served_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> queue_high_water_{0};
};

}  // namespace gsopt::server

#endif  // GSOPT_SERVER_SERVER_H_
