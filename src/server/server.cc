#include "server/server.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <sstream>
#include <utility>

namespace gsopt::server {

namespace {

// The soft-pressure rung: once the admission queue is half of max_queue
// deep, admitted requests run with this fraction of their deadline.
constexpr double kPressureDeadlineFactor = 0.25;

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal("fcntl(O_NONBLOCK): " +
                            std::string(::strerror(errno)));
  }
  return Status::OK();
}

void BumpHighWater(std::atomic<uint64_t>* hw, uint64_t depth) {
  uint64_t cur = hw->load(std::memory_order_relaxed);
  while (depth > cur &&
         !hw->compare_exchange_weak(cur, depth, std::memory_order_relaxed)) {
  }
}

}  // namespace

std::string ServerStats::ToString() const {
  std::ostringstream os;
  os << "accepted=" << connections_accepted << " admitted=" << requests_admitted
     << " rows=" << responses_rows << " errors=" << responses_error
     << " shed{queue=" << sheds_queue_full << " tenant=" << sheds_tenant_quota
     << " drain=" << sheds_draining << "}"
     << " degraded=" << degraded_served << " proto_errors=" << protocol_errors
     << " queue_hw=" << queue_high_water;
  return os.str();
}

GsoptServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

GsoptServer::GsoptServer(const Catalog& catalog, ServerOptions options)
    : catalog_(catalog), options_(std::move(options)) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.max_queue < 1) options_.max_queue = 1;
  session_ = std::make_unique<Session>(catalog_, options_.session);
}

GsoptServer::~GsoptServer() { Stop(); }

Status GsoptServer::Start() {
  if (running_.exchange(true)) {
    return Status::InvalidArgument("server already started");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal("socket: " + std::string(::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  ::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::Internal("bind: " + std::string(::strerror(errno)));
  }
  if (::listen(listen_fd_, 128) < 0) {
    return Status::Internal("listen: " + std::string(::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  Status nb = SetNonBlocking(listen_fd_);
  if (!nb.ok()) return nb;

  if (::pipe(wake_pipe_) < 0) {
    return Status::Internal("pipe: " + std::string(::strerror(errno)));
  }
  (void)SetNonBlocking(wake_pipe_[0]);
  (void)SetNonBlocking(wake_pipe_[1]);

  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  dispatcher_ = std::thread([this] { DispatchLoop(); });
  return Status::OK();
}

void GsoptServer::Stop() {
  if (!running_.load()) return;
  draining_.store(true);
  Wake();

  // Bounded wait for admitted work to complete (new frames are shed the
  // moment draining_ flipped, so in_flight_ can only fall).
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    drain_cv_.wait_for(lock, options_.drain_timeout, [this] {
      return in_flight_.load(std::memory_order_relaxed) == 0;
    });
    workers_should_exit_ = true;
  }
  queue_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();

  running_.store(false);  // dispatcher exits its loop
  Wake();
  if (dispatcher_.joinable()) dispatcher_.join();

  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();  // last refs close the sockets
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int i = 0; i < 2; ++i) {
    if (wake_pipe_[i] >= 0) {
      ::close(wake_pipe_[i]);
      wake_pipe_[i] = -1;
    }
  }
}

ServerStats GsoptServer::stats() const {
  ServerStats s;
  s.connections_accepted = connections_accepted_.load(std::memory_order_relaxed);
  s.requests_admitted = requests_admitted_.load(std::memory_order_relaxed);
  s.responses_rows = responses_rows_.load(std::memory_order_relaxed);
  s.responses_error = responses_error_.load(std::memory_order_relaxed);
  s.sheds_queue_full = sheds_queue_full_.load(std::memory_order_relaxed);
  s.sheds_tenant_quota = sheds_tenant_quota_.load(std::memory_order_relaxed);
  s.sheds_draining = sheds_draining_.load(std::memory_order_relaxed);
  s.degraded_served = degraded_served_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.queue_high_water = queue_high_water_.load(std::memory_order_relaxed);
  return s;
}

void GsoptServer::Wake() {
  if (wake_pipe_[1] >= 0) {
    char b = 1;
    ssize_t r = ::write(wake_pipe_[1], &b, 1);
    (void)r;  // pipe full just means a wakeup is already pending
  }
}

void GsoptServer::DropConnection(int fd) {
  ConnPtr conn;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    conn = it->second;
    conns_.erase(it);
  }
  // A worker may still hold the connection; mark it dead so the response
  // write is skipped. The socket closes when the last shared_ptr drops.
  std::lock_guard<std::mutex> lock(conn->mu);
  conn->alive = false;
}

void GsoptServer::DispatchLoop() {
  std::vector<pollfd> pfds;
  std::vector<int> fds;  // parallel to pfds[2..]
  while (true) {
    // Re-dispatch connections whose worker just finished a frame.
    std::vector<ConnPtr> recheck;
    {
      std::lock_guard<std::mutex> lock(recheck_mu_);
      recheck.swap(recheck_);
    }
    for (const auto& c : recheck) TryDispatch(c);

    if (!running_.load()) break;

    pfds.clear();
    fds.clear();
    pfds.push_back({wake_pipe_[0], POLLIN, 0});
    bool accepting = !draining_.load();
    pfds.push_back({accepting ? listen_fd_ : -1, POLLIN, 0});
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (const auto& [fd, conn] : conns_) {
        pfds.push_back({fd, POLLIN, 0});
        fds.push_back(fd);
      }
    }

    int n = ::poll(pfds.data(), pfds.size(), 100 /*ms*/);
    if (n < 0 && errno != EINTR) break;
    if (n <= 0) continue;

    if (pfds[0].revents & POLLIN) {
      char buf[256];
      while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
      }
    }

    if (pfds[1].revents & POLLIN) {
      while (true) {
        int cfd = ::accept(listen_fd_, nullptr, nullptr);
        if (cfd < 0) break;
        if (!SetNonBlocking(cfd).ok()) {
          ::close(cfd);
          continue;
        }
        int one = 1;
        ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        connections_accepted_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(conns_mu_);
        conns_.emplace(cfd, std::make_shared<Connection>(cfd));
      }
    }

    for (size_t i = 2; i < pfds.size(); ++i) {
      if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      ConnPtr conn;
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        auto it = conns_.find(fds[i - 2]);
        if (it == conns_.end()) continue;
        conn = it->second;
      }
      if (!ReadReady(conn)) {
        DropConnection(conn->fd);
      } else {
        TryDispatch(conn);
      }
    }
  }
}

bool GsoptServer::ReadReady(const ConnPtr& conn) {
  char buf[64 * 1024];
  while (true) {
    ssize_t r = ::read(conn->fd, buf, sizeof(buf));
    if (r > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(r));
      if (conn->inbuf.size() > kMaxFrameBytes + 5) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      continue;
    }
    if (r == 0) return false;  // EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }

  // Slice complete frames into the pending queue.
  while (true) {
    Frame f;
    int rc = ExtractFrame(&conn->inbuf, &f);
    if (rc < 0) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (rc == 0) break;
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->pending.push_back(std::move(f));
    // A client that pipelines unboundedly without reading responses is
    // hostile; cap the backlog we will hold for it.
    if (conn->pending.size() > 4096) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  return true;
}

Status GsoptServer::HandleHello(const ConnPtr& conn, const Frame& f) {
  if (f.type != FrameType::kHello) {
    return Status::InvalidArgument("first frame must be HELLO");
  }
  uint32_t version = 0;
  std::string tenant;
  Status s = DecodeHello(f.payload, &version, &tenant);
  if (!s.ok()) return s;
  if (version != kProtocolVersion) {
    return Status::InvalidArgument(
        "protocol version mismatch: client " + std::to_string(version) +
        ", server " + std::to_string(kProtocolVersion));
  }
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) {
      auto state = std::make_unique<TenantState>();
      auto qit = options_.tenant_quotas.find(tenant);
      state->quota = qit != options_.tenant_quotas.end()
                         ? qit->second
                         : options_.default_quota;
      it = tenants_.emplace(tenant, std::move(state)).first;
    }
    conn->tenant = it->second.get();
  }
  conn->hello_done = true;
  std::string payload = EncodeHelloOk(kProtocolVersion, "gsopt");
  std::lock_guard<std::mutex> wlock(conn->write_mu);
  return WriteFrame(conn->fd, FrameType::kHelloOk, payload);
}

void GsoptServer::WriteError(const ConnPtr& conn, const Status& status) {
  if (status.code() == StatusCode::kShed) {
    // attributed by the caller to the right shed counter
  } else {
    responses_error_.fetch_add(1, std::memory_order_relaxed);
  }
  std::string payload = EncodeError(status);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  (void)WriteFrame(conn->fd, FrameType::kError, payload);
}

void GsoptServer::TryDispatch(const ConnPtr& conn) {
  // Admit pending frames in order until the connection goes busy (one
  // request at a time preserves response ordering) or the queue empties.
  while (true) {
    Frame f;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (!conn->alive || conn->busy || conn->pending.empty()) return;
      f = std::move(conn->pending.front());
      conn->pending.pop_front();
    }

    if (!conn->hello_done) {
      Status s = HandleHello(conn, f);
      if (!s.ok()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        WriteError(conn, s);
        DropConnection(conn->fd);
        return;
      }
      continue;  // handshake answered inline; next pending frame
    }

    switch (f.type) {
      case FrameType::kQuery:
      case FrameType::kPrepare:
      case FrameType::kExecute:
        break;
      default:
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        WriteError(conn, Status::InvalidArgument(
                             "unexpected frame type " +
                             std::to_string(static_cast<int>(f.type))));
        DropConnection(conn->fd);
        return;
    }

    // --- Admission control (header comment: drain, tenant, queue). ---
    if (draining_.load()) {
      sheds_draining_.fetch_add(1, std::memory_order_relaxed);
      WriteError(conn, Status::Shed("server draining"));
      continue;
    }
    TenantState* tenant = conn->tenant;
    int prev = tenant->in_flight.fetch_add(1, std::memory_order_relaxed);
    if (prev >= tenant->quota.max_concurrent) {
      tenant->in_flight.fetch_sub(1, std::memory_order_relaxed);
      sheds_tenant_quota_.fetch_add(1, std::memory_order_relaxed);
      WriteError(conn, Status::Shed("tenant concurrency quota exceeded (" +
                                    std::to_string(prev) + " in flight)"));
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (queue_.size() >= options_.max_queue) {
        tenant->in_flight.fetch_sub(1, std::memory_order_relaxed);
        sheds_queue_full_.fetch_add(1, std::memory_order_relaxed);
        WriteError(conn,
                   Status::Shed("admission queue full (" +
                                std::to_string(queue_.size()) + " queued)"));
        continue;
      }
      {
        std::lock_guard<std::mutex> clock(conn->mu);
        conn->busy = true;
        conn->current = std::move(f);
      }
      in_flight_.fetch_add(1, std::memory_order_relaxed);
      requests_admitted_.fetch_add(1, std::memory_order_relaxed);
      queue_.push_back(conn);
      BumpHighWater(&queue_high_water_, queue_.size());
    }
    queue_cv_.notify_one();
    return;  // busy now; the worker re-enqueues us for the next frame
  }
}

void GsoptServer::WorkerLoop() {
  while (true) {
    ConnPtr conn;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return workers_should_exit_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (workers_should_exit_) return;
        continue;
      }
      conn = std::move(queue_.front());
      queue_.pop_front();
    }
    ServeRequest(conn);
    conn->tenant->in_flight.fetch_sub(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->busy = false;
    }
    // Hand the connection back to the dispatcher for its next frame.
    {
      std::lock_guard<std::mutex> lock(recheck_mu_);
      recheck_.push_back(std::move(conn));
    }
    if (in_flight_.fetch_sub(1, std::memory_order_relaxed) == 1) {
      // Lock pairs with Stop()'s predicate check so the last-request
      // notification cannot slip between its check and its sleep.
      std::lock_guard<std::mutex> lock(queue_mu_);
      drain_cv_.notify_all();
    }
    Wake();
  }
}

void GsoptServer::ServeRequest(const ConnPtr& conn) {
  Frame f;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->alive) return;
    f = std::move(conn->current);
  }

  // Per-request budget from the tenant quota, with the soft-pressure rung:
  // a deep admission queue shrinks the optimization/execution deadline so
  // the syntactic fallback sheds plan-search work and the backlog drains.
  const TenantQuota& quota = conn->tenant->quota;
  ResourceBudget budget;
  auto deadline = quota.deadline;
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    depth = queue_.size();
  }
  if (deadline.count() > 0 &&
      depth >= std::max<size_t>(1, options_.max_queue / 2)) {
    deadline = std::chrono::microseconds(static_cast<int64_t>(
        static_cast<double>(deadline.count()) * kPressureDeadlineFactor));
    if (deadline.count() < 1000) deadline = std::chrono::microseconds(1000);
  }
  if (deadline.count() > 0) budget.WithDeadlineAfter(deadline);
  if (quota.max_rows != ResourceBudget::kUnlimited) {
    budget.WithMaxRows(quota.max_rows);
  }
  if (quota.max_memory != ResourceBudget::kUnlimited) {
    budget.WithMaxMemory(quota.max_memory);
  }
  ExecuteOptions xo;
  xo.WithBudget(&budget);

  StatusOr<QueryResult> result =
      Status::Internal("request fell through unhandled");
  switch (f.type) {
    case FrameType::kQuery: {
      std::string sql;
      Status s = DecodeSql(f.payload, &sql);
      result = s.ok() ? session_->Query(sql, xo) : StatusOr<QueryResult>(s);
      break;
    }
    case FrameType::kPrepare: {
      std::string sql;
      Status s = DecodeSql(f.payload, &sql);
      if (!s.ok()) {
        WriteError(conn, s);
        return;
      }
      auto stmt = session_->Prepare(sql, &budget);
      if (!stmt.ok()) {
        WriteError(conn, stmt.status());
        return;
      }
      uint64_t id = conn->next_stmt_id++;
      uint32_t num_params = static_cast<uint32_t>(stmt.value().num_params());
      conn->stmts.emplace(id, std::move(stmt).value());
      std::string payload = EncodePrepared(id, num_params);
      std::lock_guard<std::mutex> lock(conn->write_mu);
      (void)WriteFrame(conn->fd, FrameType::kPrepared, payload);
      return;
    }
    case FrameType::kExecute: {
      uint64_t id = 0;
      std::vector<Value> params;
      Status s = DecodeExecute(f.payload, &id, &params);
      if (!s.ok()) {
        WriteError(conn, s);
        return;
      }
      auto it = conn->stmts.find(id);
      if (it == conn->stmts.end()) {
        WriteError(conn, Status::InvalidArgument("unknown statement id " +
                                                 std::to_string(id)));
        return;
      }
      result = it->second.Execute(std::move(params), xo);
      break;
    }
    default:
      return;  // unreachable: TryDispatch filtered types
  }

  if (!result.ok()) {
    WriteError(conn, result.status());
    return;
  }
  const QueryResult& qr = result.value();
  WireResult wire;
  wire.cache_hit = qr.cache_hit;
  wire.degraded = qr.degradation.degraded();
  wire.rung = static_cast<uint8_t>(qr.degradation.rung);
  wire.transient_retries = static_cast<uint32_t>(qr.transient_retries);
  std::string payload = EncodeRows(wire, qr.rows);
  if (wire.degraded) {
    degraded_served_.fetch_add(1, std::memory_order_relaxed);
  }
  responses_rows_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  (void)WriteFrame(conn->fd, FrameType::kRows, payload);
}

}  // namespace gsopt::server
