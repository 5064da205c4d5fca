#include "runners.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>

#include "algebra/execute.h"
#include "answers.h"
#include "base/check.h"
#include "base/rng.h"
#include "core/plan_cache.h"
#include "core/session.h"
#include "pipeline.h"
#include "server/client.h"
#include "server/server.h"
#include "sql/binder.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using gsopt::Catalog;
using gsopt::Relation;
using gsopt::Rng;
using gsopt::Value;

// Set-up is repeated and its median reported, so one slow set-up does not
// move setup_s.
constexpr int kSetupRepeats = 5;
// serve_warm: connections and server workers; plan_cold: threads sharing
// one Session.
constexpr int kThreads = 2;
// plan_cold's pool: far larger than the plan cache (256 entries) and the
// statement-text memo (1024 entries), visited in a cycle so LRU never hits.
constexpr size_t kColdPoolSize = 4096;
// plan_cold warm-up: texts from the end of the pool, evicted long before
// the measured cycle reaches them.
constexpr size_t kColdWarmup = 256;
// mutate_mix: one write before every kReadsPerWrite reads, so each write is
// followed by a read of every statement.
constexpr uint64_t kReadsPerWrite = 36;
// Traced runs alternate slices with tracing off and on.
constexpr double kSliceSeconds = 0.25;
// Throughput and CPU per query are medians over samples of this length.
constexpr double kSampleSeconds = 1.0;
// latency_p99_us is a median over chunks of this many consecutive
// requests, so each chunk has ten samples beyond its 99th percentile.
constexpr size_t kTailChunk = 1000;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

Clock::time_point Deadline(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
}

uint64_t ThreadSeed(uint64_t seed, int thread) {
  return seed * 0x9E3779B97F4A7C15ull + 1000 + static_cast<uint64_t>(thread);
}

// num / den, or 0 when den is 0.
template <typename A, typename B>
double Ratio(A num, B den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

// The corruption hook of the self-test: drops the last row of the first
// non-empty answer it is shown.
class Corruptor {
 public:
  explicit Corruptor(bool armed) : armed_(armed) {}
  void Apply(Relation* rows) {
    if (rows->NumRows() > 0 && Claim()) *rows = DropLastRow(*rows);
  }
  void Apply(gsopt::server::WireResult* wire) {
    if (!wire->rows.empty() && Claim()) wire->rows.pop_back();
  }

 private:
  bool Claim() {
    return armed_.load(std::memory_order_relaxed) && armed_.exchange(false);
  }
  std::atomic<bool> armed_;
};

// Throughput and CPU per query over consecutive samples of a window. The
// reported values are the medians, so a burst of interference from outside
// the process moves them less than a whole-window mean would.
struct Samples {
  std::vector<double> qps;
  std::vector<double> cpu_us_per_query;

  void Add(double seconds, uint64_t answered, double cpu_seconds) {
    if (seconds <= 0.0 || answered == 0) return;
    qps.push_back(static_cast<double>(answered) / seconds);
    cpu_us_per_query.push_back(cpu_seconds * 1e6 /
                               static_cast<double>(answered));
  }
};

// Samples a shared answered-query count and the process CPU time every
// kSampleSeconds on its own thread, until Stop().
class Sampler {
 public:
  explicit Sampler(const std::atomic<uint64_t>* answered)
      : answered_(answered), thread_([this] { Loop(); }) {}
  ~Sampler() { Stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  Samples Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return samples_;
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    Clock::time_point t0 = Clock::now();
    double cpu0 = ProcessCpuSeconds();
    uint64_t n0 = answered_->load();
    const auto period = std::chrono::duration<double>(kSampleSeconds);
    while (!cv_.wait_for(lock, period, [this] { return stop_; })) {
      const Clock::time_point t1 = Clock::now();
      const double cpu1 = ProcessCpuSeconds();
      const uint64_t n1 = answered_->load();
      samples_.Add(std::chrono::duration<double>(t1 - t0).count(), n1 - n0,
                   cpu1 - cpu0);
      t0 = t1;
      cpu0 = cpu1;
      n0 = n1;
    }
  }

  const std::atomic<uint64_t>* answered_;
  std::mutex mu_;  // guards stop_ and samples_
  std::condition_variable cv_;
  bool stop_ = false;
  Samples samples_;
  std::thread thread_;  // last: it uses the members above
};

// One measured window of requests.
struct Window {
  std::vector<double> latencies_us;
  std::vector<double> done_s;  // completion time of each request, in order
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t answered = 0;
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  Samples samples;

  void Merge(const Window& o) {
    latencies_us.insert(latencies_us.end(), o.latencies_us.begin(),
                        o.latencies_us.end());
    done_s.insert(done_s.end(), o.done_s.begin(), o.done_s.end());
    attempted += o.attempted;
    failed += o.failed;
    answered += o.answered;
  }
};

// The 99th percentile of a typical stretch of the window: the median, over
// chunks of kTailChunk requests in completion order, of each chunk's 99th
// percentile. A burst of interference from outside the process lands in
// few chunks, so it moves this less than the whole-window percentile.
// Windows of fewer than three chunks report the whole-window percentile.
double ChunkedP99(const Window& w) {
  std::vector<size_t> order(w.latencies_us.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&w](size_t a, size_t b) { return w.done_s[a] < w.done_s[b]; });
  std::vector<double> tails;
  for (size_t begin = 0; begin + kTailChunk <= order.size();
       begin += kTailChunk) {
    std::vector<double> chunk;
    for (size_t k = begin; k < begin + kTailChunk; ++k) {
      chunk.push_back(w.latencies_us[order[k]]);
    }
    tails.push_back(Quantile(std::move(chunk), 0.99));
  }
  return tails.size() >= 3 ? Median(std::move(tails))
                           : Quantile(w.latencies_us, 0.99);
}

void AddEndToEnd(const Window& w, const std::vector<double>& setup_seconds,
                 RunResult* r) {
  r->attempted += w.attempted;
  r->failed += w.failed;
  const double answered =
      static_cast<double>(std::max<uint64_t>(w.answered, 1));
  // Runs too short for three samples report whole-window figures.
  const bool sampled = w.samples.qps.size() >= 3;
  r->Add("qps",
         sampled ? Median(w.samples.qps)
                 : static_cast<double>(w.answered) / w.seconds,
         "1/s");
  r->Add("latency_p50_us", Quantile(w.latencies_us, 0.50), "us");
  r->Add("latency_p99_us", ChunkedP99(w), "us");
  r->Add("cpu_us_per_query",
         sampled ? Median(w.samples.cpu_us_per_query)
                 : w.cpu_seconds * 1e6 / answered,
         "us");
  r->Add("setup_s", Median(setup_seconds), "s");
  r->Add("peak_rss_mb", PeakRssMb(), "MB");
  r->Note("latency samples: " + std::to_string(w.latencies_us.size()) +
          " over " + std::to_string(w.seconds) + " s; whole-window p99 " +
          std::to_string(Quantile(w.latencies_us, 0.99)) + " us");
  std::string qps_samples = "qps per sample:";
  for (double q : w.samples.qps) {
    qps_samples += ' ';
    qps_samples += std::to_string(static_cast<int>(q));
  }
  r->Note(qps_samples);
}

// What one request of a closed loop did.
struct Outcome {
  double latency_us = 0.0;
  bool answered = false;  // the program returned an answer
  bool correct = false;   // ...and it matched its reference
};

// Closed loop on `threads` threads for `seconds`: each thread sends its next
// request, request(thread, i) for i = 0, 1, ..., when the previous one is
// answered.
Window ClosedLoop(int threads, double seconds,
                  const std::function<Outcome(int, uint64_t)>& request) {
  std::vector<Window> per_thread(static_cast<size_t>(threads));
  std::atomic<uint64_t> answered{0};
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = Deadline(start, seconds);
  Sampler sampler(&answered);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Window& w = per_thread[static_cast<size_t>(t)];
      for (uint64_t i = 0; Clock::now() < deadline; ++i) {
        const Outcome out = request(t, i);
        ++w.attempted;
        w.latencies_us.push_back(out.latency_us);
        w.done_s.push_back(SecondsBetween(start, Clock::now()));
        if (out.answered) {
          ++w.answered;
          answered.fetch_add(1, std::memory_order_relaxed);
        }
        if (!out.correct) ++w.failed;
      }
    });
  }
  for (std::thread& th : pool) th.join();
  Window w;
  w.samples = sampler.Stop();
  for (const Window& tw : per_thread) w.Merge(tw);
  w.seconds = SecondsBetween(start, Clock::now());
  w.cpu_seconds = ProcessCpuSeconds() - cpu0;
  return w;
}

// --- serve_warm / mutate_mix references ------------------------------------

// The as-written answer of every (statement, $1) on one catalog version:
// gsopt::Execute of the bound tree, no optimizer, no plan cache.
struct WarmReferences {
  std::vector<gsopt::NodePtr> bound;  // per statement, $1 unbound
  std::vector<std::vector<Relation>> rows;
  std::vector<std::vector<AnswerDigest>> digests;
};

gsopt::StatusOr<Relation> AsWrittenAnswer(const gsopt::NodePtr& bound,
                                          int64_t param,
                                          const Catalog& catalog) {
  GSOPT_ASSIGN_OR_RETURN(gsopt::NodePtr tree,
                         gsopt::SubstituteParams(bound, {Value::Int(param)}));
  return gsopt::Execute(tree, catalog);
}

WarmReferences ComputeWarmReferences(const Catalog& catalog) {
  WarmReferences refs;
  for (const WarmStatement& stmt : WarmStatements()) {
    auto bound = gsopt::sql::ParseAndBind(stmt.sql, catalog);
    GSOPT_CHECK_MSG(bound.ok(), bound.status().ToString().c_str());
    refs.bound.push_back(*bound);
    refs.rows.emplace_back();
    refs.digests.emplace_back();
    for (int64_t param : stmt.params) {
      auto rows = AsWrittenAnswer(*bound, param, catalog);
      GSOPT_CHECK_MSG(rows.ok(), rows.status().ToString().c_str());
      refs.digests.back().push_back(DigestOf(*rows));
      refs.rows.back().push_back(std::move(rows).value());
    }
  }
  return refs;
}

// Request i of a thread: statements round-robin, $1 drawn by the seed.
std::pair<size_t, size_t> WarmDraw(uint64_t i, int thread, Rng* rng) {
  const std::vector<WarmStatement>& stmts = WarmStatements();
  const size_t s = static_cast<size_t>(i + static_cast<uint64_t>(thread)) %
                   stmts.size();
  const size_t p = static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(stmts[s].params.size()) - 1));
  return {s, p};
}

// mutate_mix's reads: statements round-robin, each statement's $1 drawn
// once per catalog version (Redraw after every write), so a write adds one
// (statement, $1, version) key per statement to check.
class MutateDraw {
 public:
  explicit MutateDraw(uint64_t seed) : rng_(ThreadSeed(seed, 0)) { Redraw(); }
  void Redraw() {
    params_.clear();
    for (const WarmStatement& stmt : WarmStatements()) {
      params_.push_back(static_cast<size_t>(
          rng_.Uniform(0, static_cast<int64_t>(stmt.params.size()) - 1)));
    }
  }
  std::pair<size_t, size_t> operator()(uint64_t read) const {
    const size_t s = static_cast<size_t>(read % params_.size());
    return {s, params_[s]};
  }

 private:
  Rng rng_;
  std::vector<size_t> params_;
};

// --- serve_warm ------------------------------------------------------------

// An in-process gsopt_server on loopback with one prepared statement per
// (connection, warm statement).
class WarmServer {
 public:
  explicit WarmServer(const Catalog& catalog) {
    gsopt::server::ServerOptions options;
    options.num_workers = kThreads;
    server_ = std::make_unique<gsopt::server::GsoptServer>(catalog, options);
    gsopt::Status started = server_->Start();
    GSOPT_CHECK_MSG(started.ok(), started.ToString().c_str());
    for (int c = 0; c < kThreads; ++c) {
      auto client = gsopt::server::Client::Connect("127.0.0.1",
                                                   server_->port(), "bench");
      GSOPT_CHECK_MSG(client.ok(), client.status().ToString().c_str());
      clients_.push_back(std::move(client).value());
      ids_.emplace_back();
      for (const WarmStatement& stmt : WarmStatements()) {
        auto id = clients_.back().Prepare(stmt.sql);
        GSOPT_CHECK_MSG(id.ok(), id.status().ToString().c_str());
        ids_.back().push_back(*id);
      }
    }
  }
  ~WarmServer() {
    clients_.clear();
    server_->Stop();
  }
  WarmServer(const WarmServer&) = delete;
  WarmServer& operator=(const WarmServer&) = delete;

  gsopt::StatusOr<gsopt::server::WireResult> Execute(int client, size_t stmt,
                                                     int64_t param) {
    return clients_[static_cast<size_t>(client)].Execute(
        ids_[static_cast<size_t>(client)][stmt], {Value::Int(param)});
  }
  gsopt::server::GsoptServer& server() { return *server_; }

 private:
  std::unique_ptr<gsopt::server::GsoptServer> server_;
  std::vector<gsopt::server::Client> clients_;
  std::vector<std::vector<uint64_t>> ids_;
};

// Executes every (statement, $1) once on every connection. Connection 0's
// answers are compared with Relation::BagEquals, the others by digest.
void WarmUpServer(WarmServer* ws, const WarmReferences& refs,
                  Corruptor* corruptor, RunResult* r) {
  const std::vector<WarmStatement>& stmts = WarmStatements();
  for (int c = 0; c < kThreads; ++c) {
    for (size_t s = 0; s < stmts.size(); ++s) {
      for (size_t p = 0; p < stmts[s].params.size(); ++p) {
        ++r->attempted;
        auto got = ws->Execute(c, s, stmts[s].params[p]);
        if (!got.ok()) {
          ++r->failed;
          continue;
        }
        corruptor->Apply(&*got);
        const bool same =
            c == 0 ? Relation::BagEquals(RelationOf(*got), refs.rows[s][p])
                   : DigestOf(*got) == refs.digests[s][p];
        if (!same) ++r->failed;
      }
    }
  }
}

// Each connection EXECUTEs the warm statements round-robin; every answer
// is compared with its reference by digest.
Window ServerWindow(WarmServer* ws, const WarmReferences& refs, uint64_t seed,
                    double seconds, Corruptor* corruptor,
                    std::atomic<uint64_t>* not_cache_hits) {
  std::vector<Rng> rngs;
  for (int t = 0; t < kThreads; ++t) rngs.emplace_back(ThreadSeed(seed, t));
  return ClosedLoop(kThreads, seconds, [&](int t, uint64_t i) {
    auto [s, p] = WarmDraw(i, t, &rngs[static_cast<size_t>(t)]);
    const Clock::time_point q0 = Clock::now();
    auto got = ws->Execute(t, s, WarmStatements()[s].params[p]);
    Outcome out{MicrosBetween(q0, Clock::now()), got.ok(), false};
    if (got.ok()) {
      if (!got->cache_hit) not_cache_hits->fetch_add(1);
      corruptor->Apply(&*got);
      out.correct = DigestOf(*got) == refs.digests[s][p];
    }
    return out;
  });
}

RunResult ServeWarm(const RunOptions& o) {
  RunResult r;
  Corruptor corruptor(o.corrupt_one_answer);
  std::vector<double> setup_seconds;
  std::unique_ptr<WarmReferences> refs;
  std::unique_ptr<WarmServer> ws;
  std::unique_ptr<Catalog> catalog;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    ws.reset();
    catalog.reset();
    const Clock::time_point t0 = Clock::now();
    catalog = std::make_unique<Catalog>(MakeWarmCatalog(o.seed));
    double excluded = 0.0;
    if (refs == nullptr) {  // the check's references are not set-up work
      const Clock::time_point c0 = Clock::now();
      refs = std::make_unique<WarmReferences>(ComputeWarmReferences(*catalog));
      excluded = SecondsBetween(c0, Clock::now());
    }
    ws = std::make_unique<WarmServer>(*catalog);
    WarmUpServer(ws.get(), *refs, &corruptor, &r);
    setup_seconds.push_back(SecondsBetween(t0, Clock::now()) - excluded);
  }

  gsopt::Session& session = ws->server().session();
  const gsopt::PlanCacheStats cache0 = session.cache_stats();
  const uint64_t epoch0 = session.epoch();
  std::atomic<uint64_t> not_hits{0};
  Window w = ServerWindow(ws.get(), *refs, o.seed, o.seconds, &corruptor,
                          &not_hits);
  const gsopt::PlanCacheStats cache1 = session.cache_stats();
  const gsopt::server::ServerStats stats = ws->server().stats();
  AddEndToEnd(w, setup_seconds, &r);

  // Guard: every request was a plan-cache hit and nothing was optimized.
  if (not_hits != 0) {
    r.Fail(std::to_string(not_hits.load()) + " answers were not cache hits");
  }
  if (cache1.misses != cache0.misses || cache1.inserts != cache0.inserts ||
      session.epoch() != epoch0) {
    r.Fail("the server optimized during the measured window");
  }
  if (stats.sheds_total() != 0) r.Fail("the server shed requests");
  return r;
}

// --- plan_cold -------------------------------------------------------------

RunResult PlanCold(const RunOptions& o) {
  RunResult r;
  Corruptor corruptor(o.corrupt_one_answer);
  std::vector<double> setup_seconds;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<ColdPool> pool;
  std::unique_ptr<gsopt::Session> session;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    session.reset();
    pool.reset();
    catalog.reset();
    const Clock::time_point t0 = Clock::now();
    catalog = std::make_unique<Catalog>(MakeColdCatalog(o.seed));
    pool = std::make_unique<ColdPool>(
        MakeColdPool(o.seed, *catalog, kColdPoolSize));
    session = std::make_unique<gsopt::Session>(*catalog);
    for (size_t i = pool->texts.size() - kColdWarmup;
         i < pool->texts.size(); ++i) {
      ++r.attempted;
      auto got = session->Query(pool->texts[i].sql);
      if (!got.ok() ||
          !Relation::BagEquals(got->rows, pool->texts[i].reference)) {
        ++r.failed;
      }
    }
    setup_seconds.push_back(SecondsBetween(t0, Clock::now()));
  }
  const std::vector<ColdText>& texts = pool->texts;
  r.Note("plan_cold pool: " + std::to_string(texts.size()) + " texts kept of " +
         std::to_string(pool->generated) + " generated; dropped " +
         std::to_string(pool->dropped_row_bound) + " over the row bound, " +
         std::to_string(pool->dropped_duplicate) + " duplicate shapes, " +
         std::to_string(pool->dropped_unemittable) +
         " outside the SQL surface");

  // The first answer to each text is kept and compared with BagEquals
  // after the window; repeats are compared by digest inside it.
  std::vector<std::atomic<bool>> seen(texts.size());
  std::vector<std::vector<std::pair<size_t, Relation>>> first(kThreads);
  std::atomic<uint64_t> unenumerated{0};
  std::atomic<uint64_t> next{0};
  const gsopt::PlanCacheStats cache0 = session->cache_stats();
  Window w = ClosedLoop(kThreads, o.seconds, [&](int t, uint64_t) {
    const size_t i = next.fetch_add(1) % texts.size();
    const Clock::time_point q0 = Clock::now();
    auto got = session->Query(texts[i].sql);
    Outcome out{MicrosBetween(q0, Clock::now()), got.ok(), false};
    if (!got.ok()) return out;
    // One Enumerate call per miss: a miss whose counters show no DP work
    // did not search.
    if (!got->cache_hit && got->counters.dp_cells == 0) {
      unenumerated.fetch_add(1);
    }
    corruptor.Apply(&got->rows);
    if (!seen[i].exchange(true)) {
      first[static_cast<size_t>(t)].emplace_back(i, std::move(got->rows));
      out.correct = true;  // checked after the window
    } else {
      out.correct = DigestOf(got->rows) == texts[i].digest;
    }
    return out;
  });
  const gsopt::PlanCacheStats cache1 = session->cache_stats();
  for (const auto& kept : first) {
    for (const auto& [i, rows] : kept) {
      if (!Relation::BagEquals(rows, texts[i].reference)) ++w.failed;
    }
  }
  AddEndToEnd(w, setup_seconds, &r);

  const uint64_t hits = cache1.hits - cache0.hits;
  const uint64_t lookups = hits + cache1.misses - cache0.misses;
  r.Note("plan cache: " + std::to_string(hits) + " hits in " +
         std::to_string(lookups) + " lookups");
  if (lookups == 0 || Ratio(hits, lookups) > 0.01) {
    r.Fail("plan_cold hit the plan cache on more than 1% of lookups");
  }
  if (unenumerated != 0) {
    r.Fail(std::to_string(unenumerated.load()) + " misses ran no enumeration");
  }
  return r;
}

// --- mutate_mix ------------------------------------------------------------

// The answer check of mutate_mix: one reference per (statement, $1,
// catalog version), computed when that key is first answered.
class VersionedCheck {
 public:
  VersionedCheck(const WarmReferences& refs, const Catalog& catalog,
                 Corruptor* corruptor)
      : refs_(refs), catalog_(catalog), corruptor_(corruptor) {}

  bool Check(size_t s, size_t p, Relation* answer) {
    corruptor_->Apply(answer);
    const auto key = std::make_tuple(s, p, catalog_.version());
    auto it = digests_.find(key);
    if (it != digests_.end()) return DigestOf(*answer) == it->second;
    auto reference = AsWrittenAnswer(refs_.bound[s],
                                     WarmStatements()[s].params[p], catalog_);
    if (!reference.ok()) return false;
    digests_.emplace(key, DigestOf(*reference));
    return Relation::BagEquals(*answer, *reference);
  }

 private:
  const WarmReferences& refs_;
  const Catalog& catalog_;
  Corruptor* corruptor_;
  std::map<std::tuple<size_t, size_t, uint64_t>, AnswerDigest> digests_;
};

RunResult MutateMix(const RunOptions& o) {
  RunResult r;
  Corruptor corruptor(o.corrupt_one_answer);
  const std::vector<WarmStatement>& stmts = WarmStatements();
  std::vector<double> setup_seconds;
  std::unique_ptr<WarmReferences> refs;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<gsopt::Session> session;
  std::vector<gsopt::PreparedStatement> prepared;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    prepared.clear();
    session.reset();
    catalog.reset();
    const Clock::time_point t0 = Clock::now();
    catalog = std::make_unique<Catalog>(MakeWarmCatalog(o.seed));
    double excluded = 0.0;
    if (refs == nullptr) {
      const Clock::time_point c0 = Clock::now();
      refs = std::make_unique<WarmReferences>(ComputeWarmReferences(*catalog));
      excluded = SecondsBetween(c0, Clock::now());
    }
    session = std::make_unique<gsopt::Session>(*catalog);
    for (const WarmStatement& stmt : stmts) {
      auto p = session->Prepare(stmt.sql);
      GSOPT_CHECK_MSG(p.ok(), p.status().ToString().c_str());
      prepared.push_back(std::move(p).value());
    }
    for (size_t s = 0; s < stmts.size(); ++s) {
      for (size_t p = 0; p < stmts[s].params.size(); ++p) {
        ++r.attempted;
        auto got = prepared[s].Execute({Value::Int(stmts[s].params[p])});
        if (!got.ok()) {
          ++r.failed;
          continue;
        }
        corruptor.Apply(&got->rows);
        if (!Relation::BagEquals(got->rows, refs->rows[s][p])) ++r.failed;
      }
    }
    setup_seconds.push_back(SecondsBetween(t0, Clock::now()) - excluded);
  }

  // One thread: the catalog may only be written while no read is in
  // flight. Time spent checking answers is excluded from the window.
  VersionedCheck check(*refs, *catalog, &corruptor);
  MutateDraw draw(o.seed);
  Rng write_rng(ThreadSeed(o.seed, 99));
  Window w;
  uint64_t writes = 0;
  int64_t busy_ns = 0;
  double check_cpu = 0.0;
  const uint64_t epoch0 = session->epoch();
  const uint64_t invalidations0 = session->cache_stats().invalidations;
  const double cpu0 = ProcessCpuSeconds();
  // Samples are cut on the busy clock, with the check's CPU left out.
  int64_t sample_busy_ns = 0;
  uint64_t sample_answered = 0;
  double sample_cpu = cpu0;
  for (uint64_t reads = 0;; ++reads) {
    if (reads > 0 && reads % kReadsPerWrite == 0) {
      if (static_cast<double>(busy_ns) * 1e-9 >= o.seconds) break;
      const Clock::time_point w0 = Clock::now();
      gsopt::Status s = InsertWarmRow(writes, &write_rng, catalog.get());
      busy_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - w0).count();
      GSOPT_CHECK_MSG(s.ok(), s.ToString().c_str());
      ++writes;
      draw.Redraw();
    }
    auto [s, p] = draw(reads);
    ++w.attempted;
    const Clock::time_point q0 = Clock::now();
    // Session::optimizer() notices the catalog version moved (a prepared
    // Execute alone compares against the session's last epoch only).
    (void)session->optimizer();
    auto got = prepared[s].Execute({Value::Int(stmts[s].params[p])});
    const Clock::time_point q1 = Clock::now();
    busy_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(q1 - q0).count();
    w.latencies_us.push_back(MicrosBetween(q0, q1));
    w.done_s.push_back(static_cast<double>(busy_ns) * 1e-9);
    if (!got.ok()) {
      ++w.failed;
      continue;
    }
    ++w.answered;
    const double c0 = ProcessCpuSeconds();
    if (static_cast<double>(busy_ns - sample_busy_ns) >= kSampleSeconds * 1e9) {
      w.samples.Add(static_cast<double>(busy_ns - sample_busy_ns) * 1e-9,
                    w.answered - sample_answered, c0 - check_cpu - sample_cpu);
      sample_busy_ns = busy_ns;
      sample_answered = w.answered;
      sample_cpu = c0 - check_cpu;
    }
    if (!check.Check(s, p, &got->rows)) ++w.failed;
    check_cpu += ProcessCpuSeconds() - c0;
  }
  w.seconds = static_cast<double>(busy_ns) * 1e-9;
  w.cpu_seconds = ProcessCpuSeconds() - cpu0 - check_cpu;
  AddEndToEnd(w, setup_seconds, &r);

  const uint64_t rebuilds = session->epoch() - epoch0;
  const uint64_t invalidations =
      session->cache_stats().invalidations - invalidations0;
  r.Note("mutate_mix: " + std::to_string(writes) + " writes, " +
         std::to_string(rebuilds) + " optimizer rebuilds, " +
         std::to_string(invalidations) + " template invalidations");
  if (writes == 0) r.Fail("no writes in the window");
  if (rebuilds != writes) r.Fail("optimizer rebuilds do not equal writes");
  if (invalidations != writes * stmts.size()) {
    r.Fail("template invalidations do not track writes");
  }
  return r;
}

// --- traced runs -----------------------------------------------------------

// What the traced run learned from the server itself (serve_warm only).
struct ServerSide {
  double overhead_us = 0.0;
  double queue_high_water = 0.0;
  double sheds = 0.0;
};

// Alternates kSliceSeconds slices with tracing off and on, on `threads`
// threads. `step` serves one request on the given thread and adds the
// time it spent serving (not checking) to *busy_ns.
struct SliceRun {
  std::vector<std::unique_ptr<PipelineContext>> contexts;
  PipelineCounters all;     // every request
  PipelineCounters traced;  // requests in traced slices
  double qps[2] = {0.0, 0.0};  // [traced]
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

using Step =
    std::function<bool(int thread, PipelineContext* ctx, int64_t* busy_ns)>;

SliceRun RunSlices(int threads, double seconds, const Step& step) {
  SliceRun out;
  for (int t = 0; t < threads; ++t) {
    out.contexts.push_back(std::make_unique<PipelineContext>(false));
  }
  struct Tally {
    PipelineCounters counters[2];
    uint64_t requests[2] = {0, 0};
    int64_t ns[2] = {0, 0};
    uint64_t attempted = 0;
    uint64_t failed = 0;
  };
  std::vector<Tally> tallies(static_cast<size_t>(threads));
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = Deadline(start, seconds);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      PipelineContext* ctx = out.contexts[static_cast<size_t>(t)].get();
      Tally& tally = tallies[static_cast<size_t>(t)];
      for (Clock::time_point now = start; now < deadline; now = Clock::now()) {
        const int traced =
            static_cast<int>(SecondsBetween(start, now) / kSliceSeconds) % 2;
        ctx->trace.set_enabled(traced == 1);
        int64_t busy = 0;
        const int64_t verify_before = ctx->verify_ns;
        const bool ok = step(t, ctx, &busy);
        busy -= ctx->verify_ns - verify_before;
        ++tally.attempted;
        if (!ok) ++tally.failed;
        tally.requests[traced] += 1;
        tally.ns[traced] += busy;
        tally.counters[traced].Add(ctx->counters);
        ctx->counters = PipelineCounters{};
      }
      ctx->trace.set_enabled(false);
    });
  }
  for (std::thread& th : pool) th.join();
  for (const Tally& tally : tallies) {
    out.all.Add(tally.counters[0]);
    out.all.Add(tally.counters[1]);
    out.traced.Add(tally.counters[1]);
    for (int m = 0; m < 2; ++m) {
      if (tally.ns[m] > 0) {
        out.qps[m] += static_cast<double>(tally.requests[m]) * 1e9 /
                      static_cast<double>(tally.ns[m]);
      }
    }
    out.attempted += tally.attempted;
    out.failed += tally.failed;
  }
  return out;
}

// Every per-layer metric, from the spans and counters of a SliceRun.
void AddLayerMetrics(const SliceRun& run, uint64_t writes,
                     const ServerSide& server, const RunOptions& o,
                     RunResult* r) {
  std::vector<const TraceBuffer*> buffers;
  for (const auto& ctx : run.contexts) buffers.push_back(&ctx->trace);
  const TraceSummary s = Summarize(buffers);
  if (!o.trace_out.empty()) {
    std::ofstream out(o.trace_out);
    WriteSpans(buffers, out);
    if (!out) r->Note("could not write spans to " + o.trace_out);
  }
  std::map<std::string, SpanTotals> spans = s.request_spans;
  for (const auto& [name, t] : s.side_spans) {
    SpanTotals& m = spans[name];
    m.calls += t.calls;
    m.inclusive_ns += t.inclusive_ns;
    m.self_ns += t.self_ns;
  }
  auto per_call_us = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0
                             : 1e-3 * Ratio(it->second.inclusive_ns,
                                            it->second.calls);
  };
  auto module_calls = [&](const std::string& module) {
    uint64_t calls = 0;
    for (const auto& [name, t] : s.request_spans) {
      if (ModuleOf(name) == module) calls += t.calls;
    }
    return Ratio(calls, s.requests);
  };
  const PipelineCounters& all = run.all;
  const PipelineCounters& traced = run.traced;
  auto timed = [&](const std::string& metric, const char* span) {
    r->Add(metric, per_call_us(span), "us");
  };

  timed("sql.parse_bind_us", "sql.parse_bind");
  r->Add("sql.calls_per_query", module_calls("sql"), "1/query");
  timed("core.parameterize_us", "core.parameterize");
  timed("core.cache_lookup_us", "core.cache_lookup");
  r->Add("core.lookups_per_query",
         Ratio(all.lookups, all.requests), "1/query");
  r->Add("core.cache_hit_frac", Ratio(all.hits, all.hits + all.misses),
         "frac");
  r->Add("core.cache_invalidations", Ratio(all.invalidations, writes),
         "1/write");
  timed("core.substitute_us", "core.substitute");
  timed("core.optimize_us", "core.optimize");
  r->Add("core.optimize_calls_per_query",
         Ratio(all.optimizations, all.requests), "1/query");
  timed("algebra.simplify_us", "algebra.simplify");
  timed("algebra.normalize_us", "algebra.normalize");
  timed("algebra.wrappers_us", "algebra.wrappers");
  r->Add("algebra.calls_per_query", module_calls("algebra"), "1/query");
  timed("hypergraph.build_us", "hypergraph.build");
  r->Add("hypergraph.calls_per_query", module_calls("hypergraph"), "1/query");
  timed("enumerate.enumerate_us", "enumerate.enumerate");
  r->Add("enumerate.calls_per_query", module_calls("enumerate"), "1/query");
  r->Add("enumerate.subplans", Ratio(all.subplans, all.enumerations), "count");
  r->Add("enumerate.dp_cells", Ratio(all.dp_cells, all.enumerations), "count");
  r->Add("enumerate.pruned_frac", Ratio(all.dp_pruned, all.subplans), "frac");
  timed("optimizer.cost_us", "optimizer.cost");
  timed("optimizer.order_pass_us", "optimizer.order_pass");
  r->Add("optimizer.plans_considered",
         Ratio(all.plans_considered, all.optimizations), "count");
  timed("optimizer.stats_collect_us", "optimizer.stats_collect");
  r->Add("optimizer.stats_collects_per_write", Ratio(all.rebuilds, writes),
         "1/write");
  timed("relational.catalog_get_us", "relational.catalog_get");
  timed("relational.insert_us", "relational.insert");
  timed("exec.execute_us", "exec.execute");
  const std::vector<std::string>& ops = OperatorNames();
  for (size_t i = 0; i < ops.size(); ++i) {
    r->Add("exec.self_us." + ops[i],
           1e-3 * Ratio(traced.op_self_ns[i], traced.requests), "us");
  }
  r->Add("exec.rows_in_per_row_out", Ratio(traced.rows_in, traced.result_rows),
         "ratio");
  r->Add("exec.probe_rows", Ratio(traced.probe_rows, traced.requests),
         "rows/query");
  r->Add("exec.bloom_reject_frac",
         Ratio(traced.bloom_rejects, traced.bloom_checks), "frac");
  r->Add("server.overhead_us", server.overhead_us, "us");
  timed("server.encode_rows_us", "server.encode_rows");
  timed("server.decode_rows_us", "server.decode_rows");
  r->Add("server.queue_high_water", server.queue_high_water, "count");
  r->Add("server.sheds", server.sheds, "count");
  static const char* kModules[] = {"sql",        "core",      "algebra",
                                   "hypergraph", "enumerate", "optimizer",
                                   "relational", "exec",      "server"};
  std::string shares = "self-time shares:";
  for (const char* module : kModules) {
    int64_t self = 0;
    for (const auto& [name, t] : s.request_spans) {
      if (ModuleOf(name) == module) self += t.self_ns;
    }
    const double frac = Ratio(self, s.request_ns);
    r->Add(std::string(module) + ".self_frac", frac, "frac");
    shares += ' ';
    shares += module;
    shares += '=';
    shares += std::to_string(frac);
  }
  r->Note(shares);
  r->Add("trace.overhead_frac",
         run.qps[0] > 0 ? 1.0 - run.qps[1] / run.qps[0] : 0.0, "frac");
  r->Add("trace.remainder_frac", Ratio(s.remainder_ns, s.request_ns), "frac");
  r->Add("trace.requests", static_cast<double>(s.requests), "count");
  r->Add("trace.spans", static_cast<double>(s.spans), "count");
  r->Add("trace.cost_mismatches", static_cast<double>(all.cost_mismatches),
         "count");
  r->attempted += run.attempted;
  r->failed += run.failed;
  r->Add("bench.fail_frac", Ratio(r->failed, r->attempted), "frac");

  // The trace's own invariants (the self-test runs every workload briefly
  // and relies on these).
  if (s.open_spans != 0 || s.bad_nesting != 0 || s.negative_self != 0) {
    r->Fail("spans do not nest: " + std::to_string(s.open_spans) + " open, " +
            std::to_string(s.bad_nesting) + " misnested, " +
            std::to_string(s.negative_self) + " with negative self time");
  }
  if (s.max_request_sum_error_ns != 0) {
    r->Fail("a request's self times do not add up to its latency");
  }
  if (s.requests == 0) r->Fail("no traced requests");
  if (all.cost_mismatches != 0) {
    r->Fail("the split optimizer pipeline and QueryOptimizer::Optimize "
            "picked plans of different cost");
  }
}

// Compares a pipeline answer with its reference; wire answers by digest.
bool SameAnswer(PipelineAnswer* answer, const Relation& reference,
                const AnswerDigest& digest, bool first, Corruptor* corruptor) {
  if (answer->wire.has_value()) {
    corruptor->Apply(&*answer->wire);
    if (first) return Relation::BagEquals(RelationOf(*answer->wire), reference);
    return DigestOf(*answer->wire) == digest;
  }
  corruptor->Apply(&answer->rows);
  if (first) return Relation::BagEquals(answer->rows, reference);
  return DigestOf(answer->rows) == digest;
}

int64_t NsSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
      .count();
}

RunResult ServeWarmTraced(const RunOptions& o) {
  RunResult r;
  Corruptor corruptor(o.corrupt_one_answer);
  const std::vector<WarmStatement>& stmts = WarmStatements();
  Catalog catalog = MakeWarmCatalog(o.seed);
  const WarmReferences refs = ComputeWarmReferences(catalog);
  ServerSide server;

  // 1. Through the server, untraced: the client-observed p50.
  double client_p50 = 0.0;
  {
    WarmServer ws(catalog);
    WarmUpServer(&ws, refs, &corruptor, &r);
    std::atomic<uint64_t> not_hits{0};
    Window w = ServerWindow(&ws, refs, o.seed, 0.3 * o.seconds, &corruptor,
                            &not_hits);
    r.attempted += w.attempted;
    r.failed += w.failed;
    client_p50 = Quantile(w.latencies_us, 0.5);
    const gsopt::server::ServerStats stats = ws.server().stats();
    server.queue_high_water = static_cast<double>(stats.queue_high_water);
    server.sheds = static_cast<double>(stats.sheds_total());
    if (not_hits != 0) r.Fail("server answers were not cache hits");
  }

  // 2. The same request mix through PreparedStatement::Execute in process.
  {
    gsopt::Session session(catalog);
    std::vector<std::vector<gsopt::PreparedStatement>> prepared(kThreads);
    std::vector<Rng> rngs;
    for (int t = 0; t < kThreads; ++t) {
      for (const WarmStatement& stmt : stmts) {
        auto p = session.Prepare(stmt.sql);
        GSOPT_CHECK_MSG(p.ok(), p.status().ToString().c_str());
        prepared[static_cast<size_t>(t)].push_back(std::move(p).value());
      }
      rngs.emplace_back(ThreadSeed(o.seed, t));
    }
    Window w = ClosedLoop(kThreads, 0.2 * o.seconds, [&](int t, uint64_t i) {
      const size_t ti = static_cast<size_t>(t);
      auto [s, p] = WarmDraw(i, t, &rngs[ti]);
      const Clock::time_point q0 = Clock::now();
      auto got = prepared[ti][s].Execute({Value::Int(stmts[s].params[p])});
      return Outcome{MicrosBetween(q0, Clock::now()), got.ok(),
                     got.ok() && DigestOf(got->rows) == refs.digests[s][p]};
    });
    r.attempted += w.attempted;
    r.failed += w.failed;
    server.overhead_us = client_p50 - Quantile(w.latencies_us, 0.5);
  }

  // 3. The split pipeline, traced and untraced slices.
  Pipeline pipeline(catalog, /*wire=*/true, /*refresh_on_execute=*/false);
  std::vector<std::vector<Pipeline::Statement>> prepared(kThreads);
  std::vector<Rng> rngs;
  std::vector<uint64_t> counts(kThreads, 0);
  PipelineContext setup_ctx(false);
  for (int t = 0; t < kThreads; ++t) {
    for (const WarmStatement& stmt : stmts) {
      auto p = pipeline.Prepare(stmt.sql, &setup_ctx);
      GSOPT_CHECK_MSG(p.ok(), p.status().ToString().c_str());
      prepared[static_cast<size_t>(t)].push_back(std::move(p).value());
    }
    rngs.emplace_back(ThreadSeed(o.seed, t));
  }
  SliceRun run = RunSlices(kThreads, 0.5 * o.seconds,
                           [&](int t, PipelineContext* ctx, int64_t* busy) {
    const size_t ti = static_cast<size_t>(t);
    auto [s, p] = WarmDraw(counts[ti]++, t, &rngs[ti]);
    const Clock::time_point q0 = Clock::now();
    auto got = pipeline.Execute(&prepared[ti][s],
                                {Value::Int(stmts[s].params[p])}, ctx);
    *busy = NsSince(q0);
    return got.ok() && SameAnswer(&*got, refs.rows[s][p], refs.digests[s][p],
                                  false, &corruptor);
  });
  AddLayerMetrics(run, 0, server, o, &r);
  if (run.all.misses != 0 || run.all.optimizations != 0) {
    r.Fail("serve_warm optimized after warm-up");
  }
  return r;
}

RunResult PlanColdTraced(const RunOptions& o) {
  RunResult r;
  Corruptor corruptor(o.corrupt_one_answer);
  Catalog catalog = MakeColdCatalog(o.seed);
  const ColdPool pool = MakeColdPool(o.seed, catalog, kColdPoolSize);
  const std::vector<ColdText>& texts = pool.texts;
  Pipeline pipeline(catalog, /*wire=*/false, /*refresh_on_execute=*/false);
  std::vector<std::atomic<bool>> seen(texts.size());
  std::atomic<uint64_t> next{0};
  SliceRun run = RunSlices(kThreads, o.seconds,
                           [&](int, PipelineContext* ctx, int64_t* busy) {
    const size_t i = next.fetch_add(1) % texts.size();
    const Clock::time_point q0 = Clock::now();
    auto got = pipeline.Query(texts[i].sql, ctx);
    *busy = NsSince(q0);
    return got.ok() && SameAnswer(&*got, texts[i].reference, texts[i].digest,
                                  !seen[i].exchange(true), &corruptor);
  });
  AddLayerMetrics(run, 0, ServerSide{}, o, &r);
  const PipelineCounters& c = run.all;
  if (Ratio(c.hits, c.hits + c.misses) > 0.01) {
    r.Fail("plan_cold hit the plan cache on more than 1% of requests");
  }
  if (c.enumerations != c.misses) r.Fail("Enumerate calls do not equal misses");
  return r;
}

RunResult MutateMixTraced(const RunOptions& o) {
  RunResult r;
  Corruptor corruptor(o.corrupt_one_answer);
  const std::vector<WarmStatement>& stmts = WarmStatements();
  Catalog catalog = MakeWarmCatalog(o.seed);
  const WarmReferences refs = ComputeWarmReferences(catalog);
  VersionedCheck check(refs, catalog, &corruptor);
  Pipeline pipeline(catalog, /*wire=*/false, /*refresh_on_execute=*/true);
  std::vector<Pipeline::Statement> prepared;
  PipelineContext setup_ctx(false);
  for (const WarmStatement& stmt : stmts) {
    auto p = pipeline.Prepare(stmt.sql, &setup_ctx);
    GSOPT_CHECK_MSG(p.ok(), p.status().ToString().c_str());
    prepared.push_back(std::move(p).value());
  }
  MutateDraw draw(o.seed);
  Rng write_rng(ThreadSeed(o.seed, 99));
  uint64_t reads = 0;
  uint64_t writes = 0;
  SliceRun run = RunSlices(1, o.seconds,
                           [&](int, PipelineContext* ctx, int64_t* busy) {
    const Clock::time_point q0 = Clock::now();
    if (reads > 0 && reads % kReadsPerWrite == 0) {
      const uint64_t request = ctx->next_request++;
      Span root(&ctx->trace, "bench.write", request);
      Span span(&ctx->trace, "relational.insert", request);
      gsopt::Status s = InsertWarmRow(writes, &write_rng, &catalog);
      GSOPT_CHECK_MSG(s.ok(), s.ToString().c_str());
      ++writes;
      draw.Redraw();
    }
    auto [s, p] = draw(reads++);
    auto got = pipeline.Execute(&prepared[s],
                                {Value::Int(stmts[s].params[p])}, ctx);
    *busy = NsSince(q0);
    return got.ok() && check.Check(s, p, &got->rows);
  });
  AddLayerMetrics(run, writes, ServerSide{}, o, &r);
  // The run can end between a write and the reads after it.
  const uint64_t settled = run.all.rebuilds;
  if (settled + 1 < writes || settled > writes) {
    r.Fail("optimizer rebuilds do not track writes");
  }
  if (run.all.invalidations + stmts.size() < writes * stmts.size() ||
      run.all.invalidations > writes * stmts.size()) {
    r.Fail("template invalidations do not track writes");
  }
  return r;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"serve_warm", "plan_cold",
                                                  "mutate_mix"};
  return kNames;
}

RunResult RunWorkload(const RunOptions& o) {
  if (o.workload == "serve_warm") {
    return o.trace ? ServeWarmTraced(o) : ServeWarm(o);
  }
  if (o.workload == "plan_cold") {
    return o.trace ? PlanColdTraced(o) : PlanCold(o);
  }
  if (o.workload == "mutate_mix") {
    return o.trace ? MutateMixTraced(o) : MutateMix(o);
  }
  RunResult r;
  r.Fail("unknown workload " + o.workload);
  return r;
}

}  // namespace perfbench
