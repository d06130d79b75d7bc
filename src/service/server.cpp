#include "service/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <stdexcept>
#include <utility>

#include "workloads/registry.h"

namespace eccm0::service {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A typed handler failure that maps to a wire error code.
struct OpError {
  wire::ErrorCode code;
  std::string message;
};

std::uint64_t param_u64(const telemetry::Json& params, const char* key,
                        std::uint64_t fallback) {
  const telemetry::Json* v = params.get(key);
  if (v == nullptr) return fallback;
  if (v->kind() != telemetry::Json::Kind::kNumber) {
    throw OpError{wire::ErrorCode::kBadParam,
                  std::string("param '") + key + "' must be a number"};
  }
  // as_u64 is strtoull underneath, which wraps "-1" to 2^64-1 — a
  // negative count must be a typed rejection, not a 10^19 work order.
  if (!v->token().empty() && v->token()[0] == '-') {
    throw OpError{wire::ErrorCode::kBadParam,
                  std::string("param '") + key +
                      "' must be a non-negative integer"};
  }
  return v->as_u64();
}

std::string param_str(const telemetry::Json& params, const char* key,
                      const std::string& fallback) {
  const telemetry::Json* v = params.get(key);
  if (v == nullptr) return fallback;
  if (v->kind() != telemetry::Json::Kind::kString) {
    throw OpError{wire::ErrorCode::kBadParam,
                  std::string("param '") + key + "' must be a string"};
  }
  return v->as_string();
}

bool is_workload_op(const std::string& op) {
  return op == "kp" || op == "ecdh" || op == "ecdsa";
}

bool is_known_op(const std::string& op) {
  return is_workload_op(op) || op == "campaign" || op == "memfault" ||
         op == "sca" || op == "profile" || op == "sleep";
}

}  // namespace

// ---- Connection ------------------------------------------------------

Server::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

bool Server::Connection::send(const telemetry::Json& doc) {
  const std::string body = doc.dump();
  std::lock_guard<std::mutex> lock(write_mu);
  return wire::write_frame(fd, body);
}

// ---- Server ----------------------------------------------------------

struct Server::WorkerState {
  std::map<std::string, workloads::ReplayImages> images;
  std::map<std::string, workloads::WorkloadSpec> specs;
};

Server::Server(const ServerConfig& config)
    : config_(config),
      metrics_(config.metrics != nullptr ? config.metrics : &own_metrics_),
      exec_(config.workers),
      queue_(config.queue_depth != 0
                 ? config.queue_depth
                 : throw std::invalid_argument(
                       "serve: queue_depth must be nonzero")) {
  if (config_.max_batch == 0) config_.max_batch = 1;
}

Server::~Server() { stop(); }

void Server::start() {
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) throw std::runtime_error("serve: socket() failed");
  const int one = 1;
  ::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(config_.port);
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(lfd, 64) < 0) {
    const int err = errno;
    ::close(lfd);
    throw std::runtime_error(std::string("serve: cannot listen on port ") +
                             std::to_string(config_.port) + ": " +
                             std::strerror(err));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  listen_fd_.store(lfd, std::memory_order_release);

  running_.store(true, std::memory_order_release);
  metrics_->gauge("serve.workers").set(exec_.threads());
  metrics_->gauge("serve.queue_depth").set(queue_.capacity());
  acceptor_ = std::thread([this] { accept_loop(); });
  pool_ = std::thread([this] {
    try {
      exec_.run_workers([this](unsigned w) { worker_loop(w); });
    } catch (...) {
      // A worker died outside per-job handling (should not happen);
      // request teardown rather than wedging clients forever.
      stop_requested_.store(true, std::memory_order_release);
    }
  });
}

void Server::stop() {
  stop_requested_.store(true, std::memory_order_release);
  running_.store(false, std::memory_order_release);

  // Serialize the teardown itself: a second concurrent caller (e.g.
  // the destructor racing a wait() thread) must block until the first
  // stop() has finished joining, not return into member destruction
  // while threads are still live.
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (stopped_) return;
  stopped_ = true;

  // The acceptor may be blocked in ::accept on this fd; shutdown wakes
  // it. The exchange keeps the fd value itself race-free with the
  // acceptor's per-iteration snapshot.
  const int lfd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
  }
  if (acceptor_.joinable()) acceptor_.join();

  // Closing the queue lets workers drain what is already admitted and
  // then exit; jobs in flight still get their responses. try_push fails
  // once the queue is closed, so a session racing this close gets a
  // failed push and answers `shutting_down` itself — no admitted job is
  // ever destroyed unanswered.
  queue_.close();
  if (pool_.joinable()) pool_.join();

  std::vector<Session> sessions;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions.swap(sessions_);
    for (const Session& s : sessions) {
      if (std::shared_ptr<Connection> c = s.conn.lock()) {
        ::shutdown(c->fd, SHUT_RDWR);
      }
    }
  }
  for (Session& s : sessions) {
    if (s.thread.joinable()) s.thread.join();
  }
}

void Server::wait() {
  while (!stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  stop();
}

void Server::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    const int lfd = listen_fd_.load(std::memory_order_acquire);
    if (lfd < 0) return;  // stop() already retired the socket
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket closed (stop()) or fatal
    }
    // Responses are small and latency-bound: never hold one back for
    // Nagle while the client's delayed ACK is pending.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(fd);
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (!running_.load(std::memory_order_acquire)) return;
    reap_sessions_locked();
    std::weak_ptr<Connection> weak = conn;
    std::thread t([this, conn = std::move(conn)] { session_loop(conn); });
    sessions_.push_back({std::move(t), std::move(weak)});
  }
}

void Server::reap_sessions_locked() {
  // The session thread holds its connection until the thread itself
  // winds down, so an expired connection means session_loop returned
  // (and no queued job still answers on it): the join does not block.
  std::erase_if(sessions_, [](Session& s) {
    if (!s.conn.expired()) return false;
    s.thread.join();
    return true;
  });
}

void Server::session_loop(std::shared_ptr<Connection> conn) {
  telemetry::Counter& busy = metrics_->counter("serve.busy");
  std::string body;
  for (;;) {
    bool bad_frame = false;
    if (!wire::read_frame(conn->fd, body, &bad_frame)) {
      if (bad_frame) {
        // The stream is desynchronized; answer once, then hang up.
        conn->send(wire::make_error(0, "", wire::ErrorCode::kBadFrame,
                                    "bad frame length prefix"));
      }
      break;
    }
    telemetry::Json doc;
    try {
      doc = telemetry::Json::parse(body);
    } catch (const std::exception& e) {
      conn->send(
          wire::make_error(0, "", wire::ErrorCode::kBadJson, e.what()));
      continue;
    }
    wire::RequestParse parsed = wire::parse_request(doc);
    if (!parsed.ok) {
      conn->send(wire::make_error(parsed.req.id, parsed.req.op, parsed.code,
                                  parsed.message));
      continue;
    }
    wire::Request& req = parsed.req;

    // Control-plane ops answer inline from the session thread: they
    // must work even when the work queue is saturated.
    if (req.op == "ping") {
      telemetry::Json p = telemetry::Json::object();
      p.set("pong", telemetry::Json::boolean(true));
      conn->send(wire::make_response(req.id, req.op, std::move(p)));
      continue;
    }
    if (req.op == "stats") {
      conn->send(wire::make_response(req.id, req.op, stats_payload()));
      continue;
    }
    if (req.op == "shutdown") {
      telemetry::Json p = telemetry::Json::object();
      p.set("stopping", telemetry::Json::boolean(true));
      // Raise the flag before acknowledging: a client that has read the
      // response must find stop_requested() already true.
      stop_requested_.store(true, std::memory_order_release);
      conn->send(wire::make_response(req.id, req.op, std::move(p)));
      continue;
    }
    if (!is_known_op(req.op)) {
      conn->send(wire::make_error(req.id, req.op,
                                  wire::ErrorCode::kUnknownOp,
                                  "op '" + req.op + "' is not served"));
      continue;
    }
    if (stop_requested()) {
      conn->send(wire::make_error(req.id, req.op,
                                  wire::ErrorCode::kShuttingDown,
                                  "server is draining"));
      continue;
    }
    const std::uint64_t id = req.id;
    const std::string op = req.op;
    Job job{conn, std::move(req), now_ns()};
    if (!queue_.try_push(std::move(job))) {
      if (queue_.closed()) {
        conn->send(wire::make_error(id, op, wire::ErrorCode::kShuttingDown,
                                    "server is draining"));
      } else {
        busy.add(1);
        conn->send(wire::make_error(
            id, op, wire::ErrorCode::kBusy,
            "work queue full (depth " + std::to_string(queue_.capacity()) +
                "); retry"));
      }
    }
  }
  ::shutdown(conn->fd, SHUT_RD);
}

telemetry::Json Server::stats_payload() const {
  telemetry::Json p = telemetry::Json::object();
  p.set("workers", telemetry::Json::number(std::uint64_t{exec_.threads()}));
  p.set("queue_depth", telemetry::Json::number(
                           static_cast<std::uint64_t>(queue_.capacity())));
  p.set("queued", telemetry::Json::number(
                      static_cast<std::uint64_t>(queue_.size_approx())));
  std::size_t sessions = 0;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sessions = sessions_.size();
  }
  p.set("sessions",
        telemetry::Json::number(static_cast<std::uint64_t>(sessions)));
  p.set("metrics", metrics_->snapshot_json(/*include_wall=*/true));
  return p;
}

telemetry::Json Server::handle(WorkerState& state, const Job& job) {
  const wire::Request& req = job.req;
  try {
    if (is_workload_op(req.op)) {
      const std::string curve = param_str(req.params, "curve", "sect233k1");
      const std::uint64_t reps64 = param_u64(req.params, "reps", 1);
      if (reps64 == 0 || reps64 > 1000) {
        throw OpError{wire::ErrorCode::kBadParam,
                      "param 'reps' must be in [1, 1000]"};
      }
      const unsigned reps = static_cast<unsigned>(reps64);
      const std::string key = req.op + "-" + curve;
      auto it = state.specs.find(key);
      if (it == state.specs.end()) {
        // First sight of this workload on this worker: resolve the spec
        // and its kernel images once; afterwards the hot path never
        // touches the registry mutex.
        workloads::WorkloadSpec spec = workloads::make_workload(req.op, curve);
        state.images.emplace(key, workloads::ReplayImages::resolve(spec));
        it = state.specs.emplace(key, std::move(spec)).first;
      }
      const workloads::WorkloadSpec& spec = it->second;
      const workloads::ReplayResult result = workloads::replay(
          spec, state.images.at(key), config_.engine, config_.mem_model, reps);
      metrics_->record("serve." + req.op + ".vm_cycles",
                       telemetry::Unit::kCycles, result.stats.cycles);
      return workload_payload(spec, reps, result, config_.engine,
                              config_.mem_model);
    }
    if (req.op == "campaign") {
      faultsim::CampaignConfig cfg;
      cfg.curve = param_str(req.params, "curve", cfg.curve);
      cfg.seed = param_u64(req.params, "seed", cfg.seed);
      const std::uint64_t runs = param_u64(req.params, "runs", 50);
      if (runs == 0 || runs > 1000) {
        throw OpError{wire::ErrorCode::kBadParam,
                      "param 'runs' must be in [1, 1000]"};
      }
      cfg.runs_per_model = runs;
      cfg.threads = 1;  // the serve workers are the parallelism
      cfg.engine = config_.engine;
      return campaign_payload(faultsim::run_kp_campaign(cfg));
    }
    if (req.op == "memfault") {
      faultsim::MemCampaignConfig cfg;
      cfg.curve = param_str(req.params, "curve", cfg.curve);
      cfg.seed = param_u64(req.params, "seed", cfg.seed);
      const std::uint64_t runs = param_u64(req.params, "runs", 20);
      if (runs == 0 || runs > 1000) {
        throw OpError{wire::ErrorCode::kBadParam,
                      "param 'runs' must be in [1, 1000]"};
      }
      cfg.runs_per_cell = runs;
      cfg.threads = 1;
      cfg.engine = config_.engine;
      return mem_campaign_payload(faultsim::run_mem_campaign(cfg));
    }
    if (req.op == "sca") {
      sca::CtConfig cfg;
      cfg.kernel = param_str(req.params, "kernel", cfg.kernel);
      cfg.seed = param_u64(req.params, "seed", cfg.seed);
      const std::uint64_t runs = param_u64(req.params, "runs", cfg.runs);
      if (runs < 2 || runs > 1000) {
        throw OpError{wire::ErrorCode::kBadParam,
                      "param 'runs' must be in [2, 1000]"};
      }
      cfg.runs = static_cast<unsigned>(runs);
      cfg.engine = config_.engine;
      return ct_payload(sca::check_kernel_constant_trace(cfg));
    }
    if (req.op == "profile") {
      const std::string kernel = param_str(req.params, "kernel", "mul");
      const std::uint64_t calls = param_u64(req.params, "calls", 1);
      if (calls == 0 || calls > 1000) {
        throw OpError{wire::ErrorCode::kBadParam,
                      "param 'calls' must be in [1, 1000]"};
      }
      return profile_payload(
          kernel, static_cast<unsigned>(calls),
          profile_kernel(kernel, static_cast<unsigned>(calls), config_.engine,
                         config_.mem_model));
    }
    if (req.op == "sleep") {
      // Diagnostic op: hold a worker for `ms` milliseconds. Exists so
      // tests and benches can saturate the bounded queue on purpose.
      const std::uint64_t ms = param_u64(req.params, "ms", 10);
      if (ms > 5000) {
        throw OpError{wire::ErrorCode::kBadParam,
                      "param 'ms' must be <= 5000"};
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
      telemetry::Json p = telemetry::Json::object();
      p.set("slept_ms", telemetry::Json::number(ms));
      return p;
    }
  } catch (const OpError&) {
    throw;
  } catch (const std::invalid_argument& e) {
    throw OpError{wire::ErrorCode::kBadParam, e.what()};
  } catch (const std::exception& e) {
    throw OpError{wire::ErrorCode::kInternal, e.what()};
  }
  throw OpError{wire::ErrorCode::kUnknownOp,
                "op '" + req.op + "' is not served"};
}

void Server::finish(const Job& job, const telemetry::Json& response,
                    bool ok) {
  // Count before answering, so a client that has its response finds the
  // request in the next `stats`; the latency still ends at the send.
  metrics_->counter("serve.requests").add(1);
  if (!ok) metrics_->counter("serve.errors").add(1);
  job.conn->send(response);
  metrics_->record("serve." + job.req.op + ".latency_ns",
                   telemetry::Unit::kNanos, now_ns() - job.enqueue_ns);
}

void Server::worker_loop(unsigned worker) {
  (void)worker;
  WorkerState state;
  telemetry::Counter& coalesced = metrics_->counter("serve.coalesced");
  Job first;
  while (queue_.pop_wait(first)) {
    std::vector<Job> batch;
    batch.push_back(std::move(first));
    if (config_.coalesce) {
      Job more;
      while (batch.size() < config_.max_batch && queue_.try_pop(more)) {
        batch.push_back(std::move(more));
      }
    }
    std::vector<bool> done(batch.size(), false);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (done[i]) continue;
      // Coalescing is deduplication: requests with the same op and the
      // same params dump share one library call, and every requester
      // gets the byte-identical payload — so a coalesced response
      // cannot differ from an uncoalesced one.
      std::vector<std::size_t> group{i};
      if (is_workload_op(batch[i].req.op)) {
        const std::string key =
            batch[i].req.op + "\n" + batch[i].req.params.dump();
        for (std::size_t j = i + 1; j < batch.size(); ++j) {
          if (done[j] || !is_workload_op(batch[j].req.op)) continue;
          if (batch[j].req.op + "\n" + batch[j].req.params.dump() == key) {
            group.push_back(j);
          }
        }
      }
      telemetry::Json payload;
      OpError err{wire::ErrorCode::kInternal, ""};
      bool ok = true;
      try {
        payload = handle(state, batch[i]);
      } catch (const OpError& e) {
        ok = false;
        err = e;
      }
      for (std::size_t j : group) {
        const telemetry::Json response =
            ok ? wire::make_response(batch[j].req.id, batch[j].req.op,
                                     payload)
               : wire::make_error(batch[j].req.id, batch[j].req.op, err.code,
                                  err.message);
        finish(batch[j], response, ok);
        done[j] = true;
      }
      if (group.size() > 1) coalesced.add(group.size() - 1);
    }
  }
}

}  // namespace eccm0::service
