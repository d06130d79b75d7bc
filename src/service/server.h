// The serve front-end: a long-running loopback service exposing the
// repo's crypto workloads (kP, ECDH agreement, ECDSA sign+verify) and
// campaign jobs (fault, memfault, sca, profile) over the versioned wire
// schema of wire.h (DESIGN.md §14).
//
// Threading model:
//
//   acceptor thread ──► session threads (one per connection; the
//                            │  acceptor joins finished ones before it
//                            │  starts the next)
//                            │  parse + validate; ping/stats/shutdown
//                            │  answered inline, work ops enqueued
//                            ▼
//                  sim::MpmcQueue<Job> (bounded; full ⇒ typed `busy`)
//                            │
//                            ▼
//          sim::BatchExecutor::run_workers — N worker threads, each
//          with a private workloads::ReplayImages shard (the registry
//          mutex is off the request hot path) and a coalescing drain:
//          identical concurrent workload requests are computed once
//          and every requester gets the byte-identical payload.
//
// Identity contract: every served payload is built by the same
// payload builders (service/payloads.h) a direct library call would
// use, over the same deterministic library results —
// so a response payload is bit-identical to the equivalent in-process
// call for any worker count, coalesced or not. The loopback tests and
// bench_serve hold this as an acceptance gate.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "armvm/cpu.h"
#include "armvm/memmodel.h"
#include "service/payloads.h"
#include "service/wire.h"
#include "sim/batch.h"
#include "sim/mpmc_queue.h"
#include "telemetry/metrics.h"
#include "workloads/spec.h"

namespace eccm0::service {

struct ServerConfig {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (read it back
  /// with Server::port() after start()).
  std::uint16_t port = 0;
  /// Worker threads draining the queue (0 = hardware concurrency).
  unsigned workers = 1;
  /// Bound of the work queue. Must be nonzero — a server that can admit
  /// no work is a configuration error, and the constructor throws
  /// std::invalid_argument rather than wedging every client.
  std::size_t queue_depth = 64;
  /// Execution engine / memory model for every VM run the server does.
  armvm::Cpu::DecodeMode engine = armvm::Cpu::kDefaultEngine;
  armvm::MemModelConfig mem_model{};
  /// Coalesce identical concurrent workload requests into one run.
  bool coalesce = true;
  /// Max jobs one worker drains per coalescing pass.
  std::size_t max_batch = 16;
  /// Optional external registry; the server owns a private one when
  /// null (the `stats` op serves whichever is active).
  telemetry::MetricsRegistry* metrics = nullptr;
};

class Server {
 public:
  /// Validates the config (throws std::invalid_argument on
  /// queue_depth == 0). Does not open the socket — that is start().
  explicit Server(const ServerConfig& config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind 127.0.0.1:port, start the acceptor, sessions and worker pool.
  /// Throws std::runtime_error if the socket cannot be opened.
  void start();

  /// Drain and tear everything down (idempotent, also under concurrent
  /// callers: later callers block until the first teardown finishes):
  /// stop accepting, close the queue (queued jobs still get answered),
  /// join workers, then sessions. Safe to call from any thread except
  /// a session/worker.
  void stop();

  /// Block until a `shutdown` request (or stop()) arrives, then stop().
  void wait();

  /// The bound port (valid after start()).
  std::uint16_t port() const { return port_; }

  /// True once a `shutdown` request was served (or stop() began).
  bool stop_requested() const {
    return stop_requested_.load(std::memory_order_acquire);
  }

  telemetry::MetricsRegistry& metrics() { return *metrics_; }
  const ServerConfig& config() const { return config_; }

 private:
  /// One accepted connection. The session thread owns the read side;
  /// workers write responses under the mutex. The fd closes when the
  /// last reference drops.
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    ~Connection();
    /// Serialize and frame `doc` (thread-safe). False on a dead peer.
    bool send(const telemetry::Json& doc);
    int fd;
    std::mutex write_mu;
  };

  struct Job {
    std::shared_ptr<Connection> conn;
    wire::Request req;
    std::uint64_t enqueue_ns = 0;
  };

  /// Per-worker state: the ReplayImages registry shard, keyed by
  /// workload name, resolved once per (worker, workload).
  struct WorkerState;

  void accept_loop();
  void session_loop(std::shared_ptr<Connection> conn);
  void worker_loop(unsigned worker);
  /// Serve one job group leader; returns the payload (throws typed).
  telemetry::Json handle(WorkerState& state, const Job& job);
  telemetry::Json stats_payload() const;
  void finish(const Job& job, const telemetry::Json& response, bool ok);

  ServerConfig config_;
  telemetry::MetricsRegistry own_metrics_;
  telemetry::MetricsRegistry* metrics_;
  sim::BatchExecutor exec_;
  sim::MpmcQueue<Job> queue_;

  /// Atomic: stop() retires it (exchange to -1, then close) while the
  /// acceptor snapshots it per iteration.
  std::atomic<int> listen_fd_{-1};
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  /// Guards the teardown in stop(); stopped_ is written under it.
  std::mutex stop_mu_;
  bool stopped_ = false;

  /// One session thread and its connection: weak, so a finished
  /// session does not hold the fd open, and stop() can still shut a
  /// live one down. The connection expires once the session thread and
  /// every job answering on it are done, which is when the accept loop
  /// joins and drops the session.
  struct Session {
    std::thread thread;
    std::weak_ptr<Connection> conn;
  };
  /// Join and drop every session whose connection has expired. Caller
  /// holds sessions_mu_.
  void reap_sessions_locked();

  std::thread acceptor_;
  std::thread pool_;
  /// Guards sessions_; mutable so stats_payload() can count them.
  mutable std::mutex sessions_mu_;
  std::vector<Session> sessions_;
};

}  // namespace eccm0::service
