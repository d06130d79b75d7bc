// Serve front-end benchmark + acceptance gate (DESIGN.md §14).
//
// Three sections over an in-process service::Server on the loopback:
//
//   identity   — every served kp / ecdh / ecdsa payload is byte-compared
//                against workload_payload() over the direct library
//                replay, at 1 worker and again at 4 workers. Any
//                mismatch exits nonzero: the service must add nothing
//                and lose nothing, for any worker count. This section is
//                deterministic (digests, cycles, instruction counts) and
//                is the part CI diffs against the committed
//                BENCH_serve.json.
//   wall       — per-endpoint throughput: `--iters` requests per
//                connection from 4 concurrent connections, reporting
//                sustained requests/s and p50/p99 latency from a
//                telemetry::Histogram of per-call microseconds. Wall
//                numbers are reported but never byte-compared; CI only
//                enforces a generous regression floor on kp rps.
//   coalesce   — the A/B behind the batching claim: the same pipelined
//                blast of identical kp requests against a coalescing
//                server and a `coalesce=false` server, one worker each.
//                The coalescing server must actually group requests
//                (serve.coalesced > 0) and, under --enforce, beat the
//                one-replay-per-request server by >= 1.2x.
//
// Flags follow the shared bench::Args convention; tool flags are
// `--quick` (tiny sizes for the ctest smoke run), `--enforce` (turn the
// coalesce speedup target into the exit code) and `--conns=N` (client
// connections in the wall/coalesce sections).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "armvm/dispatch.h"
#include "manifest.h"
#include "report.h"
#include "service/client.h"
#include "service/server.h"
#include "telemetry/metrics.h"
#include "workloads/spec.h"

using namespace eccm0;

namespace {

const char* const kOps[] = {"kp", "ecdh", "ecdsa"};

telemetry::Json workload_params(const std::string& curve) {
  telemetry::Json p = telemetry::Json::object();
  p.set("curve", telemetry::Json::str(curve));
  p.set("reps", telemetry::Json::number(std::uint64_t{1}));
  return p;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One op's identity record: the direct-library payload (whose cycles,
/// instructions and output digest CI diffs) and the byte comparison.
struct IdentityRow {
  std::string op;
  telemetry::Json direct;
  bool match = false;
};

/// Byte-compare the served payload against the direct library call, on a
/// server with `workers` workers. Fills `rows` (same values for every
/// worker count — that is the point) and returns false on any mismatch.
bool check_identity(unsigned workers, const std::string& curve,
                    armvm::Cpu::DecodeMode engine,
                    telemetry::MetricsRegistry* metrics,
                    std::vector<IdentityRow>& rows) {
  service::ServerConfig cfg;
  cfg.workers = workers;
  cfg.metrics = metrics;
  cfg.engine = engine;
  service::Server server(cfg);
  server.start();
  service::Client client;
  client.connect_to(server.port());

  bool ok = true;
  rows.clear();
  for (const char* op : kOps) {
    const workloads::WorkloadSpec spec = workloads::make_workload(op, curve);
    IdentityRow row;
    row.op = op;
    row.direct = service::workload_payload(
        spec, 1, workloads::replay(spec, engine), engine, {});
    const std::string want = row.direct.dump();

    const telemetry::Json resp = client.call(op, workload_params(curve));
    const std::string got = resp.get("ok")->as_bool()
                                ? resp.get("payload")->dump()
                                : resp.get("error")->dump();
    row.match = got == want;
    rows.push_back(row);
    if (!row.match) {
      std::fprintf(stderr,
                   "FAIL: %s payload diverged from the direct call at "
                   "%u worker(s)\n  served: %s\n  direct: %s\n",
                   op, workers, got.c_str(), want.c_str());
      ok = false;
    }
  }
  server.stop();
  return ok;
}

struct WallResult {
  std::uint64_t requests = 0;
  double seconds = 0.0;
  telemetry::Histogram latency_us;
  bool ok = true;

  double rps() const { return seconds > 0 ? requests / seconds : 0.0; }
};

/// `conns` concurrent connections, each issuing `per_conn` sequential
/// requests; per-call latency lands in a per-thread histogram shard.
WallResult blast(std::uint16_t port, const std::string& op,
                 const telemetry::Json& params, unsigned conns,
                 std::uint64_t per_conn) {
  std::vector<telemetry::Histogram> shards(conns);
  std::vector<char> thread_ok(conns, 1);
  std::vector<std::thread> threads;
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      try {
        service::Client client;
        client.connect_to(port);
        for (std::uint64_t i = 0; i < per_conn; ++i) {
          const auto s = std::chrono::steady_clock::now();
          const telemetry::Json resp = client.call(op, params);
          const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                              std::chrono::steady_clock::now() - s)
                              .count();
          shards[c].record(static_cast<std::uint64_t>(us));
          if (!resp.get("ok")->as_bool()) thread_ok[c] = 0;
        }
      } catch (const std::exception&) {
        thread_ok[c] = 0;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  WallResult r;
  r.seconds = seconds_since(t0);
  for (unsigned c = 0; c < conns; ++c) {
    r.latency_us.merge(shards[c]);
    if (thread_ok[c] == 0) r.ok = false;
  }
  r.requests = r.latency_us.count();
  return r;
}

/// How long the coalesce A/B parks its one worker before the blast.
constexpr std::uint64_t kHoldMs = 100;

/// The coalesce A/B load: every connection pipelines `per_conn`
/// identical requests (write all frames, then read all responses), so
/// the queue actually holds duplicates for the worker to group. The
/// clients connect first; then a `sleep` request, which never
/// coalesces, parks the worker and every frame is written right behind
/// it. So the duplicates are queued before the worker turns to them,
/// however the threads were scheduled. The timed window opens when the
/// sleep is answered, so it covers the work on the duplicates alone.
WallResult blast_pipelined(std::uint16_t port, const std::string& op,
                           const telemetry::Json& params, unsigned conns,
                           std::uint64_t per_conn) {
  const auto answered_ok = [](int fd) {
    std::string body;
    return service::wire::read_frame(fd, body) &&
           telemetry::Json::parse(body).get("ok")->as_bool();
  };
  WallResult r;
  r.requests = conns * per_conn;
  try {
    service::Client hold;
    hold.connect_to(port);
    std::vector<service::Client> clients(conns);
    for (service::Client& c : clients) c.connect_to(port);

    telemetry::Json sleep_params = telemetry::Json::object();
    sleep_params.set("ms", telemetry::Json::number(kHoldMs));
    r.ok = service::wire::write_frame(
        hold.fd(), service::wire::make_request(1, "sleep", sleep_params).dump());
    for (service::Client& c : clients) {
      for (std::uint64_t i = 0; i < per_conn; ++i) {
        r.ok = r.ok && service::wire::write_frame(
                           c.fd(),
                           service::wire::make_request(i + 1, op, params).dump());
      }
    }
    r.ok = r.ok && answered_ok(hold.fd());
    const auto t0 = std::chrono::steady_clock::now();
    for (service::Client& c : clients) {
      for (std::uint64_t i = 0; i < per_conn; ++i) {
        r.ok = r.ok && answered_ok(c.fd());
      }
    }
    r.seconds = seconds_since(t0);
  } catch (const std::exception&) {
    r.ok = false;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool enforce = false;
  std::uint64_t conns64 = 4;
  bench::Args args;
  args.iters = 8;    // requests per connection in the wall section
  args.threads = 0;  // serve workers in the wall section (0 = hw)
  args.add_flag("--quick", &quick);
  args.add_flag("--enforce", &enforce);
  args.add_u64("--conns", &conns64);
  if (!args.parse(argc - 1, argv + 1, "BENCH_serve.json") ||
      !args.positionals().empty()) {
    return 2;
  }
  armvm::Cpu::DecodeMode engine;
  try {
    engine = armvm::decode_mode_from_name(args.engine);
    workloads::curve_from_name(args.curve);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  const unsigned conns = quick ? 2 : static_cast<unsigned>(conns64);
  const std::uint64_t per_conn =
      quick ? 1 : (args.iters == 0 ? 1 : args.iters);
  const std::uint64_t coalesce_per_conn = quick ? 2 : 2 * per_conn;
  const unsigned id_workers[2] = {1u, quick ? 2u : 4u};

  bench::banner("serve front-end - identity, throughput, coalescing");

  // ---- identity (deterministic; the CI diff section) -----------------
  telemetry::MetricsRegistry id_metrics;
  std::vector<IdentityRow> rows, rows_again;
  if (!check_identity(id_workers[0], args.curve, engine, &id_metrics, rows) ||
      !check_identity(id_workers[1], args.curve, engine, nullptr,
                      rows_again)) {
    return 1;
  }
  bench::Table id_table({"op", "sim cycles", "sim instr", "output digest",
                         "served == direct"});
  for (const IdentityRow& r : rows) {
    char digest[32];
    std::snprintf(
        digest, sizeof(digest), "%016llx",
        static_cast<unsigned long long>(r.direct.get("output_digest")->as_u64()));
    id_table.add_row({r.op + "-" + args.curve,
                      r.direct.get("cycles")->token(),
                      r.direct.get("instructions")->token(), digest,
                      r.match ? "yes" : "NO"});
  }
  id_table.print();
  std::printf("payloads byte-identical at %u and %u worker(s)\n\n",
              id_workers[0], id_workers[1]);

  // ---- wall: per-endpoint sustained throughput -----------------------
  service::ServerConfig wall_cfg;
  wall_cfg.workers = args.threads;
  wall_cfg.engine = engine;
  service::Server wall_server(wall_cfg);
  wall_server.start();
  const unsigned wall_workers = wall_server.config().workers == 0
                                    ? sim::BatchExecutor(0).threads()
                                    : wall_server.config().workers;

  const telemetry::Json params = workload_params(args.curve);
  bench::Table wall_table(
      {"op", "requests", "rps", "p50 ms", "p99 ms", "all ok"});
  struct WallRow {
    std::string op;
    WallResult r;
  };
  std::vector<WallRow> wall_rows;
  bool wall_ok = true;
  for (const char* op : kOps) {
    WallResult r = blast(wall_server.port(), op, params, conns, per_conn);
    wall_ok = wall_ok && r.ok;
    wall_table.add_row(
        {op, bench::fmt_u64(r.requests), bench::fmt_f(r.rps(), 1),
         bench::fmt_f(r.latency_us.quantile(0.5) / 1000.0, 2),
         bench::fmt_f(r.latency_us.quantile(0.99) / 1000.0, 2),
         r.ok ? "yes" : "NO"});
    wall_rows.push_back({op, std::move(r)});
  }
  wall_server.stop();
  wall_table.print();
  std::printf("%u connection(s) x %llu request(s), %u worker(s)\n\n", conns,
              static_cast<unsigned long long>(per_conn), wall_workers);
  if (!wall_ok) {
    std::fprintf(stderr, "FAIL: wall section saw errored requests\n");
    return 1;
  }

  // ---- coalesce A/B: one worker, identical pipelined kp requests -----
  const std::uint64_t coalesce_total = conns * coalesce_per_conn;
  service::ServerConfig ab_cfg;
  ab_cfg.workers = 1;
  ab_cfg.engine = engine;
  ab_cfg.queue_depth = coalesce_total + 8;  // backpressure off: measure work

  ab_cfg.coalesce = false;
  service::Server plain(ab_cfg);
  plain.start();
  const WallResult plain_r =
      blast_pipelined(plain.port(), "kp", params, conns, coalesce_per_conn);
  plain.stop();

  ab_cfg.coalesce = true;
  service::Server batched(ab_cfg);
  batched.start();
  const WallResult batched_r =
      blast_pipelined(batched.port(), "kp", params, conns, coalesce_per_conn);
  // A worker counts a group after sending its last response, so read the
  // counter only once stop() has joined the worker.
  batched.stop();
  const std::uint64_t coalesced =
      batched.metrics().counter_value("serve.coalesced");

  if (!plain_r.ok || !batched_r.ok) {
    std::fprintf(stderr, "FAIL: coalesce A/B saw errored requests\n");
    return 1;
  }
  if (coalesced == 0) {
    std::fprintf(stderr,
                 "FAIL: coalescing server never grouped identical "
                 "requests (serve.coalesced == 0)\n");
    return 1;
  }
  const double coalesce_speedup = batched_r.rps() / plain_r.rps();
  std::printf("coalesce A/B (%llu identical kp, 1 worker): "
              "one-per-run %.1f rps, coalesced %.1f rps (%.2fx, "
              "%llu request(s) coalesced away%s)\n",
              static_cast<unsigned long long>(coalesce_total), plain_r.rps(),
              batched_r.rps(), coalesce_speedup,
              static_cast<unsigned long long>(coalesced),
              enforce ? ", target >= 1.2x" : "");

  if (args.json) {
    using telemetry::Json;
    Json p = Json::object();
    p.set("bench", Json::str("serve"));
    // Deterministic section: CI byte-diffs this object against the
    // committed baseline (jq .payload.identity).
    Json identity = Json::object();
    identity.set("engine", Json::str(args.engine));
    identity.set("curve", Json::str(args.curve));
    Json checked = Json::array();
    for (unsigned workers : id_workers) {
      Json wj = Json::object();
      wj.set("workers", Json::number(std::uint64_t{workers}));
      checked.push(std::move(wj));
    }
    identity.set("workers_checked", std::move(checked));
    for (const IdentityRow& r : rows) {
      Json oj = Json::object();
      for (const char* key : {"cycles", "instructions", "output_digest"}) {
        oj.set(key, *r.direct.get(key));
      }
      oj.set("served_equals_direct", Json::boolean(r.match));
      identity.set(r.op, std::move(oj));
    }
    identity.set("bit_identical", Json::boolean(true));
    p.set("identity", std::move(identity));
    // Wall section: reported, never byte-compared (CI only floors kp rps).
    Json wall = Json::object();
    wall.set("connections", Json::number(std::uint64_t{conns}));
    wall.set("per_connection", Json::number(per_conn));
    wall.set("workers", Json::number(std::uint64_t{wall_workers}));
    for (const WallRow& row : wall_rows) {
      Json oj = Json::object();
      oj.set("requests", Json::number(row.r.requests));
      oj.set("rps", Json::number(row.r.rps()));
      oj.set("p50_us", Json::number(row.r.latency_us.quantile(0.5)));
      oj.set("p99_us", Json::number(row.r.latency_us.quantile(0.99)));
      wall.set(row.op, std::move(oj));
    }
    p.set("wall", std::move(wall));
    Json coalesce = Json::object();
    coalesce.set("requests", Json::number(coalesce_total));
    coalesce.set("plain_rps", Json::number(plain_r.rps()));
    coalesce.set("coalesced_rps", Json::number(batched_r.rps()));
    coalesce.set("speedup", Json::number(coalesce_speedup));
    coalesce.set("coalesced_requests", Json::number(coalesced));
    p.set("coalesce", std::move(coalesce));
    bench::write_manifest(args.json_path, "bench_serve", std::move(p), &args,
                          &id_metrics);
  }
  return (enforce && coalesce_speedup < 1.2) ? 2 : 0;
}
