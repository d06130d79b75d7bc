// Serve front-end: wire-schema envelopes (key order, typed error codes,
// framing), request validation, hostile frames, and the identity
// contract — every payload served over the socket is byte-identical to
// the equivalent direct library call, for any worker count, coalesced
// or not.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "armvm/dispatch.h"
#include "faultsim/campaign.h"
#include "report.h"
#include "sca/ct_check.h"
#include "service/client.h"
#include "service/server.h"
#include "service/wire.h"
#include "workloads/spec.h"

namespace eccm0::service {
namespace {

// ---- wire schema ----------------------------------------------------

TEST(Wire, RequestEnvelopeKeyOrderIsFixed) {
  telemetry::Json params = telemetry::Json::object();
  params.set("curve", telemetry::Json::str("sect233k1"));
  const telemetry::Json req = wire::make_request(7, "kp", std::move(params));
  EXPECT_EQ(req.dump(),
            "{\"schema\":\"eccm0.req.v1\",\"id\":7,\"op\":\"kp\","
            "\"params\":{\"curve\":\"sect233k1\"}}");
}

TEST(Wire, ResponseEnvelopeKeyOrderIsFixed) {
  telemetry::Json payload = telemetry::Json::object();
  payload.set("pong", telemetry::Json::boolean(true));
  const telemetry::Json ok = wire::make_response(3, "ping", std::move(payload));
  EXPECT_EQ(ok.dump(),
            "{\"schema\":\"eccm0.resp.v1\",\"id\":3,\"op\":\"ping\","
            "\"ok\":true,\"payload\":{\"pong\":true}}");
  const telemetry::Json err =
      wire::make_error(4, "kp", wire::ErrorCode::kBusy, "queue full");
  EXPECT_EQ(err.dump(),
            "{\"schema\":\"eccm0.resp.v1\",\"id\":4,\"op\":\"kp\","
            "\"ok\":false,\"error\":{\"code\":\"busy\","
            "\"message\":\"queue full\"}}");
}

TEST(Wire, ErrorCodeNamesAreStable) {
  EXPECT_STREQ(wire::error_code_name(wire::ErrorCode::kBadFrame), "bad_frame");
  EXPECT_STREQ(wire::error_code_name(wire::ErrorCode::kBadJson), "bad_json");
  EXPECT_STREQ(wire::error_code_name(wire::ErrorCode::kBadSchema),
               "bad_schema");
  EXPECT_STREQ(wire::error_code_name(wire::ErrorCode::kBadRequest),
               "bad_request");
  EXPECT_STREQ(wire::error_code_name(wire::ErrorCode::kUnknownOp),
               "unknown_op");
  EXPECT_STREQ(wire::error_code_name(wire::ErrorCode::kBadParam), "bad_param");
  EXPECT_STREQ(wire::error_code_name(wire::ErrorCode::kBusy), "busy");
  EXPECT_STREQ(wire::error_code_name(wire::ErrorCode::kShuttingDown),
               "shutting_down");
  EXPECT_STREQ(wire::error_code_name(wire::ErrorCode::kInternal), "internal");
}

TEST(Wire, ParseRequestValidates) {
  auto parse = [](const std::string& text) {
    return wire::parse_request(telemetry::Json::parse(text));
  };
  const wire::RequestParse ok = parse(
      "{\"schema\":\"eccm0.req.v1\",\"id\":9,\"op\":\"kp\","
      "\"params\":{\"reps\":2}}");
  ASSERT_TRUE(ok.ok);
  EXPECT_EQ(ok.req.id, 9u);
  EXPECT_EQ(ok.req.op, "kp");
  EXPECT_EQ(ok.req.params.get("reps")->as_u64(), 2u);

  EXPECT_EQ(parse("{\"id\":1,\"op\":\"kp\"}").code,
            wire::ErrorCode::kBadSchema);
  EXPECT_EQ(parse("{\"schema\":\"eccm0.req.v9\",\"id\":1,\"op\":\"kp\"}").code,
            wire::ErrorCode::kBadSchema);
  // The id still correlates even when the schema is wrong.
  EXPECT_EQ(parse("{\"schema\":\"eccm0.req.v9\",\"id\":42,\"op\":\"x\"}")
                .req.id,
            42u);
  EXPECT_EQ(parse("{\"schema\":\"eccm0.req.v1\",\"op\":\"kp\"}").code,
            wire::ErrorCode::kBadRequest);
  EXPECT_EQ(parse("{\"schema\":\"eccm0.req.v1\",\"id\":1}").code,
            wire::ErrorCode::kBadRequest);
  EXPECT_EQ(parse("{\"schema\":\"eccm0.req.v1\",\"id\":1,\"op\":\"kp\","
                  "\"params\":3}")
                .code,
            wire::ErrorCode::kBadRequest);
}

TEST(Wire, FrameRoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string sent = "{\"hello\":\"frame\"}";
  EXPECT_TRUE(wire::write_frame(fds[0], sent));
  std::string got;
  EXPECT_TRUE(wire::read_frame(fds[1], got));
  EXPECT_EQ(got, sent);

  // A zero-length prefix is a bad frame, not an EOF.
  const char zero[4] = {0, 0, 0, 0};
  ASSERT_EQ(::send(fds[0], zero, 4, 0), 4);
  bool bad = false;
  EXPECT_FALSE(wire::read_frame(fds[1], got, &bad));
  EXPECT_TRUE(bad);

  ::close(fds[0]);
  bad = true;
  EXPECT_FALSE(wire::read_frame(fds[1], got, &bad)) << "EOF reads false";
  EXPECT_FALSE(bad) << "EOF is not a bad frame";
  ::close(fds[1]);
}

TEST(Wire, AnnouncedLengthCommitsNoMemoryThePeerHasNotSent) {
  // A prefix claiming the 4 MiB maximum followed by 16 bytes and a
  // hang-up: a truncated frame (not a bad one), and the body must not
  // have been sized from the claim.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::uint32_t len = wire::kMaxFrameBytes;
  const char prefix[4] = {static_cast<char>(len & 0xFF),
                          static_cast<char>(len >> 8 & 0xFF),
                          static_cast<char>(len >> 16 & 0xFF),
                          static_cast<char>(len >> 24 & 0xFF)};
  ASSERT_EQ(::send(fds[0], prefix, 4, 0), 4);
  ASSERT_EQ(::send(fds[0], "0123456789abcdef", 16, 0), 16);
  ::close(fds[0]);
  std::string body;
  bool bad = true;
  EXPECT_FALSE(wire::read_frame(fds[1], body, &bad));
  EXPECT_FALSE(bad) << "a truncated body is EOF, not a bad length";
  EXPECT_LT(body.capacity(), std::size_t{1} << 20);
  ::close(fds[1]);
}

// ---- server ----------------------------------------------------------

ServerConfig test_config(unsigned workers, std::size_t queue_depth = 64) {
  ServerConfig cfg;
  cfg.workers = workers;
  cfg.queue_depth = queue_depth;
  return cfg;
}

TEST(Server, RejectsZeroQueueDepth) {
  EXPECT_THROW(Server(test_config(1, 0)), std::invalid_argument);
}

TEST(Server, ServedWorkloadPayloadsAreBitIdenticalToDirectCalls) {
  Server server(test_config(2));
  server.start();
  Client client;
  client.connect_to(server.port());

  for (const char* op : {"kp", "ecdh", "ecdsa"}) {
    for (const char* curve : {"sect233k1", "secp192r1"}) {
      telemetry::Json params = telemetry::Json::object();
      params.set("curve", telemetry::Json::str(curve));
      const telemetry::Json resp = client.call(op, std::move(params));
      ASSERT_TRUE(resp.get("ok")->as_bool()) << op << " " << curve;

      const workloads::WorkloadSpec spec = workloads::make_workload(op, curve);
      const armvm::Cpu::DecodeMode engine = ServerConfig{}.engine;
      const telemetry::Json direct = workload_payload(
          spec, 1, workloads::replay(spec, engine), engine, {});
      EXPECT_EQ(resp.get("payload")->dump(), direct.dump())
          << op << " " << curve;
    }
  }
  server.stop();
}

TEST(Server, ServedPayloadIsWorkerCountInvariant) {
  // The same request must produce byte-identical payloads from a
  // 1-worker and a 4-worker server.
  std::vector<std::string> dumps;
  for (unsigned workers : {1u, 4u}) {
    Server server(test_config(workers));
    server.start();
    Client client;
    client.connect_to(server.port());
    telemetry::Json params = telemetry::Json::object();
    params.set("curve", telemetry::Json::str("secp224r1"));
    params.set("reps", telemetry::Json::number(std::uint64_t{2}));
    const telemetry::Json resp = client.call("kp", std::move(params));
    ASSERT_TRUE(resp.get("ok")->as_bool());
    dumps.push_back(resp.get("payload")->dump());
    server.stop();
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(Server, ServedCampaignPayloadIsBitIdenticalToDirectRun) {
  Server server(test_config(2));
  server.start();
  Client client;
  client.connect_to(server.port());

  telemetry::Json params = telemetry::Json::object();
  params.set("curve", telemetry::Json::str("sect233k1"));
  params.set("runs", telemetry::Json::number(std::uint64_t{3}));
  params.set("seed", telemetry::Json::number(std::uint64_t{0xFEED}));
  const telemetry::Json resp = client.call("campaign", std::move(params));
  ASSERT_TRUE(resp.get("ok")->as_bool());

  faultsim::CampaignConfig cfg;
  cfg.curve = "sect233k1";
  cfg.runs_per_model = 3;
  cfg.seed = 0xFEED;
  cfg.threads = 1;
  cfg.engine = armvm::Cpu::DecodeMode::kPredecode;
  const telemetry::Json direct =
      campaign_payload(faultsim::run_kp_campaign(cfg));
  EXPECT_EQ(resp.get("payload")->dump(), direct.dump());
  server.stop();
}

/// Serve one campaign-style op on a fresh 2-worker server and return its
/// payload dump (fails the test on an error response).
std::string served_payload(const std::string& op, telemetry::Json params) {
  Server server(test_config(2));
  server.start();
  Client client;
  client.connect_to(server.port());
  const telemetry::Json resp = client.call(op, std::move(params));
  server.stop();
  EXPECT_TRUE(resp.get("ok")->as_bool()) << resp.dump();
  const telemetry::Json* payload = resp.get("payload");
  return payload != nullptr ? payload->dump() : std::string();
}

TEST(Server, ServedMemfaultPayloadIsBitIdenticalToDirectRun) {
  telemetry::Json params = telemetry::Json::object();
  params.set("curve", telemetry::Json::str("sect233k1"));
  params.set("runs", telemetry::Json::number(std::uint64_t{2}));
  params.set("seed", telemetry::Json::number(std::uint64_t{0xBEE}));
  const std::string served = served_payload("memfault", std::move(params));

  faultsim::MemCampaignConfig cfg;
  cfg.curve = "sect233k1";
  cfg.runs_per_cell = 2;
  cfg.seed = 0xBEE;
  cfg.threads = 1;
  EXPECT_EQ(served, mem_campaign_payload(faultsim::run_mem_campaign(cfg)).dump());
}

TEST(Server, ServedScaPayloadIsBitIdenticalToDirectRun) {
  telemetry::Json params = telemetry::Json::object();
  params.set("kernel", telemetry::Json::str("inv"));
  params.set("runs", telemetry::Json::number(std::uint64_t{4}));
  params.set("seed", telemetry::Json::number(std::uint64_t{9}));
  const std::string served = served_payload("sca", std::move(params));

  sca::CtConfig cfg;
  cfg.kernel = "inv";
  cfg.runs = 4;
  cfg.seed = 9;
  EXPECT_EQ(served, ct_payload(sca::check_kernel_constant_trace(cfg)).dump());
}

TEST(Server, ServedProfilePayloadIsBitIdenticalToDirectRun) {
  telemetry::Json params = telemetry::Json::object();
  params.set("kernel", telemetry::Json::str("inv"));
  params.set("calls", telemetry::Json::number(std::uint64_t{3}));
  const std::string served = served_payload("profile", std::move(params));

  const armvm::Cpu::DecodeMode engine = armvm::Cpu::DecodeMode::kPredecode;
  EXPECT_EQ(served,
            profile_payload("inv", 3, profile_kernel("inv", 3, engine, {}))
                .dump());
  // ecctool profile fans the calls across contexts; the merged
  // attribution must not depend on how many.
  EXPECT_EQ(served,
            profile_payload("inv", 3, profile_kernel("inv", 3, engine, {}, 3))
                .dump());
}

TEST(Server, DeeplyNestedFrameIsBadJsonAndTheConnectionSurvives) {
  // A 100 000-deep document used to overflow the session thread's stack
  // inside Json::parse and take the whole server down.
  Server server(test_config(1));
  server.start();
  Client client;
  client.connect_to(server.port());
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  for (const std::string& body : {std::string(100000, '['), objects}) {
    const telemetry::Json resp = client.call_raw(body);
    EXPECT_FALSE(resp.get("ok")->as_bool());
    EXPECT_EQ(resp.get("error")->get("code")->as_string(), "bad_json");
  }
  const telemetry::Json resp = client.call("ping", telemetry::Json::object());
  EXPECT_TRUE(resp.get("ok")->as_bool());
  EXPECT_TRUE(resp.get("payload")->get("pong")->as_bool());
  server.stop();
}

TEST(Server, TypedErrorsComeBackOnTheSameConnection) {
  Server server(test_config(1));
  server.start();
  Client client;
  client.connect_to(server.port());

  // Malformed JSON body -> bad_json, connection stays usable.
  telemetry::Json resp = client.call_raw("{not json");
  EXPECT_FALSE(resp.get("ok")->as_bool());
  EXPECT_EQ(resp.get("error")->get("code")->as_string(), "bad_json");

  // Unknown schema version -> bad_schema naming the supported one.
  resp = client.call_raw(
      "{\"schema\":\"eccm0.req.v9\",\"id\":5,\"op\":\"kp\"}");
  EXPECT_FALSE(resp.get("ok")->as_bool());
  EXPECT_EQ(resp.get("error")->get("code")->as_string(), "bad_schema");
  EXPECT_EQ(resp.get("id")->as_u64(), 5u);
  EXPECT_NE(resp.get("error")->get("message")->as_string().find(
                "eccm0.req.v1"),
            std::string::npos);

  // Unknown op -> unknown_op.
  resp = client.call("launch-missiles", telemetry::Json::object());
  EXPECT_FALSE(resp.get("ok")->as_bool());
  EXPECT_EQ(resp.get("error")->get("code")->as_string(), "unknown_op");

  // Bad curve -> bad_param (thrown by workloads::curve_from_name).
  telemetry::Json params = telemetry::Json::object();
  params.set("curve", telemetry::Json::str("secp999z9"));
  resp = client.call("kp", std::move(params));
  EXPECT_FALSE(resp.get("ok")->as_bool());
  EXPECT_EQ(resp.get("error")->get("code")->as_string(), "bad_param");

  // A negative count must be a typed rejection, not a strtoull wrap to
  // 2^64-1 that occupies a worker forever and wedges shutdown.
  resp = client.call_raw(
      "{\"schema\":\"eccm0.req.v1\",\"id\":6,\"op\":\"campaign\","
      "\"params\":{\"runs\":-1}}");
  EXPECT_FALSE(resp.get("ok")->as_bool());
  EXPECT_EQ(resp.get("error")->get("code")->as_string(), "bad_param");

  // Campaign-style run counts are bounded like reps/calls/ms.
  resp = client.call_raw(
      "{\"schema\":\"eccm0.req.v1\",\"id\":7,\"op\":\"sca\","
      "\"params\":{\"runs\":100000}}");
  EXPECT_FALSE(resp.get("ok")->as_bool());
  EXPECT_EQ(resp.get("error")->get("code")->as_string(), "bad_param");

  // And the connection still serves good requests after all of that.
  resp = client.call("ping", telemetry::Json::object());
  EXPECT_TRUE(resp.get("ok")->as_bool());
  EXPECT_TRUE(resp.get("payload")->get("pong")->as_bool());
  server.stop();
}

TEST(Server, FullQueueYieldsTypedBusyResponse) {
  // One worker, the smallest queue (capacity 2): park the worker on a
  // sleep job, fill both slots with kp requests, and the next request
  // must bounce with `busy` — the deterministic backpressure path. The
  // session thread handles frames in order, so the bounce happens
  // before the worker wakes (400 ms vs. microseconds).
  Server server(test_config(1, 1));
  server.start();
  ASSERT_EQ(server.config().queue_depth, 1u);
  Client client;
  client.connect_to(server.port());

  telemetry::Json sleep_params = telemetry::Json::object();
  sleep_params.set("ms", telemetry::Json::number(std::uint64_t{400}));
  const telemetry::Json sleep_req =
      wire::make_request(1, "sleep", std::move(sleep_params));
  ASSERT_TRUE(wire::write_frame(client.fd(), sleep_req.dump()));
  // Let the worker claim the sleep job so both queue slots are free.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  telemetry::Json kp_params = telemetry::Json::object();
  kp_params.set("curve", telemetry::Json::str("sect233k1"));
  for (std::uint64_t id = 2; id <= 4; ++id) {
    ASSERT_TRUE(wire::write_frame(
        client.fd(), wire::make_request(id, "kp", kp_params).dump()));
  }

  std::map<std::uint64_t, telemetry::Json> by_id;
  for (int i = 0; i < 4; ++i) {
    std::string body;
    ASSERT_TRUE(wire::read_frame(client.fd(), body));
    telemetry::Json resp = telemetry::Json::parse(body);
    by_id.emplace(resp.get("id")->as_u64(), std::move(resp));
  }
  ASSERT_EQ(by_id.size(), 4u);
  EXPECT_TRUE(by_id.at(1).get("ok")->as_bool());
  EXPECT_TRUE(by_id.at(2).get("ok")->as_bool());
  EXPECT_TRUE(by_id.at(3).get("ok")->as_bool());
  EXPECT_FALSE(by_id.at(4).get("ok")->as_bool());
  EXPECT_EQ(by_id.at(4).get("error")->get("code")->as_string(), "busy");
  EXPECT_GE(server.metrics().counter_value("serve.busy"), 1u);
  server.stop();
}

TEST(Server, CoalescedBatchStillServesIdenticalPayloads) {
  // Saturate a 1-worker server with identical kP requests pipelined on
  // one connection: the drain loop dedups them into one replay, and
  // every response's payload must still byte-match the direct call.
  Server server(test_config(1, 64));
  server.start();
  Client client;
  client.connect_to(server.port());

  telemetry::Json params = telemetry::Json::object();
  params.set("curve", telemetry::Json::str("sect233k1"));
  constexpr std::uint64_t kRequests = 8;
  for (std::uint64_t id = 1; id <= kRequests; ++id) {
    ASSERT_TRUE(wire::write_frame(
        client.fd(), wire::make_request(id, "kp", params).dump()));
  }
  const workloads::WorkloadSpec spec =
      workloads::make_workload("kp", "sect233k1");
  const armvm::Cpu::DecodeMode engine = ServerConfig{}.engine;
  const std::string direct =
      workload_payload(spec, 1, workloads::replay(spec, engine), engine, {})
          .dump();
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    std::string body;
    ASSERT_TRUE(wire::read_frame(client.fd(), body));
    const telemetry::Json resp = telemetry::Json::parse(body);
    ASSERT_TRUE(resp.get("ok")->as_bool());
    EXPECT_EQ(resp.get("payload")->dump(), direct);
  }
  server.stop();
}

double median_ms(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

TEST(Server, PingRoundTripsDoNotWaitOnDelayedAck) {
  // A frame split across two sends, or a pipelined frame held back by
  // Nagle, waits for the peer's ~40 ms delayed ACK: sequential calls
  // catch the split frame, pipelined bursts catch Nagle.
  using Clock = std::chrono::steady_clock;
  auto ms_since = [](Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(Clock::now() - t)
        .count();
  };
  Server server(test_config(1));
  server.start();
  Client client;
  client.connect_to(server.port());

  std::vector<double> sequential;
  for (int i = 0; i < 20; ++i) {
    const Clock::time_point t = Clock::now();
    ASSERT_TRUE(client.call("ping", telemetry::Json::object())
                    .get("ok")
                    ->as_bool());
    sequential.push_back(ms_since(t));
  }
  EXPECT_LT(median_ms(sequential), 20.0);

  std::vector<double> bursts;
  std::uint64_t id = 100;
  for (int b = 0; b < 10; ++b) {
    const Clock::time_point t = Clock::now();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(wire::write_frame(
          client.fd(),
          wire::make_request(++id, "ping", telemetry::Json::object()).dump()));
    }
    for (int i = 0; i < 4; ++i) {
      std::string body;
      ASSERT_TRUE(wire::read_frame(client.fd(), body));
      EXPECT_TRUE(telemetry::Json::parse(body).get("ok")->as_bool());
    }
    bursts.push_back(ms_since(t));
  }
  EXPECT_LT(median_ms(bursts), 20.0);
  server.stop();
}

TEST(DefaultEngine, BenchFlagDefaultSpellsTheCpuDefault) {
  // bench::Args keeps the engine as its flag spelling, so it cannot
  // name Cpu::kDefaultEngine; hold the two equal here.
  EXPECT_EQ(bench::Args{}.engine,
            armvm::decode_mode_name(armvm::Cpu::kDefaultEngine));
}

TEST(Server, ShutdownOpRequestsStop) {
  Server server(test_config(1));
  server.start();
  Client client;
  client.connect_to(server.port());
  EXPECT_FALSE(server.stop_requested());
  const telemetry::Json resp =
      client.call("shutdown", telemetry::Json::object());
  EXPECT_TRUE(resp.get("ok")->as_bool());
  EXPECT_TRUE(server.stop_requested());
  server.wait();  // returns promptly: stop was requested over the wire
}

TEST(Server, FinishedSessionsAreReaped) {
  // Each connection used to keep its session thread (and its stack)
  // until stop(). Sequential connect-ping-close cycles must leave the
  // session count bounded: the accept loop joins ended sessions before
  // it starts the next one.
  Server server(test_config(1));
  server.start();
  constexpr int kCycles = 300;
  for (int i = 0; i < kCycles; ++i) {
    Client client;
    client.connect_to(server.port());
    ASSERT_TRUE(
        client.call("ping", telemetry::Json::object()).get("ok")->as_bool());
    client.close();
  }
  Client probe;
  probe.connect_to(server.port());
  const telemetry::Json resp = probe.call("stats", telemetry::Json::object());
  ASSERT_TRUE(resp.get("ok")->as_bool());
  const std::uint64_t sessions = resp.get("payload")->get("sessions")->as_u64();
  EXPECT_GE(sessions, 1u);  // the probe's own session
  EXPECT_LE(sessions, 16u) << "finished sessions are not being reaped";
  server.stop();
}

TEST(Server, StatsEndpointReportsServeMetrics) {
  Server server(test_config(2));
  server.start();
  Client client;
  client.connect_to(server.port());
  telemetry::Json params = telemetry::Json::object();
  params.set("curve", telemetry::Json::str("sect233k1"));
  ASSERT_TRUE(client.call("kp", std::move(params)).get("ok")->as_bool());

  const telemetry::Json resp = client.call("stats", telemetry::Json::object());
  ASSERT_TRUE(resp.get("ok")->as_bool());
  const telemetry::Json* payload = resp.get("payload");
  EXPECT_EQ(payload->get("workers")->as_u64(), 2u);
  EXPECT_EQ(payload->get("queue_depth")->as_u64(), 64u);
  EXPECT_EQ(payload->get("sessions")->as_u64(), 1u);
  const telemetry::Json* metrics = payload->get("metrics");
  ASSERT_NE(metrics, nullptr);
  const telemetry::Json* counters = metrics->get("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->get("serve.requests")->as_u64(), 1u);
  server.stop();
}

}  // namespace
}  // namespace eccm0::service
