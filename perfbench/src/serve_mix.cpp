// serve-mix: an in-process service::Server on loopback, deployed the way
// `ecctool serve` runs it (workers = hardware concurrency, every other
// ServerConfig field at its default). The load is a closed loop over
// nproc connections, each keeping a window of requests in flight, so a
// queue forms at the default worker count. Half of every pass is the same
// kp/sect233k1/reps=1 call, which the server may coalesce; the other half
// is ecdh/ecdsa x {sect233k1, secp192r1} x reps {1, 2}, never shared.
#include <map>
#include <set>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "service/client.h"
#include "service/server.h"
#include "service/wire.h"

namespace perfbench {

namespace es = eccm0::service;
using eccm0::telemetry::Json;

namespace {

/// Requests each connection keeps in flight.
constexpr std::size_t kWindow = 3;
/// Inline pings timed on an idle connection after the load.
constexpr unsigned kPings = 12;

struct Item {
  std::size_t entry = 0;
  unsigned reps = 1;
};

/// Hands out global request indices in whole passes: once the deadline
/// has passed, the current pass is finished and nothing after it is
/// issued, so the completed set is always an exact number of passes.
class Dispenser {
 public:
  Dispenser(std::size_t pass_len, Clock::time_point deadline)
      : pass_len_(pass_len), deadline_(deadline) {}

  bool take(std::uint64_t& index) {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_at_ == UINT64_MAX && Clock::now() >= deadline_) {
      stop_at_ = (next_ + pass_len_ - 1) / pass_len_ * pass_len_;
    }
    if (next_ >= stop_at_) return false;
    index = next_++;
    return true;
  }

 private:
  const std::size_t pass_len_;
  const Clock::time_point deadline_;
  std::mutex mu_;
  std::uint64_t next_ = 0;              ///< guarded by mu_
  std::uint64_t stop_at_ = UINT64_MAX;  ///< guarded by mu_
};

/// What one connection's loop measured.
struct ConnResult {
  std::vector<double> latency_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Payload dump per request type (first seen) and how many responses
  /// of each type matched it.
  std::map<std::size_t, std::string> first_payload;
  std::map<std::size_t, std::uint64_t> seen;
  std::string transport_error;
};

class ServeMix final : public Workload {
 public:
  explicit ServeMix(std::uint64_t seed) { seed_ = seed; }
  ~ServeMix() override { teardown(); }

  void setup() override {
    catalog_ = Catalog::build(&kernel_build_ms_);
    // Type 0 is the shared kp call; it fills half of every pass.
    types_.push_back({catalog_.index_of("kp", "sect233k1"), 1});
    for (const char* tx : {"ecdh", "ecdsa"}) {
      for (const char* curve : kCurves) {
        for (unsigned reps : {1u, 2u}) {
          types_.push_back({catalog_.index_of(tx, curve), reps});
        }
      }
    }
    for (std::size_t t = 1; t < types_.size(); ++t) {
      pass_.push_back(0);
      pass_.push_back(t);
    }

    es::ServerConfig cfg;
    cfg.workers = 0;  // hardware concurrency, as `ecctool serve` deploys
    {
      Tracer::Scope span(tracer(), "service.Server::start");
      server_ = std::make_unique<es::Server>(cfg);
      server_->start();
    }
    for (unsigned c = 0; c < nproc(); ++c) {
      Tracer::Scope span(tracer(), "service.Client::connect_to");
      clients_.push_back(std::make_unique<es::Client>());
      clients_.back()->connect_to(server_->port());
    }
  }

  Phase run(double seconds) override {
    Dispenser disp(pass_.size(),
                   Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds)));
    std::vector<ConnResult> results(clients_.size());
    const Clock::time_point t0 = Clock::now();
    {
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < clients_.size(); ++c) {
        threads.emplace_back([&, c] {
          try {
            drive(clients_[c]->fd(), disp, results[c]);
          } catch (const std::exception& e) {
            results[c].transport_error = e.what();
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
    Phase ph;
    ph.elapsed_s = seconds_since(t0);
    std::map<std::size_t, std::uint64_t> phase_seen;
    for (ConnResult& r : results) {
      ph.attempted += r.attempted;
      ph.failed += r.failed;
      ph.latency_ms.insert(ph.latency_ms.end(), r.latency_ms.begin(),
                           r.latency_ms.end());
      if (!r.transport_error.empty()) errors_.push_back(r.transport_error);
      for (const auto& [type, payload] : r.first_payload) {
        const auto [it, fresh] = first_payload_.emplace(type, payload);
        if (!fresh && it->second != payload) mismatched_.insert(type);
      }
      for (const auto& [type, n] : r.seen) {
        seen_[type] += n;
        phase_seen[type] += n;
      }
    }
    // Simulated cost summed per request type in type order, so the
    // figure does not depend on which connection served what.
    for (const auto& [type, n] : phase_seen) {
      const Json p = Json::parse(first_payload_.at(type));
      const double k = static_cast<double>(n);
      ph.sim_cycles += p.get("cycles")->as_f64() * k;
      ph.sim_energy_uj += p.get("energy_uj")->as_f64() * k;
      ph.sim_ops += n;
    }
    last_client_ms_ = ph.latency_ms;
    return ph;
  }

  /// Every served payload must byte-equal workload_payload over the
  /// direct replay() of the same request.
  void check(Report& r) override {
    for (const std::string& e : errors_) r.fail(0, "serve transport: " + e);
    for (const auto& [type, payload] : first_payload_) {
      const Item& it = types_[type];
      const Entry& e = catalog_.at(it.entry);
      const eccm0::workloads::ReplayResult direct = eccm0::workloads::replay(
          e.spec, e.images, default_engine(), {}, it.reps);
      const std::string want =
          es::workload_payload(e.spec, it.reps, direct, default_engine(), {})
              .dump();
      if (payload != want || mismatched_.count(type) != 0) {
        r.fail(seen_[type], "served " + e.name + " reps=" +
                                std::to_string(it.reps) +
                                " payload differs from the direct call");
      }
    }
  }

  std::string sequence(std::size_t n) const override {
    std::string out;
    std::size_t k = 0;
    for (std::uint64_t pass = 0; k < n; ++pass) {
      for (std::size_t t : seeded_pass(seed_, pass, pass_)) {
        if (k++ == n) break;
        out += catalog_.at(types_[t].entry).name + " reps=" +
               std::to_string(types_[t].reps) + "\n";
      }
    }
    return out;
  }

  std::vector<Op> pass_template() const override {
    std::vector<Op> ops;
    for (std::size_t t : pass_) ops.push_back({types_[t].entry, types_[t].reps});
    return ops;
  }

  const ServeObservation* observe_serve() override {
    obs_.client_ms = last_client_ms_;
    es::Client c;
    c.connect_to(server_->port());
    obs_.ping_ms.clear();
    for (unsigned i = 0; i < kPings; ++i) {
      Tracer::Scope span(tracer(), "service.ping");
      const Clock::time_point s = Clock::now();
      c.call("ping", Json::object());
      obs_.ping_ms.push_back(ms_between(s, Clock::now()));
    }
    {
      Tracer::Scope span(tracer(), "service.stats");
      const Json resp = c.call("stats", Json::object());
      const Json* payload = resp.get("payload");
      obs_.stats = payload != nullptr ? *payload : Json::object();
    }
    return &obs_;
  }

  void teardown() override {
    clients_.clear();
    if (server_) server_->stop();
  }

 private:
  /// One connection's closed loop: keep kWindow requests in flight,
  /// issue the next as soon as a response lands, stop when the
  /// dispenser runs dry and every response is in.
  void drive(int fd, Dispenser& disp, ConnResult& out) {
    Tracer::Scope conn_span(tracer(), "serve.connection");
    const std::uint32_t parent = Tracer::current();
    struct InFlight {
      std::size_t type = 0;
      Clock::time_point sent;
      std::uint64_t sent_ns = 0;
    };
    std::map<std::uint64_t, InFlight> inflight;
    bool more = true;
    std::uint64_t pass_no = UINT64_MAX;
    std::vector<std::size_t> order;
    auto issue = [&]() {
      std::uint64_t index = 0;
      if (!disp.take(index)) {
        more = false;
        return;
      }
      const std::uint64_t pass = index / pass_.size();
      if (pass != pass_no) {
        order = seeded_pass(seed_, pass, pass_);
        pass_no = pass;
      }
      const std::size_t type = order[index % pass_.size()];
      const Item& it = types_[type];
      const Entry& e = catalog_.at(it.entry);
      Json params = Json::object();
      params.set("curve", Json::str(e.spec.curve.name));
      params.set("reps", Json::number(std::uint64_t{it.reps}));
      const std::uint64_t id = index + 1;
      const std::string body =
          es::wire::make_request(id, e.spec.transaction, std::move(params))
              .dump();
      inflight[id] = {type, Clock::now(), tracer().enabled() ? now_ns() : 0};
      ++out.attempted;
      if (!es::wire::write_frame(fd, body)) {
        throw std::runtime_error("write_frame failed");
      }
    };
    while (more && inflight.size() < kWindow) issue();
    std::string body;
    while (!inflight.empty()) {
      if (!es::wire::read_frame(fd, body)) {
        out.failed += inflight.size();
        throw std::runtime_error("read_frame failed with " +
                                 std::to_string(inflight.size()) +
                                 " request(s) in flight");
      }
      const Clock::time_point done = Clock::now();
      const Json resp = Json::parse(body);
      const Json* idj = resp.get("id");
      const auto at =
          idj != nullptr ? inflight.find(idj->as_u64()) : inflight.end();
      if (at == inflight.end()) {
        throw std::runtime_error("response for an unknown request id");
      }
      const InFlight f = at->second;
      inflight.erase(at);
      out.latency_ms.push_back(ms_between(f.sent, done));
      if (tracer().enabled()) {
        tracer().record("serve.request", f.sent_ns, now_ns(), parent,
                        idj->as_u64());
      }
      const Json* ok = resp.get("ok");
      const Json* payload = resp.get("payload");
      if (ok == nullptr || !ok->as_bool() || payload == nullptr) {
        ++out.failed;  // busy, typed error or malformed envelope
      } else {
        const std::string dump = payload->dump();
        const auto [it, fresh] = out.first_payload.emplace(f.type, dump);
        if (!fresh && it->second != dump) {
          ++out.failed;
        } else {
          ++out.seen[f.type];
        }
      }
      while (more && inflight.size() < kWindow) issue();
    }
  }

  std::vector<Item> types_;        ///< request types; 0 = shared kp call
  std::vector<std::size_t> pass_;  ///< one pass as type indices
  std::unique_ptr<es::Server> server_;
  std::vector<std::unique_ptr<es::Client>> clients_;

  std::map<std::size_t, std::string> first_payload_;
  std::map<std::size_t, std::uint64_t> seen_;
  std::set<std::size_t> mismatched_;
  std::vector<std::string> errors_;
  std::vector<double> last_client_ms_;
  ServeObservation obs_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix(std::uint64_t seed) {
  return std::make_unique<ServeMix>(seed);
}

}  // namespace perfbench
