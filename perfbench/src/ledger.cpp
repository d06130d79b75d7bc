// The per-layer ledger of a traced run. Every row times calls into one
// layer's public functions from here, outside the libraries, and each
// layer also shows what the layer below predicts for it and the
// leftover:
//
//   replay     ≈ instructions ÷ armvm.sim_mips      (workloads.residual_frac)
//   serve p50  ≈ server latency + ping RTT           (service.residual_ms)
//   campaign run ≈ host kP + one injected VM mul     (faultsim.residual_us)
#include <algorithm>

#include "asmkernels/gen.h"
#include "bench.h"
#include "common/rng.h"
#include "ec/curve.h"
#include "ec/protect.h"
#include "ec/scalarmul.h"
#include "ecp/ops.h"
#include "faultsim/campaign.h"
#include "faultsim/inject.h"
#include "gf2/field.h"
#include "service/server.h"
#include "service/wire.h"
#include "workloads/kp_mix.h"
#include "workloads/registry.h"
#include "workloads/runner.h"

namespace perfbench {

namespace ew = eccm0::workloads;
namespace ef = eccm0::faultsim;
using eccm0::Rng;
using eccm0::armvm::Cpu;
using eccm0::telemetry::Json;

namespace {

/// Median over `batches` of the per-op time (ns) of `ops` calls of f.
template <typename F>
double ns_per_op(int batches, int ops, F&& f) {
  std::vector<double> per;
  for (int b = 0; b < batches; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < ops; ++i) f();
    per.push_back(ms_between(t0, Clock::now()) * 1e6 / ops);
  }
  return median(per);
}

/// Keeps a computed value observable so the timed loop is not elided.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

void host_rows(Rng& rng, Report& r, double* ec_kp_us, double* ecp_kp_us) {
  Tracer::Scope span(tracer(), "ledger.host");
  const eccm0::gf2::GF2Field& f = eccm0::gf2::GF2Field::f233();
  eccm0::gf2::Elem a = f.random(rng);
  const eccm0::gf2::Elem b = f.random(rng);
  r.add("gf2.mul_ns", ns_per_op(7, 4000, [&] { a = f.mul(a, b); keep(a); }),
        "ns", 7);
  r.add("gf2.sqr_ns", ns_per_op(7, 4000, [&] { a = f.sqr(a); keep(a); }),
        "ns", 7);
  r.add("gf2.inv_ns", ns_per_op(7, 300, [&] { a = f.inv(a); keep(a); }),
        "ns", 7);

  const eccm0::ecp::PrimeCurve& pc = eccm0::ecp::PrimeCurve::secp192r1();
  eccm0::ecp::PrimeCurveOps pops(pc);
  const eccm0::ecp::AffinePointP g = pops.generator();
  eccm0::mpint::UInt x = g.x;
  r.add("ecp.fmul_ns",
        ns_per_op(7, 4000, [&] { x = pops.fmul(x, g.y); keep(x); }), "ns", 7);

  const eccm0::ec::BinaryCurve& bc = eccm0::ec::BinaryCurve::sect233k1();
  eccm0::ec::CurveOps ops(bc);
  const eccm0::ec::AffinePoint G = eccm0::ec::AffinePoint::make(bc.gx, bc.gy);
  const eccm0::mpint::UInt k = eccm0::mpint::UInt::random_below(rng, bc.order);
  *ec_kp_us = ns_per_op(7, 6, [&] {
                keep(eccm0::ec::mul_wtnaf(ops, G, k, 4));
              }) / 1e3;
  r.add("ec.kp_us", *ec_kp_us, "us", 7);
  r.add("ec.protected_kp_us", ns_per_op(7, 6, [&] {
          keep(eccm0::ec::scalarmul_protected(ops, G, k, 4));
        }) / 1e3,
        "us", 7);
  const eccm0::mpint::UInt kp = eccm0::mpint::UInt::random_below(rng, pc.order);
  *ecp_kp_us = ns_per_op(7, 3, [&] {
                 keep(eccm0::ecp::mul_wnaf_p(pops, g, kp, 4));
               }) / 1e3;
  r.add("ecp.kp_us", *ecp_kp_us, "us", 7);
}

/// Load the standard operands of a field kernel (binary or prime) into a
/// kernel machine's RAM, as the profile op does.
void load_standard_inputs(ew::KernelMachine& km, const ew::KernelInfo& info) {
  if (info.binary_field) {
    const ew::KernelOperands& od = ew::KernelOperands::standard();
    ew::load_mul_inputs(km.mem(), od.x, od.y);
    ew::load_sqr_table(km.mem());
    ew::load_inv_input(km.mem(), od.a);
    return;
  }
  const ew::CurveRef& curve = ew::curve_from_name(info.curve);
  const ew::PrimeOperands& od = ew::PrimeOperands::standard(curve);
  ew::load_prime_modulus(km.mem(), curve);
  ew::load_prime_mul_inputs(km.mem(), od.x, od.y);
  ew::load_prime_inv_input(km.mem(), od.a);
  ew::load_prime_wide_input(km.mem(), od.wide);
}

void kernel_rows(Report& r) {
  Tracer::Scope span(tracer(), "ledger.asmkernels");
  ew::KernelVm vm;
  const ew::KernelOperands& od = ew::KernelOperands::standard();
  eccm0::gf2::k233::Fe x{}, y{}, a{};
  std::copy(std::begin(od.x), std::end(od.x), x.begin());
  std::copy(std::begin(od.y), std::end(od.y), y.begin());
  std::copy(std::begin(od.a), std::end(od.a), a.begin());
  r.add("asmkernels.mul_cycles",
        static_cast<double>(
            vm.mul(ew::MulKernel::kFixedRegisters, x, y, true).stats.cycles),
        "cycles");
  r.add("asmkernels.sqr_cycles", static_cast<double>(vm.sqr(a).stats.cycles),
        "cycles");
  r.add("asmkernels.inv_cycles", static_cast<double>(vm.inv(a).stats.cycles),
        "cycles");
  for (const char* k : {"mont", "sqr", "inv"}) {
    const std::string name = std::string("p192-") + k;
    ew::KernelMachine km(name);
    load_standard_inputs(km, ew::KernelRegistry::instance().info(name));
    r.add("asmkernels.p192_" + std::string(k) + "_cycles",
          static_cast<double>(km.call().cycles), "cycles");
  }
}

/// Median wall time (ms) of replaying `e` under `mode`, and its result.
double replay_ms(const Entry& e, Cpu::DecodeMode mode, int reps,
                 ew::ReplayResult* out) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    Tracer::Scope span(tracer(), "workloads.replay");
    const Clock::time_point t0 = Clock::now();
    *out = ew::replay(e.spec, e.images, mode);
    ms.push_back(ms_between(t0, Clock::now()));
  }
  return median(ms);
}

/// One pass of the workload as (entry, reps); campaign replays no catalog
/// entry, so its replay rows are priced over the six entries equally.
std::vector<Workload::Op> priced_pass(const Workload& w) {
  std::vector<Workload::Op> ops = w.pass_template();
  if (ops.empty()) {
    for (std::size_t i = 0; i < w.catalog().entries().size(); ++i) {
      ops.push_back({i, 1});
    }
  }
  return ops;
}

struct EngineRows {
  double sim_mips = 0.0;              ///< default engine
  std::vector<double> replay_ms;      ///< per catalog entry, default engine
  std::vector<double> instructions;   ///< per catalog entry
};

EngineRows vm_rows(const Workload& w, Report& r) {
  Tracer::Scope span(tracer(), "ledger.armvm");
  const Catalog& cat = w.catalog();
  EngineRows rows;
  const Entry& kp = cat.at(cat.index_of("kp", "sect233k1"));
  ew::ReplayResult res;
  const std::pair<const char*, Cpu::DecodeMode> engines[] = {
      {"perstep", Cpu::DecodeMode::kPerStep},
      {"predecode", Cpu::DecodeMode::kPredecode},
      {"threaded", Cpu::DecodeMode::kThreaded}};
  std::vector<std::pair<std::string, double>> per_engine;
  for (const auto& [name, mode] : engines) {
    const double ms = replay_ms(kp, mode, 3, &res);
    const double mips = static_cast<double>(res.stats.instructions) / (ms * 1e3);
    per_engine.emplace_back(name, mips);
    if (mode == default_engine()) rows.sim_mips = mips;
  }
  r.add("armvm.sim_mips", rows.sim_mips, "MIPS", 3);
  for (const auto& [name, mips] : per_engine) {
    r.add("armvm.sim_mips." + name, mips, "MIPS", 3);
  }

  // Superinstruction coverage under the threaded engine, over every
  // catalog entry once (deterministic).
  double fused = 0.0, instr = 0.0;
  for (const Entry& e : cat.entries()) {
    const ew::ReplayResult t = ew::replay(e.spec, e.images, Cpu::DecodeMode::kThreaded);
    fused += static_cast<double>(t.fused_retired);
    instr += static_cast<double>(t.stats.instructions);
  }
  r.add("armvm.fused_frac", fused / instr, "frac");

  for (const Entry& e : cat.entries()) {
    rows.replay_ms.push_back(replay_ms(e, default_engine(), 3, &res));
    rows.instructions.push_back(static_cast<double>(res.stats.instructions));
  }
  return rows;
}

/// Instructions one injected campaign run executes on the VM (a clean run
/// of each curve's injected multiplier, averaged over the two curves);
/// also times one seeded run_with_fault per curve into `inject_us`.
double injected_kernel_instructions(std::vector<double>* inject_us, Rng& rng) {
  double instr = 0.0;
  for (const char* name : {"mul", "p192-mont"}) {
    const eccm0::armvm::ProgramRef prog = ew::kernel(name);
    const ew::KernelInfo info = ew::KernelRegistry::instance().info(name);
    ef::FaultSpec never;
    never.index = ~std::uint64_t{0};
    ew::KernelMachine clean(prog);
    load_standard_inputs(clean, info);
    const std::uint64_t retires =
        ef::run_with_fault(prog, clean.mem(), never, 1'000'000,
                           ef::CampaignConfig{}.engine)
            .instructions;
    instr += static_cast<double>(retires) / 2.0;
    std::vector<double> us;
    for (int i = 0; i < 41; ++i) {
      const ef::FaultSpec spec = ef::sample_spec(
          rng, ef::FaultModel::kRegisterFlip, retires, 1);
      ew::KernelMachine km(prog);
      load_standard_inputs(km, info);
      Tracer::Scope span(tracer(), "faultsim.run_with_fault");
      const Clock::time_point t0 = Clock::now();
      keep(ef::run_with_fault(prog, km.mem(), spec, 1'000'000,
                              ef::CampaignConfig{}.engine));
      us.push_back(ms_between(t0, Clock::now()) * 1e3);
    }
    inject_us->push_back(median(us));
  }
  return instr;
}

struct CampaignTiming {
  double us_per_run = 0.0;
  std::uint64_t runs = 0;
  std::uint64_t injected = 0;
};

/// A sect233k1 + secp192r1 campaign pair at `threads` workers.
CampaignTiming campaign_pair(std::uint64_t seed, unsigned threads,
                             eccm0::telemetry::MetricsRegistry* metrics) {
  CampaignTiming t;
  const Clock::time_point t0 = Clock::now();
  for (const char* curve : kCurves) {
    ef::CampaignConfig cfg;
    cfg.seed = seed;
    cfg.runs_per_model = 8;
    cfg.threads = threads;
    cfg.curve = curve;
    cfg.metrics = metrics;
    Tracer::Scope span(tracer(), "faultsim.run_kp_campaign");
    const ef::CampaignResult res = ef::run_kp_campaign(cfg);
    for (const ef::ModelResult& m : res.models) {
      t.runs += m.runs;
      t.injected += m.injected;
    }
  }
  t.us_per_run = ms_between(t0, Clock::now()) * 1e3 / static_cast<double>(t.runs);
  return t;
}

void campaign_rows(std::uint64_t seed, double host_kp_us, double inject_us,
                   Report& r) {
  Tracer::Scope span(tracer(), "ledger.faultsim");
  eccm0::telemetry::MetricsRegistry serial_metrics, pool_metrics;
  const CampaignTiming one = campaign_pair(seed, 1, &serial_metrics);
  const CampaignTiming many = campaign_pair(seed, nproc(), &pool_metrics);
  r.add("faultsim.inject_us", inject_us, "us", 82);
  r.add("faultsim.run_us", one.us_per_run, "us", one.runs);
  r.add("faultsim.fired_frac",
        static_cast<double>(one.injected) / static_cast<double>(one.runs),
        "frac", one.runs);
  r.add("faultsim.predicted_us", host_kp_us + inject_us, "us");
  r.add("faultsim.residual_us", one.us_per_run - host_kp_us - inject_us, "us");
  r.add("sim.speedup_nproc", one.us_per_run / many.us_per_run, "x", 2,
        std::to_string(nproc()) + " workers vs 1");
  r.add("sim.queue_wait_ns_p50",
        hist_quantile(pool_metrics.histogram_copy("batch.queue_wait_ns"), 0.5),
        "ns", pool_metrics.histogram_copy("batch.queue_wait_ns").count());
  r.add("sim.run_ns_p50",
        hist_quantile(pool_metrics.histogram_copy("batch.run_ns"), 0.5), "ns",
        pool_metrics.histogram_copy("batch.run_ns").count());
}

void service_rows(Workload& w, const Options& opt,
                  const std::vector<double>& replay_rows, Report& r) {
  Tracer::Scope span(tracer(), "ledger.service");
  // serve-mix reports on its own traced phase; the other workloads run
  // a short serve-mix probe so every run carries the same rows.
  std::unique_ptr<Workload> probe;
  Workload* serve = &w;
  const ServeObservation* so = w.observe_serve();
  if (so == nullptr) {
    probe = make_serve_mix(opt.seed);
    probe->setup();
    probe->run(2.0);
    so = probe->observe_serve();
    serve = probe.get();
  }
  const Json* metrics = so->stats.get("metrics");
  const Json* hists = metrics != nullptr ? metrics->get("histograms") : nullptr;
  const Json* counters = metrics != nullptr ? metrics->get("counters") : nullptr;
  std::vector<const Json*> lat;
  for (const char* op : kTransactions) {
    if (hists != nullptr) {
      lat.push_back(hists->get(std::string("serve.") + op + ".latency_ns"));
    }
  }
  auto counter = [&](const char* name) -> double {
    const Json* c = counters != nullptr ? counters->get(name) : nullptr;
    return c != nullptr ? static_cast<double>(c->as_u64()) : 0.0;
  };
  const double client_p50 = median(so->client_ms);
  const double server_p50 = hist_json_quantile(lat, 0.5) / 1e6;
  const double ping = median(so->ping_ms);
  std::vector<double> direct;
  for (const Workload::Op& op : serve->pass_template()) {
    direct.push_back(replay_rows.at(op.entry) * op.reps);
  }
  const double requests = counter("serve.requests");
  r.add("service.client_p50_ms", client_p50, "ms", so->client_ms.size());
  r.add("service.ping_rtt_ms", ping, "ms", so->ping_ms.size());
  r.add("service.server_latency_ms", server_p50, "ms",
        static_cast<std::uint64_t>(requests));
  r.add("service.unexplained_ms", client_p50 - server_p50, "ms");
  r.add("service.predicted_ms", server_p50 + ping, "ms");
  r.add("service.residual_ms", client_p50 - server_p50 - ping, "ms");
  r.add("service.queue_wait_ms", server_p50 - median(direct), "ms");
  r.add("service.coalesced_frac",
        requests > 0 ? counter("serve.coalesced") / requests : 0.0, "frac",
        static_cast<std::uint64_t>(requests));
  r.add("service.busy", counter("serve.busy"), "count");
  r.add("service.errors", counter("serve.errors"), "count");
  if (probe) probe->teardown();
}

void telemetry_row(const Workload& w, Report& r) {
  Tracer::Scope span(tracer(), "ledger.telemetry");
  const Entry& e = w.catalog().at(0);
  const ew::ReplayResult res = ew::replay(e.spec, e.images, default_engine());
  const std::string response =
      eccm0::service::wire::make_response(
          1, e.spec.transaction,
          eccm0::service::workload_payload(e.spec, 1, res, default_engine(), {}))
          .dump();
  r.add("telemetry.json_roundtrip_us", ns_per_op(7, 500, [&] {
          keep(eccm0::service::workload_payload(e.spec, 1, res,
                                                default_engine(), {})
                   .dump());
          keep(Json::parse(response));
        }) / 1e3,
        "us", 7);
}

}  // namespace

void run_ledger(Workload& w, const Options& opt, Report& r) {
  Tracer::Scope span(tracer(), "ledger");
  Rng rng = Rng(opt.seed ^ 0x1ED6E5ull);

  double ec_kp_us = 0.0, ecp_kp_us = 0.0;
  host_rows(rng, r, &ec_kp_us, &ecp_kp_us);
  kernel_rows(r);
  const EngineRows vm = vm_rows(w, r);

  // Instructions per operation of this workload.
  const std::vector<Workload::Op> pass = priced_pass(w);
  std::vector<double> inject_us;
  const double injected_instr = injected_kernel_instructions(&inject_us, rng);
  double pass_instr = 0.0, pass_ms = 0.0;
  for (const Workload::Op& op : pass) {
    pass_instr += vm.instructions.at(op.entry) * op.reps;
    pass_ms += vm.replay_ms.at(op.entry) * op.reps;
  }
  const double n = static_cast<double>(pass.size());
  r.add("armvm.instructions_per_tx",
        w.pass_template().empty() ? injected_instr : pass_instr / n, "count");

  const Catalog& cat = w.catalog();
  for (std::size_t i = 0; i < cat.entries().size(); ++i) {
    r.add("workloads.replay_ms." + cat.at(i).name, vm.replay_ms[i], "ms", 3);
  }
  const double measured = pass_ms / n;
  const double predicted = pass_instr / n / (vm.sim_mips * 1e3);
  r.add("workloads.measured_ms", measured, "ms", pass.size());
  r.add("workloads.predicted_ms", predicted, "ms", pass.size());
  r.add("workloads.residual_frac", (measured - predicted) / measured, "frac");
  r.add("workloads.kernel_build_ms", w.kernel_build_ms(), "ms");

  const double inject = (inject_us[0] + inject_us[1]) / 2.0;
  campaign_rows(rng.next_u64(), (ec_kp_us + ecp_kp_us) / 2.0, inject, r);
  service_rows(w, opt, vm.replay_ms, r);
  telemetry_row(w, r);
}

}  // namespace perfbench
