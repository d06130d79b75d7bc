// ecctool — command-line frontend over the whole stack: key generation,
// compressed-point serialization, ECDSA signatures and ECDH agreement on
// sect233k1.
//
//   ecctool keygen  <seed>
//   ecctool sign    <priv-hex> <message...>
//   ecctool verify  <pub-hex> <r-hex> <s-hex> <message...>
//   ecctool ecdh    <priv-hex> <peer-pub-hex>
//   ecctool info [--curve=C]
//   ecctool kernels [--curve=C] [--json[=P]]
//   ecctool profile [kernel] [--curve=C] [--calls=N] [--threads=N]
//                   [--engine=E] [--mem=M] [--json[=P]]
//   ecctool campaign [--curve=C] [--runs=N] [--seed=S] [--threads=N]
//                    [--engine=E] [--json[=P]]
//   ecctool memfault [--curve=C] [--runs=N] [--ber=LIST] [--mem=M]
//                    [--scrub=N] [--seed=S] [--threads=N] [--engine=E]
//                    [--json[=P]]
//   ecctool sca [kernel] [--curve=C] [--iters=N] [--seed=S] [--threads=N]
//               [--engine=E] [--json[=P]]
//   ecctool stats <manifest.json> [--tracks]
//   ecctool serve [--port=P] [--listen-workers=N] [--queue-depth=N]
//                 [--no-coalesce] [--port-file=PATH] [--engine=E] [--mem=M]
//                 [--json[=P]]
//   ecctool client <op> --port=P [--curve=C] [--iters=N] [--params=JSON]
//                  [--raw=BODY]
//
// `serve` runs the async batch service (src/service, wire schema
// eccm0.req.v1 / eccm0.resp.v1 — DESIGN.md §14): kP / ECDH / ECDSA
// workload replays and campaign jobs over a bounded MPMC queue with
// request coalescing, until a `shutdown` request or SIGINT/SIGTERM.
// `client` sends one request to a running serve and prints the response
// document (exit 0 on ok, 1 on a typed error); --raw sends arbitrary
// bytes as the frame body, for protocol testing.
//
// Every simulation subcommand accepts `--progress[=off|plain]` (live
// stderr progress from the campaign loops) and `--json[=PATH]`, which
// mirrors the run into the telemetry run-manifest envelope
// ("eccm0.run.v1": build info, run config, payload, metric snapshots —
// see src/telemetry/manifest.h). `stats` reads such a manifest back and
// pretty-prints it; with --tracks it additionally exports each metric
// histogram's bucket distribution as a Perfetto counter track
// (profile::counter_track_json) next to the manifest.
//
// `profile` runs a registry kernel on the cycle-accurate armvm with the
// symbol-attributed profiler and RAM heatmap attached (one private sink
// pair per execution context, merged after the run — the same routine
// as the serve `profile` op), prints the per-function cycle/energy
// breakdown and the hottest RAM words, and writes ecctool_trace.json
// (Perfetto) + ecctool_flame.txt. Its --mem=M flag runs the kernel on a
// protected RAM model (raw|parity|secded) so the wait-state overhead
// shows up in the attribution.
// `campaign`, `memfault` and `sca` are the ecctool faces of
// bench_fault_campaign, bench_memfault and bench_sca: one shared
// front-end each (bench/campaigns.h) prints the same tables and writes
// the same payload. `campaign` runs the seeded kP fault-injection
// matrix; its tallies are bit-identical for any --threads value.
// `memfault` runs the SRAM bit-error campaign: Bernoulli bit flips at
// each --ber=1e-5,1e-4,... rate against each memory model (--mem
// restricts to one; default sweeps all three), with SECDED scrubbing
// every --scrub=N accesses. Contradictory combinations (a scrub interval
// with a model that cannot repair) are rejected. `sca` runs both leakage
// detectors against one kernel — the constant-trace verifier and the
// fixed-vs-random TVLA campaign on the power rig — prints the verdict
// and writes the per-cycle |t| trace to ecctool_ttrace.json for
// Perfetto. The multi-command flags share the bench::Args conventions
// (--threads=N, --seed=S, and --engine=perstep|predecode|threaded to
// pick the armvm execution engine; traced subcommands observe identical
// streams on every engine).
#include <algorithm>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "armvm/cpu.h"
#include "armvm/dispatch.h"
#include "campaigns.h"
#include "crypto/ecdsa.h"
#include "ec/codec.h"
#include "ecp/curve.h"
#include "manifest.h"
#include "profile/profiler.h"
#include "profile/trace_export.h"
#include "service/client.h"
#include "service/payloads.h"
#include "service/server.h"
#include "workloads/registry.h"
#include "workloads/spec.h"

using namespace eccm0;

namespace {

std::vector<std::uint8_t> hex_to_bytes(const std::string& h) {
  auto nib = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    throw std::invalid_argument("bad hex digit");
  };
  if (h.size() % 2) throw std::invalid_argument("odd hex length");
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < h.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(nib(h[i]) << 4 | nib(h[i + 1])));
  }
  return out;
}

std::string bytes_to_hex(std::span<const std::uint8_t> b) {
  static const char* d = "0123456789abcdef";
  std::string s;
  for (auto x : b) {
    s += d[x >> 4];
    s += d[x & 0xF];
  }
  return s;
}

std::string join_args(int argc, char** argv, int from) {
  std::string m;
  for (int i = from; i < argc; ++i) {
    if (i > from) m += " ";
    m += argv[i];
  }
  return m;
}

int usage() {
  std::fprintf(stderr,
               "usage: ecctool keygen <seed>\n"
               "       ecctool sign <priv-hex> <message...>\n"
               "       ecctool verify <pub-hex> <r-hex> <s-hex> <message...>\n"
               "       ecctool ecdh <priv-hex> <peer-pub-hex>\n"
               "       ecctool info [--curve=C]\n"
               "       ecctool kernels [--curve=C]\n"
               "       ecctool profile [kernel] [--curve=C] [--calls=N]"
               " [--threads=N] [--engine=E] [--mem=M]\n"
               "       ecctool campaign [--curve=C] [--runs=N] [--seed=S]"
               " [--threads=N] [--engine=E]\n"
               "       ecctool memfault [--curve=C] [--runs=N]"
               " [--ber=B1,B2,...] [--mem=M] [--scrub=N]\n"
               "                        [--seed=S] [--threads=N] [--engine=E]\n"
               "       ecctool sca [kernel] [--curve=C] [--iters=N] [--seed=S]"
               " [--threads=N] [--engine=E]\n"
               "       ecctool stats <manifest.json> [--tracks]\n"
               "       ecctool serve [--port=P] [--listen-workers=N]"
               " [--queue-depth=N] [--no-coalesce]\n"
               "                     [--port-file=PATH] [--engine=E] [--mem=M]"
               " [--json[=P]]\n"
               "       ecctool client <op> --port=P [--curve=C] [--iters=N]"
               " [--params=JSON] [--raw=BODY]\n"
               "  (E = perstep|predecode|threaded, M = raw|parity|secded,\n"
               "   C = sect233k1|secp192r1|secp224r1|secp256r1;\n"
               "   simulation subcommands also take --json[=PATH] for a run\n"
               "   manifest and --progress[=off|plain] for live progress)\n");
  return 2;
}

/// Default kernel for a curve: the field multiplication the campaigns
/// splice (gf2 "mul", or the curve's Montgomery multiplication).
std::string default_kernel(const std::string& curve_name) {
  const workloads::CurveRef& c = workloads::curve_from_name(curve_name);
  return c.binary_field ? "mul" : c.kernel_tag + "-mont";
}

/// `ecctool kernels [--curve=C]`: one row per registry entry — curve and
/// field tag, limb count, assembled image size, symbol count. --curve
/// restricts to one curve's kernels.
int run_kernels(int argc, char** argv) {
  bench::Args args;
  args.curve = "";  // default: list every curve
  if (!args.parse(argc - 2, argv + 2, "ecctool_kernels.json") ||
      !args.positionals().empty()) {
    return usage();
  }
  if (!args.curve.empty() && !bench::check_curve(args.curve)) return 2;

  auto& reg = workloads::KernelRegistry::instance();
  bench::Table t({"kernel", "curve", "field", "limbs", "code bytes",
                  "symbols"});
  telemetry::Json kernels = telemetry::Json::array();
  for (const std::string& name : reg.names()) {
    const workloads::KernelInfo info = reg.info(name);
    if (!args.curve.empty() && info.curve != args.curve) continue;
    const armvm::ProgramRef prog = reg.get(name);
    t.add_row({name, info.curve.empty() ? "-" : info.curve,
               info.binary_field ? "GF(2^m)" : "GF(p)",
               std::to_string(info.limbs), std::to_string(prog->code_bytes()),
               std::to_string(prog->symbols().size())});
    telemetry::Json k = telemetry::Json::object();
    k.set("kernel", telemetry::Json::str(name));
    k.set("curve", telemetry::Json::str(info.curve));
    k.set("binary_field", telemetry::Json::boolean(info.binary_field));
    k.set("limbs", telemetry::Json::number(std::uint64_t{info.limbs}));
    k.set("code_bytes", telemetry::Json::number(
                            static_cast<std::uint64_t>(prog->code_bytes())));
    k.set("symbols", telemetry::Json::number(
                         static_cast<std::uint64_t>(prog->symbols().size())));
    kernels.push(std::move(k));
  }
  t.print();
  const std::size_t listed = kernels.size();
  const std::string scope =
      args.curve.empty() ? std::string() : " for " + args.curve;
  std::printf("\n%zu kernel(s)%s\n", listed, scope.c_str());
  if (args.json) {
    telemetry::Json p = telemetry::Json::object();
    p.set("subcommand", telemetry::Json::str("kernels"));
    p.set("kernels", std::move(kernels));
    p.set("count", telemetry::Json::number(std::uint64_t{listed}));
    bench::write_manifest(args.json_path, "ecctool-kernels", std::move(p),
                          &args);
  }
  return 0;
}

int run_profile(int argc, char** argv) {
  std::uint64_t calls = 1;
  bench::Args args;
  args.add_u64("--calls", &calls);
  if (!args.parse(argc - 2, argv + 2, "ecctool_profile.json") ||
      args.positionals().size() > 1) {
    return usage();
  }
  if (calls == 0) calls = 1;
  if (!bench::check_curve(args.curve)) return 2;
  const std::string kernel = args.positionals().empty()
                                 ? default_kernel(args.curve)
                                 : args.positionals()[0];
  const armvm::Cpu::DecodeMode engine =
      armvm::decode_mode_from_name(args.engine);
  const armvm::MemModelConfig mem_model =
      armvm::MemModelConfig::for_kind(armvm::mem_model_from_name(args.mem));
  if (!workloads::KernelRegistry::instance().contains(kernel)) {
    return usage();
  }

  // The serve `profile` op runs the same routine on one context; fanning
  // the calls out changes nothing but the wall time.
  telemetry::MetricsRegistry metrics;
  const service::KernelProfile prof =
      service::profile_kernel(kernel, static_cast<unsigned>(calls), engine,
                              mem_model, args.threads, &metrics);
  const costmodel::EnergyReport energy = prof.stats.energy();
  std::printf("kernel %s: %llu call(s), %u context(s), %llu instructions, "
              "%llu cycles, %.3f uJ, %.3f ms @48 MHz\n\n",
              kernel.c_str(), static_cast<unsigned long long>(calls),
              prof.contexts,
              static_cast<unsigned long long>(prof.stats.instructions),
              static_cast<unsigned long long>(prof.stats.cycles),
              energy.energy_uj(), energy.time_ms());
  bench::print_functions(prof.functions, prof.stats.cycles);
  std::printf("\nhottest RAM words (loads+stores):\n");
  std::vector<std::pair<std::size_t, std::uint64_t>> hot;
  for (std::size_t w = 0; w < prof.loads.size(); ++w) {
    if (prof.loads[w] + prof.stores[w]) {
      hot.emplace_back(w, prof.loads[w] + prof.stores[w]);
    }
  }
  std::sort(hot.begin(), hot.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (hot.size() > 8) hot.resize(8);
  for (const auto& [word, traffic] : hot) {
    std::printf("  +0x%03zx: %llu\n", word * 4,
                static_cast<unsigned long long>(traffic));
  }

  // The timeline export needs one coherent span stream; rerun one
  // context's worth when the run was fanned out.
  workloads::KernelMachine km(workloads::kernel(kernel), engine, mem_model);
  profile::Profiler trace(km.prog());
  km.cpu().set_trace_sink(&trace);
  service::load_profile_operands(kernel, km.mem());
  km.call();
  const profile::NamedProfile tracks[] = {{kernel, &trace}};
  if (profile::write_text_file("ecctool_trace.json",
                               profile::chrome_trace_json(tracks)) &&
      profile::write_text_file("ecctool_flame.txt",
                               profile::collapsed_stack_text(tracks))) {
    std::printf("\nwrote ecctool_trace.json (Perfetto) and "
                "ecctool_flame.txt (flamegraph.pl)\n");
  }

  if (args.json) {
    bench::write_manifest(
        args.json_path, "ecctool-profile",
        service::profile_payload(kernel, static_cast<unsigned>(calls), prof),
        &args, &metrics);
  }
  return 0;
}

/// `ecctool campaign`: bench_fault_campaign's front-end at ecctool's
/// defaults (200 runs per model, no coherence demo or self-checks).
int run_campaign(int argc, char** argv) {
  faultsim::CampaignConfig cfg;
  cfg.runs_per_model = 200;
  bench::Args args;
  args.seed = cfg.seed;
  args.threads = cfg.threads;
  args.add_u64("--runs", &cfg.runs_per_model);
  if (!args.parse(argc - 2, argv + 2, "ecctool_campaign.json") ||
      !args.positionals().empty()) {
    return usage();
  }
  if (cfg.runs_per_model == 0) cfg.runs_per_model = 1;
  if (!bench::check_curve(args.curve)) return 2;
  telemetry::MetricsRegistry metrics;
  bench::FaultCampaignRun run = bench::run_fault_campaign(cfg, args, metrics);
  if (args.json) {
    bench::write_manifest(args.json_path, "ecctool-campaign",
                          std::move(run.payload), &args, &metrics);
  }
  return 0;
}

/// `ecctool memfault`: bench_memfault's front-end with ecctool's flag
/// extras — a --ber list, a --mem restriction and a checked --scrub.
int run_memfault(int argc, char** argv) {
  // Sentinel for "--scrub was not passed": the flag only overwrites it
  // when present, which is how the contradiction check below can tell
  // an explicit interval apart from the default.
  constexpr std::uint64_t kScrubUnset = ~std::uint64_t{0};
  faultsim::MemCampaignConfig cfg;
  cfg.runs_per_cell = 60;
  std::uint64_t scrub = kScrubUnset;
  std::string ber_list;
  bench::Args args;
  args.seed = cfg.seed;
  args.threads = cfg.threads;
  args.mem = "";  // default: sweep all three models
  args.add_u64("--runs", &cfg.runs_per_cell);
  args.add_u64("--scrub", &scrub);
  args.add_str("--ber", &ber_list);
  if (!args.parse(argc - 2, argv + 2, "ecctool_memfault.json") ||
      !args.positionals().empty()) {
    return usage();
  }
  if (cfg.runs_per_cell == 0) cfg.runs_per_cell = 1;
  if (!bench::check_curve(args.curve)) return 2;
  if (!args.mem.empty()) {
    cfg.models = {armvm::mem_model_from_name(args.mem)};
  }
  // Scrubbing repairs words, and only SECDED can repair — an explicit
  // interval combined with a model selection that excludes SECDED is a
  // contradiction, not a sweep.
  const bool has_secded =
      std::find(cfg.models.begin(), cfg.models.end(),
                armvm::MemModelKind::kSecded) != cfg.models.end();
  if (scrub != kScrubUnset && scrub != 0 && !has_secded) {
    std::fprintf(stderr,
                 "error: --scrub=%llu requires the secded model (scrubbing "
                 "repairs words; --mem=%s cannot repair)\n",
                 static_cast<unsigned long long>(scrub), args.mem.c_str());
    return 2;
  }
  cfg.scrub_interval = scrub == kScrubUnset ? 1024 : scrub;
  if (!ber_list.empty()) {
    cfg.bers.clear();
    const char* s = ber_list.c_str();
    while (*s != '\0') {
      char* end = nullptr;
      const double b = std::strtod(s, &end);
      if (end == s || b <= 0.0 || b > 1.0) {
        std::fprintf(stderr,
                     "error: --ber expects a comma-separated list of rates "
                     "in (0, 1], got '%s'\n",
                     ber_list.c_str());
        return 2;
      }
      cfg.bers.push_back(b);
      s = *end == ',' ? end + 1 : end;
      if (end == s && *end != '\0') {
        std::fprintf(stderr, "error: bad --ber list '%s'\n", ber_list.c_str());
        return 2;
      }
    }
  }

  telemetry::MetricsRegistry metrics;
  bench::MemCampaignRun run = bench::run_mem_campaign(cfg, args, metrics);
  if (args.json) {
    bench::write_manifest(args.json_path, "ecctool-memfault",
                          std::move(run.payload), &args, &metrics);
  }
  return 0;
}

/// `ecctool sca [kernel]`: bench_sca's constant-trace and TVLA
/// front-ends on one kernel, plus the per-cycle |t| trace export.
int run_sca(int argc, char** argv) {
  bench::Args args;
  args.seed = 0x5CA;
  args.iters = 40;  // TVLA traces per class
  if (!args.parse(argc - 2, argv + 2, "ecctool_sca.json") ||
      args.positionals().size() > 1) {
    return usage();
  }
  if (!bench::check_curve(args.curve)) return 2;
  const std::string kernel = args.positionals().empty()
                                 ? default_kernel(args.curve)
                                 : args.positionals()[0];
  if (!workloads::KernelRegistry::instance().contains(kernel)) {
    return usage();
  }

  telemetry::MetricsRegistry metrics;
  telemetry::Json payload = bench::sca_payload(args, args.curve);
  bench::run_constant_trace({kernel}, args, metrics, payload);
  const sca::TvlaCampaignResult res =
      bench::run_tvla({kernel}, args, metrics, payload).front();
  std::printf("\nverdict: %s   (t-digest %016llx)\n",
              res.summary.leaky ? "LEAKY" : "CLEAN",
              static_cast<unsigned long long>(res.t_digest));

  if (profile::write_text_file(
          "ecctool_ttrace.json",
          profile::counter_track_json("tvla |t| " + kernel, res.t_trace))) {
    std::printf("\nwrote ecctool_ttrace.json (Perfetto counter track)\n");
  }
  if (args.json) {
    bench::write_manifest(args.json_path, "ecctool-sca", std::move(payload),
                          &args, &metrics);
  }
  return 0;
}

/// `ecctool stats <manifest.json> [--tracks]`: pretty-print a saved run
/// manifest — build/run config, counters, gauges, histogram quantiles —
/// and with --tracks export every histogram's bucket distribution as a
/// Perfetto counter track (one file per histogram, sample i = count in
/// the i-th occupied bucket).
int run_stats(int argc, char** argv) {
  bool tracks = false;
  bench::Args args;
  args.add_flag("--tracks", &tracks);
  if (!args.parse(argc - 2, argv + 2, "") ||
      args.positionals().size() != 1) {
    return usage();
  }
  const std::string& path = args.positionals()[0];
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    return 1;
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  const telemetry::Json doc = telemetry::Json::parse(text);
  if (!telemetry::is_manifest(doc)) {
    std::fprintf(stderr,
                 "error: %s is not an %s run manifest (regenerate it with "
                 "--json on a current build)\n",
                 path.c_str(), telemetry::kManifestSchema);
    return 1;
  }

  std::printf("tool    : %s\n", doc.get("tool")->as_string().c_str());
  const telemetry::Json* build = doc.get("build");
  for (const auto& [key, v] : build->members()) {
    std::printf("%-8s: %s\n", key.c_str(),
                v.kind() == telemetry::Json::Kind::kString
                    ? v.as_string().c_str()
                    : v.token().c_str());
  }
  const telemetry::Json* run = doc.get("run");
  if (run->size() != 0) {
    std::printf("run     :");
    for (const auto& [key, v] : run->members()) {
      std::printf(" %s=%s", key.c_str(),
                  v.kind() == telemetry::Json::Kind::kString
                      ? v.as_string().c_str()
                      : v.token().c_str());
    }
    std::printf("\n");
  }

  const telemetry::Json* metrics = doc.get("metrics");
  const telemetry::Json* counters = metrics->get("counters");
  if (counters != nullptr && counters->size() != 0) {
    std::printf("\ncounters:\n");
    for (const auto& [name, v] : counters->members()) {
      std::printf("  %-44s %12llu\n", name.c_str(),
                  static_cast<unsigned long long>(v.as_u64()));
    }
  }
  const telemetry::Json* gauges = metrics->get("gauges");
  if (gauges != nullptr && gauges->size() != 0) {
    std::printf("\ngauges:\n");
    for (const auto& [name, v] : gauges->members()) {
      std::printf("  %-44s %12llu\n", name.c_str(),
                  static_cast<unsigned long long>(v.as_u64()));
    }
  }
  const telemetry::Json* hists = metrics->get("histograms");
  if (hists != nullptr && hists->size() != 0) {
    std::printf("\nhistograms:\n");
    for (const auto& [name, h] : hists->members()) {
      auto u64 = [&h](const char* key) {
        const telemetry::Json* v = h.get(key);
        return v == nullptr ? std::uint64_t{0} : v->as_u64();
      };
      const telemetry::Json* unit = h.get("unit");
      std::printf("  %-44s n=%llu min=%llu p50=%llu p90=%llu p99=%llu "
                  "max=%llu %s\n",
                  name.c_str(),
                  static_cast<unsigned long long>(u64("count")),
                  static_cast<unsigned long long>(u64("min")),
                  static_cast<unsigned long long>(u64("p50")),
                  static_cast<unsigned long long>(u64("p90")),
                  static_cast<unsigned long long>(u64("p99")),
                  static_cast<unsigned long long>(u64("max")),
                  unit == nullptr ? "" : unit->as_string().c_str());
      if (!tracks) continue;
      const telemetry::Json* buckets = h.get("buckets");
      if (buckets == nullptr || buckets->size() == 0) continue;
      std::vector<double> counts;
      for (const telemetry::Json& pair : buckets->items()) {
        counts.push_back(pair.items()[1].as_f64());
      }
      std::string fname = "ecctool_stats_" + name + ".json";
      for (char& c : fname) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.') c = '_';
      }
      if (profile::write_text_file(
              fname, profile::counter_track_json(name, counts))) {
        std::printf("    -> %s (Perfetto counter track, one sample per "
                    "occupied bucket)\n",
                    fname.c_str());
      }
    }
  }
  return 0;
}

// ---- serve / client --------------------------------------------------

volatile std::sig_atomic_t g_stop_signal = 0;
void on_stop_signal(int) { g_stop_signal = 1; }

/// `ecctool serve`: the long-running crypto/campaign service
/// (service/server.h, wire schema in DESIGN.md §14). Runs until a
/// `shutdown` request or SIGINT/SIGTERM, then drains and (with --json)
/// writes a run manifest of the serve counters.
int run_serve(int argc, char** argv) {
  std::uint64_t port = 0;
  std::uint64_t listen_workers = 0;  // 0 = hardware concurrency
  std::uint64_t queue_depth = 64;
  bool no_coalesce = false;
  std::string port_file;
  bench::Args args;
  args.add_u64("--port", &port);
  args.add_u64("--listen-workers", &listen_workers);
  args.add_u64("--queue-depth", &queue_depth);
  args.add_flag("--no-coalesce", &no_coalesce);
  args.add_str("--port-file", &port_file);
  if (!args.parse(argc - 2, argv + 2, "ecctool_serve.json") ||
      !args.positionals().empty()) {
    return usage();
  }
  if (port > 65535) {
    std::fprintf(stderr, "error: --port=%llu is not a TCP port\n",
                 static_cast<unsigned long long>(port));
    return 2;
  }
  if (queue_depth == 0) {
    std::fprintf(stderr,
                 "error: --queue-depth=0 would admit no work; use a "
                 "positive depth\n");
    return 2;
  }

  service::ServerConfig cfg;
  try {
    cfg.engine = armvm::decode_mode_from_name(args.engine);
    cfg.mem_model =
        armvm::MemModelConfig::for_kind(armvm::mem_model_from_name(args.mem));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  cfg.port = static_cast<std::uint16_t>(port);
  cfg.workers = static_cast<unsigned>(listen_workers);
  cfg.queue_depth = static_cast<std::size_t>(queue_depth);
  cfg.coalesce = !no_coalesce;

  service::Server server(cfg);
  server.start();
  std::printf("serving on 127.0.0.1:%u (%u workers, queue depth %llu%s)\n",
              server.port(), server.config().workers == 0
                                 ? 0u
                                 : server.config().workers,
              static_cast<unsigned long long>(queue_depth),
              cfg.coalesce ? ", coalescing" : "");
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "%u\n", server.port());
      std::fclose(f);
    }
  }

  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
  while (g_stop_signal == 0 && !server.stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();

  telemetry::MetricsRegistry& m = server.metrics();
  std::printf("served %llu request(s), %llu busy rejection(s), "
              "%llu coalesced\n",
              static_cast<unsigned long long>(
                  m.counter_value("serve.requests")),
              static_cast<unsigned long long>(m.counter_value("serve.busy")),
              static_cast<unsigned long long>(
                  m.counter_value("serve.coalesced")));
  if (args.json) {
    using telemetry::Json;
    Json p = Json::object();
    p.set("subcommand", Json::str("serve"));
    p.set("queue_depth", Json::number(queue_depth));
    p.set("coalesce", Json::boolean(cfg.coalesce));
    for (const char* name : {"requests", "busy", "coalesced", "errors"}) {
      p.set(name, Json::number(m.counter_value(std::string("serve.") + name)));
    }
    bench::write_manifest(args.json_path, "ecctool-serve", std::move(p), &args,
                          &m);
  }
  return 0;
}

/// `ecctool client`: one-shot request against a running serve instance —
/// connect, send one eccm0.req.v1 frame, print the response document.
/// Exit 0 on an ok response, 1 on a typed error response or transport
/// failure, 2 on bad usage.
int run_client(int argc, char** argv) {
  std::uint64_t port = 0;
  std::string raw;
  std::string params_text;
  bench::Args args;
  args.add_u64("--port", &port);
  args.add_str("--raw", &raw);
  args.add_str("--params", &params_text);
  if (!args.parse(argc - 2, argv + 2, "")) return usage();
  if (port == 0 || port > 65535) {
    std::fprintf(stderr,
                 "error: client needs --port=P of a running serve\n");
    return 2;
  }
  if (raw.empty() && args.positionals().size() != 1) {
    std::fprintf(stderr, "error: client takes exactly one op (or --raw)\n");
    return 2;
  }

  telemetry::Json params = telemetry::Json::object();
  if (!params_text.empty()) {
    try {
      params = telemetry::Json::parse(params_text);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: bad --params JSON: %s\n", e.what());
      return 2;
    }
  } else {
    params.set("curve", telemetry::Json::str(args.curve));
    if (args.iters != 0) {
      params.set("reps", telemetry::Json::number(args.iters));
    }
  }

  try {
    service::Client client;
    client.connect_to(static_cast<std::uint16_t>(port));
    const telemetry::Json resp =
        raw.empty() ? client.call(args.positionals()[0], std::move(params))
                    : client.call_raw(raw);
    std::printf("%s\n", resp.dump().c_str());
    const telemetry::Json* ok = resp.get("ok");
    return ok != nullptr && ok->as_bool() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  // The protocol commands run the sect233k1 host crypto stack. They
  // accept the shared --curve= flag for symmetry, but the prime curves'
  // ECDH/ECDSA transactions run as VM workloads (workloads::make_workload),
  // not as host crypto — so anything else is rejected up front.
  std::vector<char*> filtered;
  if (cmd == "keygen" || cmd == "sign" || cmd == "verify" || cmd == "ecdh") {
    std::string curve_flag = "sect233k1";
    for (int i = 0; i < argc; ++i) {
      if (std::strncmp(argv[i], "--curve=", 8) == 0) {
        curve_flag = argv[i] + 8;
      } else {
        filtered.push_back(argv[i]);
      }
    }
    if (!bench::check_curve(curve_flag)) return 2;
    if (curve_flag != "sect233k1") {
      std::fprintf(stderr,
                   "error: host protocol crypto runs on sect233k1; run "
                   "%s-curve transactions through the workload layer "
                   "(bench_prime_vs_binary, ecctool profile/campaign/sca "
                   "--curve=%s)\n",
                   curve_flag.c_str(), curve_flag.c_str());
      return 2;
    }
    argc = static_cast<int>(filtered.size());
    argv = filtered.data();
  }
  const crypto::Ecdsa ecdsa;
  const crypto::Ecdh ecdh;
  const auto& curve = ecdsa.curve();
  ec::CurveOps ops(curve);

  try {
    if (cmd == "profile") return run_profile(argc, argv);
    if (cmd == "campaign") return run_campaign(argc, argv);
    if (cmd == "memfault") return run_memfault(argc, argv);
    if (cmd == "sca") return run_sca(argc, argv);
    if (cmd == "kernels") return run_kernels(argc, argv);
    if (cmd == "stats") return run_stats(argc, argv);
    if (cmd == "serve") return run_serve(argc, argv);
    if (cmd == "client") return run_client(argc, argv);
    if (cmd == "info") {
      bench::Args args;
      if (!args.parse(argc - 2, argv + 2, "") || !args.positionals().empty()) {
        return usage();
      }
      if (!bench::check_curve(args.curve)) return 2;
      const workloads::CurveRef& ref = workloads::curve_from_name(args.curve);
      if (!ref.binary_field) {
        const ecp::PrimeCurve& pc = workloads::prime_curve(ref);
        std::printf("curve     : %s (short Weierstrass, F(p), %u bits, "
                    "%u limbs)\n",
                    ref.name.c_str(), ref.bits, ref.limbs);
        std::printf("p         : %s\n", pc.p.to_hex().c_str());
        std::printf("order     : %s\n", pc.order.to_hex().c_str());
        std::printf("generator : (%s,\n             %s)\n",
                    pc.gx.to_hex().c_str(), pc.gy.to_hex().c_str());
        std::printf("kernels   : %s-mul/-mont/-sqr/-redc/-inv\n",
                    ref.kernel_tag.c_str());
        return 0;
      }
      std::printf("curve     : %s (Koblitz, F(2^%u), a=0, b=1, h=%u)\n",
                  curve.name.c_str(), curve.f().m(), curve.cofactor);
      std::printf("order     : %s\n", curve.order.to_hex().c_str());
      std::printf("generator : %s\n",
                  bytes_to_hex(ec::encode_point(
                                   curve,
                                   ec::AffinePoint::make(curve.gx, curve.gy),
                                   true))
                      .c_str());
      return 0;
    }
    if (cmd == "keygen") {
      if (argc < 3) return usage();
      const std::string seed_str = argv[2];
      std::vector<std::uint8_t> seed(seed_str.begin(), seed_str.end());
      crypto::HmacDrbg rng(seed);
      const crypto::KeyPair kp = ecdsa.generate(rng);
      std::printf("private: %s\n", kp.d.to_hex().c_str());
      std::printf("public : %s\n",
                  bytes_to_hex(ec::encode_point(curve, kp.q, true)).c_str());
      return 0;
    }
    if (cmd == "sign") {
      if (argc < 4) return usage();
      const mpint::UInt d = mpint::UInt::from_hex(argv[2]);
      const std::string msg = join_args(argc, argv, 3);
      const crypto::Signature sig = ecdsa.sign(d, msg);
      std::printf("r: %s\n", sig.r.to_hex().c_str());
      std::printf("s: %s\n", sig.s.to_hex().c_str());
      return 0;
    }
    if (cmd == "verify") {
      if (argc < 6) return usage();
      const ec::AffinePoint q =
          ec::decode_point(ops, hex_to_bytes(argv[2]));
      const crypto::Signature sig{mpint::UInt::from_hex(argv[3]),
                                  mpint::UInt::from_hex(argv[4])};
      const std::string msg = join_args(argc, argv, 5);
      const bool ok = ecdsa.verify(q, msg, sig);
      std::printf("%s\n", ok ? "VALID" : "INVALID");
      return ok ? 0 : 1;
    }
    if (cmd == "ecdh") {
      if (argc != 4) return usage();
      const mpint::UInt d = mpint::UInt::from_hex(argv[2]);
      const ec::AffinePoint peer =
          ec::decode_point(ops, hex_to_bytes(argv[3]));
      if (!ecdh.valid_public_key(peer)) {
        std::fprintf(stderr, "peer public key failed validation\n");
        return 1;
      }
      const auto secret = ecdh.shared_secret(d, peer);
      std::printf("secret: %s\n", crypto::to_hex(secret).c_str());
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
