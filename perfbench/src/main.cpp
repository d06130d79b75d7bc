// perfbench: the repo benchmark binary.
//
//   perfbench --workload replay-mix|campaign|serve-mix --seed N
//             --seconds S --trace 0|1 [--setup-only] [--print-sequence N]
//
// --trace 0 times the workload with tracing off and reports the
// end-to-end metrics. --trace 1 runs the workload in alternating untraced
// and traced segments (the difference is the tracing overhead), then the
// per-layer ledger, and writes the spans to
// .bench_out/spans-<workload>-<seed>.json. --setup-only measures one cold
// set-up and exits (run.py takes the median over several processes).
// Every output is checked; any failed check makes the exit code 1.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload replay-mix|campaign|serve-mix "
               "--seed N --seconds S --trace 0|1 [--setup-only] "
               "[--print-sequence N]\n");
  return 2;
}

bool parse(int argc, char** argv, Options& opt, std::size_t& sequence_len) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    char* end = nullptr;
    if (a == "--setup-only") {
      opt.setup_only = true;
    } else if (!has_value) {
      return false;
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return false;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(opt.seconds > 0)) return false;
    } else if (a == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return false;
      opt.trace = v == "1";
    } else if (a == "--print-sequence") {
      opt.print_sequence = true;
      sequence_len = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return false;
    } else {
      return false;
    }
  }
  return !opt.workload.empty();
}

void absorb(Phase& into, const Phase& p) {
  into.attempted += p.attempted;
  into.failed += p.failed;
  into.elapsed_s += p.elapsed_s;
  into.latency_ms.insert(into.latency_ms.end(), p.latency_ms.begin(),
                         p.latency_ms.end());
  into.pass_p50_ms.insert(into.pass_p50_ms.end(), p.pass_p50_ms.begin(),
                          p.pass_p50_ms.end());
  into.sim_cycles += p.sim_cycles;
  into.sim_energy_uj += p.sim_energy_uj;
  into.sim_ops += p.sim_ops;
}

void add_end_to_end(const Phase& ph, double setup_s, Report& r) {
  const std::uint64_t ops = ph.latency_ms.size();
  r.add("setup_s", setup_s, "s");
  r.add("tx_per_s", ph.tx_per_s(), "1/s", ph.attempted);
  if (ph.pass_p50_ms.empty()) {
    r.add("latency_p50_ms", median(ph.latency_ms), "ms", ops);
  } else {
    double sum = 0.0;
    for (double v : ph.pass_p50_ms) sum += v;
    r.add("latency_p50_ms", sum / ph.pass_p50_ms.size(), "ms", ops,
          "mean of " + std::to_string(ph.pass_p50_ms.size()) + " pass medians");
  }
  const Tail tail = tail_of(ph.latency_ms);
  char note[32];
  std::snprintf(note, sizeof(note), "p%.2f", tail.percentile);
  r.add("latency_tail_ms", tail.value, "ms", ops, note);
  const double done = static_cast<double>(ph.sim_ops);
  r.add("sim_cycles_per_tx", done > 0 ? ph.sim_cycles / done : 0.0, "cycles",
        ph.sim_ops, "sim");
  r.add("sim_energy_uj_per_tx", done > 0 ? ph.sim_energy_uj / done : 0.0,
        "uJ", ph.sim_ops, "sim");
  r.add("failed_frac",
        ph.attempted > 0 ? static_cast<double>(ph.failed) / ph.attempted : 0.0,
        "frac", ph.attempted);
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::size_t sequence_len = 0;
  if (!parse(argc, argv, opt, sequence_len)) return usage();

  std::unique_ptr<Workload> w;
  if (opt.workload == "replay-mix") {
    w = make_replay_mix(opt.seed);
  } else if (opt.workload == "campaign") {
    w = make_campaign(opt.seed);
  } else if (opt.workload == "serve-mix") {
    w = make_serve_mix(opt.seed);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return usage();
  }

  tracer().set_enabled(opt.trace);
  const Clock::time_point t0 = Clock::now();
  {
    Tracer::Scope span(tracer(), "setup");
    w->setup();
  }
  const double setup_s = seconds_since(t0);
  if (opt.setup_only) {
    w->teardown();
    std::printf("SETUP %.17g\n", setup_s);
    return 0;
  }
  if (opt.print_sequence) {
    std::fputs(w->sequence(sequence_len).c_str(), stdout);
    w->teardown();
    return 0;
  }

  Report r;
  if (!opt.trace) {
    const Phase ph = w->run(opt.seconds);
    r.attempted = ph.attempted;
    r.failed = ph.failed;
    if (ph.failed != 0) r.problems.push_back("operations failed their checks");
    w->check(r);
    add_end_to_end(ph, setup_s, r);
  } else {
    // Untraced and traced segments alternate, so drift in machine speed
    // during the run lands on both sides of the overhead comparison.
    Phase plain, traced;
    for (int seg = 0; seg < 4; ++seg) {
      const bool on = seg % 2 == 1;
      tracer().set_enabled(on);
      Tracer::Scope span(tracer(), ("workload." + opt.workload).c_str());
      absorb(on ? traced : plain, w->run(opt.seconds / 4));
    }
    r.attempted = plain.attempted + traced.attempted;
    r.failed = plain.failed + traced.failed;
    if (r.failed != 0) r.problems.push_back("operations failed their checks");
    w->check(r);
    run_ledger(*w, opt, r);
    r.add("trace.overhead_frac",
          (plain.tx_per_s() - traced.tx_per_s()) / plain.tx_per_s(), "frac",
          traced.attempted);
    ::mkdir(".bench_out", 0755);
    const std::string path = ".bench_out/spans-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    if (!tracer().write_json(path)) {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    }
  }
  w->teardown();
  print_report(r);
  return r.correct() ? 0 : 1;
}
