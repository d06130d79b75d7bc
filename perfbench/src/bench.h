// Shared pieces of the repo benchmark: wall clock, in-memory spans,
// sample statistics, the metric report, and the workload catalog.
//
// The benchmark only calls the eccm0 libraries' public APIs. Every
// setting those APIs default (engine, memory model, coalescing, queue
// depth) is taken from the default, never pinned here, so a change of
// default shows up as a measured change.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "armvm/cpu.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "workloads/spec.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

std::uint64_t now_ns();
double seconds_since(Clock::time_point t0);
double ms_between(Clock::time_point a, Clock::time_point b);

/// Worker count of the deployed configuration: hardware concurrency.
unsigned nproc();

/// The engine every replay uses: the one a default ServerConfig holds.
eccm0::armvm::Cpu::DecodeMode default_engine();

// ---- spans ------------------------------------------------------------
//
// A span is one call from benchmark code into a layer's public function:
// name, start, end, the span that caused it, and on serve-mix the
// request id. Spans are recorded only while tracing is on (no clock read
// otherwise), kept in memory and written out at exit.

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;  ///< serve request id, 0 elsewhere
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// RAII span around one call; a no-op while tracing is off.
  class Scope {
   public:
    Scope(Tracer& t, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  ///< null when tracing was off at entry
    Span span_;
    std::uint32_t saved_parent_ = 0;
  };

  /// Record a span whose start and end were taken by the caller (used
  /// for pipelined requests, which do not nest on one thread).
  void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint32_t parent, std::uint64_t request);

  /// Id of the innermost open span on this thread (0 outside any).
  static std::uint32_t current();

  /// Chrome trace-event JSON ("X" events; args carry id, parent and
  /// request), loadable in Perfetto.
  bool write_json(const std::string& path) const;

 private:
  std::uint32_t next_id();
  void push(Span s);

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< guarded by mu_
  std::uint32_t ids_ = 0;    ///< guarded by mu_
};

Tracer& tracer();

// ---- sample statistics --------------------------------------------------

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The highest percentile with at least ten samples beyond it,
/// 100 * (1 - 10/n) (p50 when there are fewer than twenty samples). It
/// moves smoothly with the sample count instead of jumping between fixed
/// percentiles when a run completes a few more or fewer operations.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
};
Tail tail_of(const std::vector<double>& v);

/// Quantile of a telemetry log-bucket histogram, interpolated linearly
/// inside the bucket that holds the rank (the histogram's own quantile
/// returns the bucket floor, which steps in 3% increments).
double hist_quantile(const eccm0::telemetry::Histogram& h, double q);
/// Same over the union of snapshot_json() histogram objects ({count,
/// min, max, buckets: [[floor, count], ...]}); null entries are skipped.
double hist_json_quantile(
    const std::vector<const eccm0::telemetry::Json*>& hists, double q);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

// ---- report -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  ///< observations behind the value
  std::string note;           ///< e.g. the tail percentile
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< output-check failures
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit,
           std::uint64_t samples = 1, std::string note = "");
  /// An output check failed: `ops` operations are counted as failed.
  void fail(std::uint64_t ops, const std::string& why);
  bool correct() const { return problems.empty() && failed == 0; }
};

/// Print a human table of the metrics, then one `RESULT {json}` line.
void print_report(const Report& r);

// ---- workload catalog ----------------------------------------------------

/// One replayable (transaction, curve) pair with its kernel images and
/// the committed reference values (BENCH_prime_vs_binary.json, reps = 1).
struct Entry {
  std::string name;  ///< "kp-sect233k1", ...
  eccm0::workloads::WorkloadSpec spec;
  eccm0::workloads::ReplayImages images;
  std::uint64_t want_cycles = 0;
  std::uint64_t want_digest = 0;
};

/// The six transactions the workloads draw from: kp/ecdh/ecdsa on
/// sect233k1 and secp192r1, in that order.
class Catalog {
 public:
  /// Cold set-up: op-mix derivation and kernel assembly + fusion for
  /// every entry. `build_ms` receives the ReplayImages::resolve share.
  static Catalog build(double* build_ms);

  const std::vector<Entry>& entries() const { return entries_; }
  const Entry& at(std::size_t i) const { return entries_.at(i); }
  std::size_t index_of(const std::string& tx, const std::string& curve) const;

 private:
  std::vector<Entry> entries_;
};

inline constexpr const char* kCurves[2] = {"sect233k1", "secp192r1"};
inline constexpr const char* kTransactions[3] = {"kp", "ecdh", "ecdsa"};

/// Replay one entry under the default engine and check cycles + digest
/// against the committed values (reps = 1 only).
struct ReplayCheck {
  eccm0::workloads::ReplayResult result;
  bool ok = false;
};
ReplayCheck replay_checked(const Entry& e);

/// Seeded order of pass `pass` over the multiset `items`. Every pass
/// holds exactly the template's multiset, so pass-aggregated
/// deterministic metrics do not depend on the seed while the request
/// order does.
std::vector<std::size_t> seeded_pass(std::uint64_t seed, std::uint64_t pass,
                                     const std::vector<std::size_t>& items);

// ---- workloads -----------------------------------------------------------

/// Shared by the three drivers: what one timed phase measured.
struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double elapsed_s = 0.0;
  std::vector<double> latency_ms;
  /// Median latency of each completed pass (replay-mix). When present,
  /// latency_p50_ms is their mean: every pass holds the same multiset, so
  /// each pass median is the same transaction's latency, and the mean
  /// moves in proportion to how long the host ran slow instead of
  /// flipping between its fast and slow speeds as the run-wide median does.
  std::vector<double> pass_p50_ms;
  double sim_cycles = 0.0;     ///< summed over completed operations
  double sim_energy_uj = 0.0;  ///< summed over completed operations
  std::uint64_t sim_ops = 0;
  double tx_per_s() const { return elapsed_s > 0 ? attempted / elapsed_s : 0; }
};

/// What the serve layer reported after a phase: the client view, the
/// server's own `stats`, and inline `ping` round trips on an idle
/// connection. The ledger turns it into the service.* rows.
struct ServeObservation {
  std::vector<double> client_ms;     ///< per-request client latency
  eccm0::telemetry::Json stats;      ///< payload of the `stats` op
  std::vector<double> ping_ms;       ///< inline ping round trips
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  bool print_sequence = false;
};

/// A workload: cold set-up, then timed phases (repeatable), then the
/// output checks that need the direct library path.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual void setup() = 0;
  virtual Phase run(double seconds) = 0;
  /// Post-phase checks (serve identity vs direct, 1-worker campaign
  /// re-run). Adds problems / failed ops to `r`.
  virtual void check(Report& r) = 0;
  /// Human-readable request sequence of the first passes (self-tests).
  virtual std::string sequence(std::size_t n) const = 0;
  /// One pass of the workload's replays as (catalog entry, reps) pairs;
  /// the ledger prices it (instructions, direct replay time). Empty for
  /// campaign, which replays no catalog entry.
  struct Op {
    std::size_t entry = 0;
    unsigned reps = 1;
  };
  virtual std::vector<Op> pass_template() const = 0;
  /// serve-mix only: query `stats` and ping the live server after the
  /// last phase. Null on the other workloads.
  virtual const ServeObservation* observe_serve() { return nullptr; }
  virtual void teardown() {}

  const Catalog& catalog() const { return catalog_; }
  double kernel_build_ms() const { return kernel_build_ms_; }

 protected:
  Catalog catalog_;
  double kernel_build_ms_ = 0.0;
  std::uint64_t seed_ = 1;
};

std::unique_ptr<Workload> make_replay_mix(std::uint64_t seed);
std::unique_ptr<Workload> make_campaign(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_mix(std::uint64_t seed);

/// The per-layer ledger (traced runs): times calls into every layer's
/// public functions and adds the per-layer metrics and residual rows.
void run_ledger(Workload& w, const Options& opt, Report& r);

}  // namespace perfbench
