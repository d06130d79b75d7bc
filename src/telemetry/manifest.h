// Run manifest: the one JSON envelope every bench and ecctool subcommand
// emits, so downstream tooling (CI schema checks, `ecctool stats`,
// cross-commit perf tracking) reads a single shape:
//
//   {
//     "schema":  "eccm0.run.v1",
//     "tool":    "bench_memfault" | "ecctool campaign" | ...,
//     "build":   { "compiler": ..., "build_type": ... },
//     "run":     { tool config: seed, engine, mem, threads, iters, ... },
//     "payload": { the tool's own numbers, shape owned by the tool },
//     "metrics": { MetricsRegistry snapshot, deterministic units only }
//   }
//
// Key order is fixed (insertion-ordered Json) and wall-clock metrics are
// excluded, so a fixed seed + thread count reproduces the file byte for
// byte.
#pragma once

#include <string>

#include "telemetry/json.h"
#include "telemetry/metrics.h"

namespace eccm0::telemetry {

inline constexpr const char* kManifestSchema = "eccm0.run.v1";

struct BuildInfo {
  std::string compiler;    ///< from __VERSION__
  std::string build_type;  ///< from the ECCM0_BUILD_TYPE compile definition
};

BuildInfo build_info();

/// The "build" object of the envelope.
Json build_info_json();

/// Assembles the envelope incrementally; to_json() emits the fixed key
/// order above regardless of call order here.
class RunManifest {
 public:
  explicit RunManifest(std::string tool) : tool_(std::move(tool)) {}

  /// The "run" config object; add fields with set(). Insertion order is
  /// preserved, so add them in a fixed order.
  Json& run() { return run_; }

  void set_payload(Json payload) { payload_ = std::move(payload); }
  void set_metrics(const MetricsRegistry& reg) {
    metrics_ = reg.snapshot_json();
  }

  Json to_json() const;
  std::string dump() const { return to_json().dump(); }
  /// Write dump() + '\n' to `path`; false on I/O failure.
  bool write_file(const std::string& path) const;

 private:
  std::string tool_;
  Json run_ = Json::object();
  Json payload_ = Json::object();
  Json metrics_ = Json::object();
};

/// True iff `doc` looks like a manifest envelope (schema tag + required
/// sections) — the same predicate the CI jq check applies.
bool is_manifest(const Json& doc);

}  // namespace eccm0::telemetry
