// The run-manifest envelope for bench mains and the ecctool subcommands
// (telemetry/manifest.h holds the schema). A main builds its payload as
// one telemetry::Json tree and hands it over:
//
//   telemetry::Json p = telemetry::Json::object();
//   p.set("bench", telemetry::Json::str("table1"));
//   p.set("rows", bench::table_json(t));
//   bench::write_manifest(path, "bench_table1", std::move(p));
//
// The "run" section records the shared Args flags when a main passes
// them (and stays empty otherwise); the metrics snapshot excludes
// wall-clock units, so a fixed seed + thread count reproduces the file
// byte for byte.
#pragma once

#include <cstdio>
#include <string>
#include <utility>

#include "report.h"
#include "telemetry/manifest.h"
#include "telemetry/metrics.h"

namespace eccm0::bench {

/// The body rows of `t` as an array of objects keyed by the header row
/// (row cells beyond the header count are dropped).
inline telemetry::Json table_json(const Table& t) {
  using telemetry::Json;
  const auto& rows = t.rows();
  Json out = Json::array();
  for (std::size_t r = 1; r < rows.size(); ++r) {
    Json row = Json::object();
    for (std::size_t c = 0; c < rows[r].size() && c < rows[0].size(); ++c) {
      row.set(rows[0][c], Json::str(rows[r][c]));
    }
    out.push(std::move(row));
  }
  return out;
}

/// Write `payload` to `path` inside the manifest envelope, with the
/// shared Args flags as the "run" section and the registry snapshot as
/// "metrics" when given. Reports the path on stdout (a warning on
/// stderr); false on I/O failure.
inline bool write_manifest(const std::string& path, const char* tool,
                           telemetry::Json payload, const Args* args = nullptr,
                           const telemetry::MetricsRegistry* metrics = nullptr) {
  using telemetry::Json;
  telemetry::RunManifest man(tool);
  if (args != nullptr) {
    Json& run = man.run();
    run.set("seed", Json::number(args->seed));
    run.set("iters", Json::number(args->iters));
    run.set("threads", Json::number(std::uint64_t{args->threads}));
    run.set("engine", Json::str(args->engine));
    run.set("mem", Json::str(args->mem));
    run.set("curve", Json::str(args->curve));
  }
  man.set_payload(std::move(payload));
  if (metrics != nullptr) man.set_metrics(*metrics);
  if (!man.write_file(path)) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace eccm0::bench
