// The main of the google-benchmark hosts (bench_host_field,
// bench_host_point): the repo-wide `--json[=PATH]` flag becomes
// google-benchmark's JSON reporter, and the reporter's file is then
// re-wrapped in place in the run-manifest envelope.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "manifest.h"

namespace eccm0::bench {

inline int gbench_main(int argc, char** argv, const char* tool,
                       const std::string& default_json_path) {
  const std::string json_path = json_flag_path(argc, argv, default_json_path);
  std::vector<char*> args;
  std::string out_flag, fmt_flag = "--benchmark_out_format=json";
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json", 6) == 0) continue;
    args.push_back(argv[i]);
  }
  if (!json_path.empty()) {
    out_flag = "--benchmark_out=" + json_path;
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (json_path.empty()) return 0;

  // The reporter's document becomes the payload; it is wall-clock data,
  // so the envelope's metrics section stays empty.
  std::FILE* f = std::fopen(json_path.c_str(), "rb");
  std::string text;
  if (f != nullptr) {
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    std::fclose(f);
  }
  try {
    if (write_manifest(json_path, tool, telemetry::Json::parse(text))) {
      return 0;
    }
  } catch (const std::invalid_argument&) {
  }
  std::fprintf(stderr, "failed to rewrite %s\n", json_path.c_str());
  return 1;
}

}  // namespace eccm0::bench
