#include "profile/trace_export.h"

#include <cstdio>

#include "telemetry/json.h"

namespace eccm0::profile {

namespace {

using telemetry::Json;

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

std::string chrome_trace_json(std::span<const NamedProfile> tracks,
                              double clock_hz) {
  const double us_per_cycle = 1e6 / clock_hz;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& ev) {
    if (!first) out += ',';
    out += ev;
    first = false;
  };
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    const unsigned tid = static_cast<unsigned>(t) + 1;
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
         std::to_string(tid) + ",\"args\":{\"name\":\"" +
         Json::escape(tracks[t].name) + "\"}}");
    for (const Profiler::Span& s : tracks[t].profiler->spans()) {
      const std::uint64_t dur_cycles = s.end_cycle - s.begin_cycle;
      emit("{\"name\":\"" + Json::escape(s.name) +
           "\",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(tid) +
           ",\"ts\":" + fmt(static_cast<double>(s.begin_cycle) *
                            us_per_cycle) +
           ",\"dur\":" + fmt(static_cast<double>(dur_cycles) * us_per_cycle) +
           ",\"args\":{\"cycles\":" + std::to_string(dur_cycles) +
           ",\"depth\":" + std::to_string(s.depth) + "}}");
    }
  }
  out += "]}";
  return out;
}

std::string collapsed_stack_text(std::span<const NamedProfile> tracks) {
  std::string out;
  for (const NamedProfile& t : tracks) {
    const std::string prefix =
        tracks.size() > 1 ? Json::escape(t.name) + ";" : std::string{};
    for (const auto& [stack, cycles] : t.profiler->collapsed_stacks()) {
      out += prefix + stack + " " + std::to_string(cycles) + "\n";
    }
  }
  return out;
}

std::string counter_track_json(const std::string& name,
                               std::span<const double> values,
                               double clock_hz) {
  const double us_per_cycle = 1e6 / clock_hz;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const std::string escaped = Json::escape(name);
  for (std::size_t i = 0; i < values.size(); ++i) {
    double v = values[i];
    if (v != v) v = 0.0;  // NaN
    if (v > 1e9) v = 1e9;
    if (v < -1e9) v = -1e9;
    if (i != 0) out += ',';
    out += "{\"name\":\"" + escaped +
           "\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":" +
           fmt(static_cast<double>(i) * us_per_cycle) +
           ",\"args\":{\"value\":" + fmt(v) + "}}";
  }
  out += "]}";
  return out;
}

bool write_text_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(content.data(), 1, content.size(), f) ==
                  content.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace eccm0::profile
