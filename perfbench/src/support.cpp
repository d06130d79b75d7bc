#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <thread>

#include "bench.h"
#include "service/server.h"

namespace perfbench {

using eccm0::telemetry::Histogram;
using eccm0::telemetry::Json;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

unsigned nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

eccm0::armvm::Cpu::DecodeMode default_engine() {
  return eccm0::service::ServerConfig{}.engine;
}

// ---- spans ----------------------------------------------------------------

namespace {
thread_local std::uint32_t t_parent = 0;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}
}  // namespace

Tracer& tracer() {
  static Tracer t;
  return t;
}

std::uint32_t Tracer::current() { return t_parent; }

std::uint32_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++ids_;
}

void Tracer::push(Span s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

Tracer::Scope::Scope(Tracer& t, const char* name) {
  if (!t.enabled()) return;
  tracer_ = &t;
  span_.name = name;
  span_.id = t.next_id();
  span_.parent = t_parent;
  span_.thread = thread_index();
  saved_parent_ = t_parent;
  t_parent = span_.id;
  span_.start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = now_ns();
  t_parent = saved_parent_;
  tracer_->push(std::move(span_));
}

void Tracer::record(const char* name, std::uint64_t start_ns,
                    std::uint64_t end_ns, std::uint32_t parent,
                    std::uint64_t request) {
  if (!enabled()) return;
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.id = next_id();
  s.parent = parent;
  s.request = request;
  s.thread = thread_index();
  push(std::move(s));
}

bool Tracer::write_json(const std::string& path) const {
  std::vector<Span> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
  }
  std::uint64_t t0 = UINT64_MAX;
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  Json events = Json::array();
  for (const Span& s : spans) {
    Json e = Json::object();
    e.set("name", Json::str(s.name));
    e.set("ph", Json::str("X"));
    e.set("pid", Json::number(std::uint64_t{1}));
    e.set("tid", Json::number(std::uint64_t{s.thread}));
    e.set("ts", Json::number(static_cast<double>(s.start_ns - t0) / 1e3));
    e.set("dur", Json::number(static_cast<double>(s.end_ns - s.start_ns) / 1e3));
    Json args = Json::object();
    args.set("id", Json::number(std::uint64_t{s.id}));
    args.set("parent", Json::number(std::uint64_t{s.parent}));
    if (s.request != 0) args.set("request", Json::number(s.request));
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  std::ofstream out(path);
  out << doc.dump() << "\n";
  return static_cast<bool>(out);
}

// ---- statistics -------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Tail tail_of(const std::vector<double>& v) {
  Tail t;
  if (v.size() >= 20) {
    t.percentile = 100.0 * (1.0 - 10.0 / static_cast<double>(v.size()));
  }
  t.value = quantile(v, t.percentile / 100.0);
  return t;
}

namespace {
double bucket_quantile(
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& buckets,
    std::uint64_t count, std::uint64_t min, std::uint64_t max, double q) {
  if (count == 0) return 0.0;
  const double rank = q * static_cast<double>(count);
  double seen = 0.0;
  for (const auto& [floor, n] : buckets) {
    const double c = static_cast<double>(n);
    if (seen + c >= rank) {
      const double lo = static_cast<double>(floor);
      const double next = static_cast<double>(
          Histogram::bucket_floor(Histogram::index_of(floor) + 1));
      const double v = lo + (next - lo) * (rank - seen) / c;
      return std::clamp(v, static_cast<double>(min), static_cast<double>(max));
    }
    seen += c;
  }
  return static_cast<double>(max);
}
}  // namespace

double hist_quantile(const Histogram& h, double q) {
  return bucket_quantile(h.nonzero_buckets(), h.count(), h.min(), h.max(), q);
}

double hist_json_quantile(const std::vector<const Json*>& hists, double q) {
  std::map<std::uint64_t, std::uint64_t> merged;
  std::uint64_t count = 0, min = UINT64_MAX, max = 0;
  for (const Json* h : hists) {
    const Json* buckets = h != nullptr ? h->get("buckets") : nullptr;
    if (buckets == nullptr) continue;
    for (const Json& pair : buckets->items()) {
      merged[pair.items().at(0).as_u64()] += pair.items().at(1).as_u64();
    }
    count += h->get("count")->as_u64();
    min = std::min(min, h->get("min")->as_u64());
    max = std::max(max, h->get("max")->as_u64());
  }
  return bucket_quantile({merged.begin(), merged.end()}, count, min, max, q);
}

double peak_rss_mb() {
  // VmHWM is this address space's high-water mark. getrusage's ru_maxrss
  // is not used: Linux carries it across execve, so it would report the
  // launching process (e.g. the Python runner) whenever that is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

// ---- report -----------------------------------------------------------------

void Report::add(std::string name, double value, std::string unit,
                 std::uint64_t samples, std::string note) {
  metrics.push_back(
      {std::move(name), value, std::move(unit), samples, std::move(note)});
}

void Report::fail(std::uint64_t ops, const std::string& why) {
  failed += ops;
  problems.push_back(why);
}

void print_report(const Report& r) {
  std::printf("%-40s %16s  %-6s %8s  %s\n", "metric", "value", "unit",
              "samples", "note");
  for (const Metric& m : r.metrics) {
    std::printf("%-40s %16.6g  %-6s %8llu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples),
                m.note.c_str());
  }
  for (const std::string& p : r.problems) {
    std::printf("CHECK FAILED: %s\n", p.c_str());
  }
  std::printf("attempted %llu, failed %llu, correct %s\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.correct() ? "yes" : "NO");

  // Full-precision machine line: run.py turns it into the result JSON.
  std::string out = "RESULT {\"correct\": ";
  out += r.correct() ? "true" : "false";
  char buf[96];
  std::snprintf(buf, sizeof(buf), ", \"attempted\": %llu, \"failed\": %llu",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
  out += buf;
  out += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : r.metrics) {
    if (!first) out += ", ";
    first = false;
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += Json::str(m.name).dump() + ": {\"value\": " + buf +
           ", \"unit\": " + Json::str(m.unit).dump();
    std::snprintf(buf, sizeof(buf), ", \"samples\": %llu",
                  static_cast<unsigned long long>(m.samples));
    out += buf;
    out += ", \"note\": " + Json::str(m.note).dump() + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
