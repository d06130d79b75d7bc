// Telemetry layer: histogram math (bucket boundaries, exact-rank
// quantiles, merge algebra), registry snapshots, JSON round trips,
// manifest envelope, progress meter, and the thread-count invariance
// of metrics merged out of sim::BatchExecutor worker shards.
#include <cstdint>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sim/batch.h"
#include "telemetry/json.h"
#include "telemetry/manifest.h"
#include "telemetry/metrics.h"
#include "telemetry/progress.h"

namespace eccm0::telemetry {
namespace {

// ---- Histogram bucketing -----------------------------------------------

TEST(HistogramTest, SmallValuesAreExactBuckets) {
  // Below 2*kSubBuckets every value is its own bucket.
  for (std::uint64_t v = 0; v < 2 * Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::index_of(v), v);
    EXPECT_EQ(Histogram::bucket_floor(Histogram::index_of(v)), v);
  }
}

TEST(HistogramTest, BucketFloorIsSmallestValueInBucket) {
  // floor(index_of(v)) <= v, and floor maps back to its own bucket.
  for (std::uint64_t v : {64ull, 65ull, 100ull, 127ull, 128ull, 1000ull,
                          4096ull, 123456789ull, (1ull << 40) + 12345ull,
                          ~0ull}) {
    const std::size_t idx = Histogram::index_of(v);
    const std::uint64_t floor = Histogram::bucket_floor(idx);
    EXPECT_LE(floor, v);
    EXPECT_EQ(Histogram::index_of(floor), idx);
  }
}

TEST(HistogramTest, PowerOfTwoBoundaries) {
  // At every octave boundary the bucket index must step by exactly one:
  // 2^k-1 and 2^k never share a bucket, and nothing is skipped.
  for (unsigned k = 6; k < 63; ++k) {
    const std::uint64_t p = 1ull << k;
    EXPECT_EQ(Histogram::index_of(p), Histogram::index_of(p - 1) + 1)
        << "at 2^" << k;
    EXPECT_EQ(Histogram::bucket_floor(Histogram::index_of(p)), p);
  }
}

TEST(HistogramTest, RelativeErrorBounded) {
  // Bucket width / floor <= 2^-kSubBucketBits for values past the exact
  // range: the advertised 3.125% resolution.
  std::mt19937_64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = rng() >> (rng() % 40);
    if (v < 2 * Histogram::kSubBuckets) continue;
    const std::size_t idx = Histogram::index_of(v);
    const std::uint64_t lo = Histogram::bucket_floor(idx);
    const std::uint64_t hi = Histogram::bucket_floor(idx + 1);
    EXPECT_LE(static_cast<double>(hi - lo),
              static_cast<double>(lo) / Histogram::kSubBuckets * 1.0001);
  }
}

// ---- Quantiles ---------------------------------------------------------

TEST(HistogramTest, ExactQuantilesInExactRange) {
  // All values below 2*kSubBuckets: quantiles are exact order statistics
  // at rank ceil(q*n).
  Histogram h;
  for (std::uint64_t v = 1; v <= 50; ++v) h.record(v);
  EXPECT_EQ(h.count(), 50u);
  EXPECT_EQ(h.quantile(0.50), 25u);  // ceil(0.5*50) = rank 25
  EXPECT_EQ(h.quantile(0.90), 45u);
  EXPECT_EQ(h.quantile(0.99), 50u);  // ceil(49.5) = 50
  EXPECT_EQ(h.quantile(0.0), 1u);    // rank clamps to 1
  EXPECT_EQ(h.quantile(1.0), 50u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 50u);
  EXPECT_EQ(h.sum(), 50u * 51u / 2);
}

TEST(HistogramTest, QuantileClampsToRecordedRange) {
  Histogram h;
  h.record(1000);  // one sample: every quantile is that sample's bucket
  EXPECT_GE(h.quantile(0.5), h.min());
  EXPECT_LE(h.quantile(0.5), h.max());
  EXPECT_EQ(h.quantile(0.99), h.quantile(0.01));
  Histogram empty;
  EXPECT_EQ(empty.quantile(0.5), 0u);
  EXPECT_EQ(empty.min(), 0u);
  EXPECT_EQ(empty.mean(), 0.0);
}

TEST(HistogramTest, QuantileWithinRelativeErrorOfTrueRank) {
  std::mt19937_64 rng(11);
  std::vector<std::uint64_t> vals;
  Histogram h;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t v = rng() % 1000000;
    vals.push_back(v);
    h.record(v);
  }
  std::sort(vals.begin(), vals.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const std::size_t rank =
        static_cast<std::size_t>(std::ceil(q * vals.size()));
    const double truth = static_cast<double>(vals[rank - 1]);
    const double est = static_cast<double>(h.quantile(q));
    EXPECT_LE(est, truth * 1.0001);
    EXPECT_GE(est, truth * (1.0 - 1.0 / Histogram::kSubBuckets) - 1.0);
  }
}

// ---- Merge algebra -----------------------------------------------------

TEST(HistogramTest, MergeIsCommutativeAndAssociative) {
  std::mt19937_64 rng(3);
  Histogram a, b, c;
  for (int i = 0; i < 300; ++i) a.record(rng() % 100000);
  for (int i = 0; i < 200; ++i) b.record(rng() >> 30);
  for (int i = 0; i < 100; ++i) c.record(rng() % 64);

  Histogram ab = a;
  ab.merge(b);
  Histogram ba = b;
  ba.merge(a);
  EXPECT_EQ(ab, ba);

  Histogram ab_c = ab;
  ab_c.merge(c);
  Histogram bc = b;
  bc.merge(c);
  Histogram a_bc = a;
  a_bc.merge(bc);
  EXPECT_EQ(ab_c, a_bc);
}

TEST(HistogramTest, MergeEqualsSerialRecording) {
  // Shard-and-merge must equal recording the union serially, whatever
  // the split — the property BatchExecutor's per-worker shards rely on.
  std::mt19937_64 rng(5);
  std::vector<std::uint64_t> vals;
  for (int i = 0; i < 1000; ++i) vals.push_back(rng() % 500000);

  Histogram serial;
  for (std::uint64_t v : vals) serial.record(v);

  for (std::size_t parts : {2u, 3u, 7u}) {
    std::vector<Histogram> shards(parts);
    for (std::size_t i = 0; i < vals.size(); ++i) {
      shards[i % parts].record(vals[i]);
    }
    Histogram merged;
    for (const Histogram& s : shards) merged.merge(s);
    EXPECT_EQ(merged, serial) << parts << " shards";
  }

  Histogram onto_empty;
  onto_empty.merge(serial);
  EXPECT_EQ(onto_empty, serial);
}

TEST(HistogramTest, NonzeroBucketsCoverEveryCount) {
  Histogram h;
  for (std::uint64_t v : {1ull, 1ull, 70ull, 5000ull}) h.record(v);
  std::uint64_t total = 0;
  std::uint64_t prev_floor = 0;
  bool first = true;
  for (const auto& [floor, count] : h.nonzero_buckets()) {
    if (!first) EXPECT_GT(floor, prev_floor);
    prev_floor = floor;
    first = false;
    total += count;
  }
  EXPECT_EQ(total, h.count());
}

// ---- Registry ----------------------------------------------------------

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  MetricsRegistry reg;
  reg.counter("a.runs").add(3);
  reg.counter("a.runs").add(2);
  reg.gauge("depth").set(7);
  reg.record("lat", Unit::kCycles, 10);
  reg.record("lat", Unit::kCycles, 20);
  EXPECT_EQ(reg.counter_value("a.runs"), 5u);
  EXPECT_EQ(reg.gauge_value("depth"), 7u);
  EXPECT_EQ(reg.histogram_copy("lat").count(), 2u);
  EXPECT_EQ(reg.counter_value("absent"), 0u);
  EXPECT_EQ(reg.histogram_copy("absent").count(), 0u);
}

TEST(MetricsRegistryTest, SnapshotSortedAndWallExcluded) {
  MetricsRegistry reg;
  reg.counter("z.last").add(1);
  reg.counter("a.first").add(1);
  reg.record("wall", Unit::kNanos, 123);  // wall-clock: keep out
  reg.record("cyc", Unit::kCycles, 42);

  const Json snap = reg.snapshot_json();
  const Json* counters = snap.get("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->size(), 2u);
  EXPECT_EQ(counters->members()[0].first, "a.first");  // sorted, not
  EXPECT_EQ(counters->members()[1].first, "z.last");   // insertion order
  const Json* hists = snap.get("histograms");
  ASSERT_NE(hists, nullptr);
  EXPECT_EQ(hists->get("wall"), nullptr);
  ASSERT_NE(hists->get("cyc"), nullptr);
  EXPECT_EQ(hists->get("cyc")->get("unit")->as_string(), "cycles");

  // include_wall=true is the printable superset.
  const Json full = reg.snapshot_json(true);
  EXPECT_NE(full.get("histograms")->get("wall"), nullptr);
}

TEST(MetricsRegistryTest, SnapshotIsDeterministicBytes) {
  auto build = [](bool reverse) {
    MetricsRegistry reg;
    if (reverse) {
      reg.counter("b").add(2);
      reg.counter("a").add(1);
    } else {
      reg.counter("a").add(1);
      reg.counter("b").add(2);
    }
    reg.record("h", Unit::kCycles, 99);
    return reg.snapshot_json().dump();
  };
  EXPECT_EQ(build(false), build(true));
}

// ---- BatchExecutor shard merging ---------------------------------------

TEST(BatchMetricsTest, MergedMetricsInvariantToThreadCount) {
  // Same work fanned across 1, 2, and 8 workers: the deterministic
  // metric sections must be identical (wall-clock histograms are
  // recorded but excluded from snapshots by design).
  auto run = [](unsigned threads) {
    MetricsRegistry reg;
    sim::BatchExecutor pool(threads);
    pool.set_metrics(&reg);
    const std::vector<int> out = pool.map<int>(64, [](std::size_t i) {
      volatile int x = 0;
      for (std::size_t k = 0; k < 1000 * (i % 5 + 1); ++k) x += int(k);
      return int(i);
    });
    EXPECT_EQ(out.size(), 64u);
    return reg.snapshot_json().dump();
  };
  const std::string serial = run(1);
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(8), serial);
}

TEST(BatchMetricsTest, CountsTasksAndBatches) {
  MetricsRegistry reg;
  sim::BatchExecutor pool(4);
  pool.set_metrics(&reg);
  (void)pool.map<int>(10, [](std::size_t i) { return int(i); });
  (void)pool.map<int>(5, [](std::size_t i) { return int(i); });
  EXPECT_EQ(reg.counter_value("batch.batches"), 2u);
  EXPECT_EQ(reg.counter_value("batch.tasks"), 15u);
  // Wall-clock latency histograms exist (printable) but are excluded
  // from the deterministic snapshot.
  EXPECT_EQ(reg.histogram_copy("batch.run_ns").count(), 15u);
  EXPECT_EQ(reg.snapshot_json().get("histograms"), nullptr);
}

TEST(BatchMetricsTest, NullRegistryRunsBare) {
  sim::BatchExecutor pool(4);
  const std::vector<int> out =
      pool.map<int>(8, [](std::size_t i) { return int(i) * 2; });
  ASSERT_EQ(out.size(), 8u);
  EXPECT_EQ(out[7], 14);
}

// ---- Json round trip ---------------------------------------------------

TEST(JsonTest, ParseDumpRoundTripIsIdentity) {
  const std::string doc =
      R"({"a":1,"b":-2.5,"c":"x\"y","d":[1,2,{"e":null}],"f":true,)"
      R"("g":1e-06,"h":{},"i":[]})";
  EXPECT_EQ(Json::parse(doc).dump(), doc);
}

TEST(JsonTest, NumbersKeepSourceSpelling) {
  // 1e-06 vs 1e-6 vs 0.000001 are the same value but different bytes;
  // the round-trip identity is what keeps re-wrapped manifests stable.
  for (const std::string n : {"1e-06", "1E-6", "0.000001", "123",
                              "-0.25", "18446744073709551615"}) {
    EXPECT_EQ(Json::parse(n).dump(), n);
  }
}

TEST(JsonTest, RejectsMalformed) {
  for (const std::string bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2",
        "{\"a\":1,}", "nan"}) {
    EXPECT_THROW((void)Json::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(JsonTest, DeepNestingIsRejectedNotAStackOverflow) {
  // The parser recurses once per array/object level; without a cap a
  // ~100 KB frame of '[' exhausts the parsing thread's stack.
  for (const char open : {'[', '{'}) {
    EXPECT_THROW((void)Json::parse(std::string(100000, open)),
                 std::invalid_argument)
        << open;
  }
  std::string deep_arrays;
  for (std::size_t i = 0; i < 100000; ++i) deep_arrays += "[1,";
  EXPECT_THROW((void)Json::parse(deep_arrays), std::invalid_argument);
  std::string deep_objects;
  for (std::size_t i = 0; i < 100000; ++i) deep_objects += "{\"a\":";
  EXPECT_THROW((void)Json::parse(deep_objects), std::invalid_argument);

  // Exactly kMaxDepth levels still parse (and round-trip); one more throws.
  const std::string at_cap = std::string(Json::kMaxDepth, '[') +
                             std::string(Json::kMaxDepth, ']');
  EXPECT_EQ(Json::parse(at_cap).dump(), at_cap);
  const std::string over_cap = "[" + at_cap + "]";
  EXPECT_THROW((void)Json::parse(over_cap), std::invalid_argument);
  // Depth is nesting, not total container count.
  std::string wide = "[";
  for (std::size_t i = 0; i < 4 * Json::kMaxDepth; ++i) wide += "[],";
  wide += "{}]";
  EXPECT_EQ(Json::parse(wide).dump(), wide);
}

TEST(JsonTest, BuiltNumbersUseFixedFormat) {
  EXPECT_EQ(Json::number(std::uint64_t{42}).dump(), "42");
  EXPECT_EQ(Json::number(0.5).dump(), "0.5");  // "%.6g"
  EXPECT_EQ(Json::number(1e-6).dump(), "1e-06");
  Json obj = Json::object();
  obj.set("k", Json::str("v"));
  EXPECT_EQ(obj.dump(), "{\"k\":\"v\"}");
}

// ---- Manifest ----------------------------------------------------------

TEST(ManifestTest, EnvelopeShapeAndPredicate) {
  RunManifest man("unit-test");
  man.run().set("seed", Json::number(std::uint64_t{7}));
  Json payload = Json::object();
  payload.set("answer", Json::number(std::uint64_t{42}));
  man.set_payload(std::move(payload));
  MetricsRegistry reg;
  reg.counter("n").add(1);
  man.set_metrics(reg);

  const std::string text = man.dump();
  const Json doc = Json::parse(text);
  EXPECT_TRUE(is_manifest(doc));
  EXPECT_EQ(doc.get("schema")->as_string(), kManifestSchema);
  EXPECT_EQ(doc.get("tool")->as_string(), "unit-test");
  // Fixed section order, whatever order the sections were set in.
  ASSERT_EQ(doc.members().size(), 6u);
  EXPECT_EQ(doc.members()[0].first, "schema");
  EXPECT_EQ(doc.members()[1].first, "tool");
  EXPECT_EQ(doc.members()[2].first, "build");
  EXPECT_EQ(doc.members()[3].first, "run");
  EXPECT_EQ(doc.members()[4].first, "payload");
  EXPECT_EQ(doc.members()[5].first, "metrics");
  EXPECT_EQ(doc.get("payload")->get("answer")->as_u64(), 42u);
  EXPECT_EQ(doc.get("metrics")->get("counters")->get("n")->as_u64(), 1u);

  EXPECT_FALSE(is_manifest(Json::parse("{\"schema\":\"other\"}")));
  EXPECT_FALSE(is_manifest(Json::parse("[]")));
}

// ---- Progress ----------------------------------------------------------

TEST(ProgressTest, ModeParsingAndCounting) {
  EXPECT_EQ(progress_mode_from_name("off"), ProgressMode::kOff);
  EXPECT_EQ(progress_mode_from_name("plain"), ProgressMode::kPlain);
  EXPECT_THROW((void)progress_mode_from_name("fancy"),
               std::invalid_argument);

  ProgressMeter off(ProgressMode::kOff, "t", 10);
  for (int i = 0; i < 10; ++i) off.tick();
  EXPECT_EQ(off.done(), 10u);

  ProgressMeter plain(ProgressMode::kPlain, "t", 4);  // stderr chatter ok
  plain.tick(4);
  EXPECT_EQ(plain.done(), 4u);
}

}  // namespace
}  // namespace eccm0::telemetry
