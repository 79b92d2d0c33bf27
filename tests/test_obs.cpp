// Tests for the observability layer: metrics registry (property/stress
// style) and timeline tracer, plus the end-to-end acceptance check that a
// traced Trainer run reconstructs its reported checkpoint stall from spans.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/checkpoint_store.h"
#include "core/strategies.h"
#include "core/trainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/mem_storage.h"
#include "storage/throttled.h"

namespace lowdiff {
namespace {

// --- Metrics ---------------------------------------------------------------

TEST(ObsMetrics, CounterSumsConcurrentAddsExactly) {
  obs::Registry reg;
  auto& counter = reg.counter("hits");
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kAdds = 50000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kAdds; ++i) counter.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kAdds);
}

TEST(ObsMetrics, GaugeMixesSetAndConcurrentDeltas) {
  obs::Gauge gauge;
  gauge.set(100.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < 1000; ++i) gauge.add(1.0);
      for (int i = 0; i < 1000; ++i) gauge.add(-1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(gauge.value(), 100.0);
  gauge.set(-3.5);  // set() clears accumulated deltas
  EXPECT_DOUBLE_EQ(gauge.value(), -3.5);
}

TEST(ObsMetrics, HistogramBucketsCountAndQuantiles) {
  obs::Histogram hist({1.0, 10.0, 100.0});
  for (const double v : {0.5, 0.7, 5.0, 5.0, 50.0, 500.0}) hist.observe(v);
  EXPECT_EQ(hist.count(), 6u);
  EXPECT_DOUBLE_EQ(hist.sum(), 561.2);
  const auto counts = hist.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);

  obs::HistogramSnapshot snap{hist.bounds(), counts, hist.count(), hist.sum()};
  EXPECT_NEAR(snap.mean(), 561.2 / 6.0, 1e-9);
  // Quantiles are bucket-interpolated: monotone and within bucket ranges.
  const double p25 = snap.quantile(0.25);
  const double p50 = snap.quantile(0.50);
  const double p95 = snap.quantile(0.95);
  EXPECT_LE(p25, p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p25, 1.0);
  EXPECT_GT(p95, 10.0);
}

TEST(ObsMetrics, HistogramConcurrentObserveLosesNothing) {
  obs::Histogram hist(obs::latency_buckets_us());
  constexpr std::size_t kThreads = 6;
  constexpr std::uint64_t kObs = 20000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (std::uint64_t i = 0; i < kObs; ++i) {
        hist.observe(static_cast<double>((t * kObs + i) % 1000));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist.count(), kThreads * kObs);
  std::uint64_t bucket_total = 0;
  for (const auto c : hist.bucket_counts()) bucket_total += c;
  EXPECT_EQ(bucket_total, kThreads * kObs);
}

TEST(ObsMetrics, RegistryHandlesAreStableAndResettable) {
  obs::Registry reg;
  auto& c1 = reg.counter("a.total");
  auto& c2 = reg.counter("a.total");
  EXPECT_EQ(&c1, &c2);  // find-or-create returns the same object
  c1.add(7);
  reg.gauge("g").set(2.0);
  reg.histogram("h").observe(42.0);

  auto snap = reg.scrape();
  EXPECT_EQ(snap.counters.at("a.total"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 2.0);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);

  reg.reset_values();
  snap = reg.scrape();
  EXPECT_EQ(snap.counters.at("a.total"), 0u);
  EXPECT_EQ(snap.histograms.at("h").count, 0u);
  EXPECT_EQ(c1.value(), 0u);  // handle survives the reset
}

TEST(ObsMetrics, SnapshotJsonCarriesSchemaAndMetrics) {
  obs::Registry reg;
  reg.counter("writes_total").add(3);
  reg.gauge("depth").set(1.5);
  reg.histogram("lat_us").observe(12.0);
  const auto json = reg.scrape().to_json("unit_test");
  EXPECT_NE(json.find("\"schema\": \"lowdiff-metrics/1\""), std::string::npos);
  EXPECT_NE(json.find("\"bench\": \"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"writes_total\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"depth\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"lat_us\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

TEST(ObsMetrics, ScopedTimerObservesElapsedMicroseconds) {
  obs::Histogram hist(obs::latency_buckets_us());
  {
    obs::ScopedTimerUs timer(hist);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_GE(hist.sum(), 4000.0);  // at least ~4ms recorded
}

// --- Tracer ----------------------------------------------------------------

TEST(ObsTrace, DisabledTracerRecordsNothing) {
  obs::Tracer tracer;
  {
    obs::TraceSpan span(tracer, "work", "cat");
    tracer.instant("ping");
  }
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_EQ(tracer.span_total_us("work"), 0.0);
}

TEST(ObsTrace, SpansRecordDurationsAndOrdering) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_thread_name("main-test");
  {
    obs::TraceSpan outer(tracer, "outer", "cat");
    std::this_thread::sleep_for(std::chrono::milliseconds(8));
    tracer.instant("midpoint", "cat");
  }
  {
    obs::TraceSpan second(tracer, "outer", "cat");
    std::this_thread::sleep_for(std::chrono::milliseconds(4));
  }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us) << "not time-ordered";
  }
  // Both spans accumulate under one name; durations reflect the sleeps.
  EXPECT_GE(tracer.span_total_us("outer"), 10000.0);
  EXPECT_EQ(tracer.span_total_us("nonexistent"), 0.0);

  tracer.clear();
  EXPECT_TRUE(tracer.events().empty());
}

TEST(ObsTrace, ThreadsGetSeparateTimelineRows) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  std::thread a([&tracer] {
    tracer.set_thread_name("worker-a");
    obs::TraceSpan span(tracer, "job", "cat");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  std::thread b([&tracer] {
    tracer.set_thread_name("worker-b");
    obs::TraceSpan span(tracer, "job", "cat");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  a.join();
  b.join();
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
  EXPECT_GE(tracer.span_total_us("job"), 8000.0);

  const auto json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("worker-a"), std::string::npos);
  EXPECT_NE(json.find("worker-b"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

TEST(ObsTrace, WriteChromeJsonProducesLoadableFile) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  { obs::TraceSpan span(tracer, "persist", "writer"); }
  const auto path =
      (std::filesystem::temp_directory_path() / "lowdiff_trace_test.json")
          .string();
  ASSERT_TRUE(tracer.write_chrome_json(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const auto content = buf.str();
  EXPECT_EQ(content.front(), '{');
  EXPECT_NE(content.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(content.find("\"persist\""), std::string::npos);
  std::remove(path.c_str());
}

// --- End-to-end: trace reconstructs the Trainer's reported stall -----------

MlpConfig tiny_mlp() {
  MlpConfig cfg;
  cfg.input_dim = 8;
  cfg.hidden = {24};
  cfg.num_classes = 4;
  return cfg;
}

TEST(ObsEndToEnd, TraceSpansReconstructTrainerStallWithinFivePercent) {
  auto& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);

  TrainerConfig cfg;
  cfg.world = 1;
  cfg.batch_size = 16;
  cfg.rho = 0.0;  // dense regime; the strategy serializes full state
  cfg.seed = 21;
  Trainer trainer(tiny_mlp(), cfg);

  // Slow storage makes each synchronous save a multi-millisecond stall, so
  // timing noise is far below the 5%% acceptance bar.
  auto mem = std::make_shared<MemStorage>();
  auto throttled = std::make_shared<ThrottledStorage>(
      mem, LinkSpec{2.0e6, 0.0}, /*time_scale=*/1.0, "obs_test");
  auto store = std::make_shared<CheckpointStore>(throttled);
  TorchSaveStrategy strategy(store, /*interval=*/2);

  const auto result = trainer.run(0, 30, &strategy);
  tracer.set_enabled(false);

  ASSERT_GT(result.stall_seconds, 0.01) << "stall too small to compare";
  const double traced_stall_sec = tracer.span_total_us("ckpt.stall") / 1e6;
  const double rel_err =
      std::fabs(traced_stall_sec - result.stall_seconds) / result.stall_seconds;
  EXPECT_LT(rel_err, 0.05) << "traced=" << traced_stall_sec
                           << "s reported=" << result.stall_seconds << "s";

  // The trace is a loadable Chrome timeline of the run.
  const auto json = tracer.to_chrome_json();
  EXPECT_NE(json.find("ckpt.stall"), std::string::npos);
  EXPECT_NE(json.find("ckpt.full"), std::string::npos);
  EXPECT_NE(json.find("train.compute"), std::string::npos);
  EXPECT_NE(json.find("rank0"), std::string::npos);
  tracer.clear();
}

TEST(ObsEndToEnd, TrainSyncSplitsIntoStageSpans) {
  auto& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);

  TrainerConfig cfg;
  cfg.world = 2;
  cfg.batch_size = 16;
  cfg.rho = 0.05;
  cfg.compression = GradCompression::kTopK;
  cfg.seed = 22;
  Trainer trainer(tiny_mlp(), cfg);
  trainer.run(0, 10, nullptr);
  tracer.set_enabled(false);

  // The stages nest inside train.sync and never overlap each other.
  double stages_us = 0.0;
  for (const char* name :
       {"train.compress", "train.allreduce", "train.decompress", "train.optim"}) {
    const double total_us = tracer.span_total_us(name);
    EXPECT_GT(total_us, 0.0) << name;
    stages_us += total_us;
  }
  EXPECT_LE(stages_us, tracer.span_total_us("train.sync"));
  tracer.clear();
}

}  // namespace
}  // namespace lowdiff
