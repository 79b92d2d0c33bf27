/// \file bench_micro.cpp
/// Google-benchmark microbenchmarks for the building blocks whose costs
/// the analytic simulator parameterizes: top-k selection, payload
/// (de)serialization, CRC framing, Adam steps, sparse merging, and the
/// zero-copy reusing queue.  These measure this machine's actual rates —
/// useful when recalibrating ClusterSpec throughputs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "common/buffer_pool.h"
#include "common/crc32.h"
#include "obs/datapath.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "compress/error_feedback.h"
#include "core/checkpoint_store.h"
#include "model/dataset.h"
#include "model/mlp.h"
#include "storage/async_writer.h"
#include "storage/atomic_commit.h"
#include "storage/bandwidth.h"
#include "storage/mem_storage.h"
#include "storage/throttled.h"
#include "common/rng.h"
#include "compress/merge.h"
#include "compress/topk.h"
#include "model/model_state.h"
#include "optim/adam.h"
#include "queue/reusing_queue.h"
#include "storage/serializer.h"
#include "support/merge_pairwise.h"
#include "support/topk_reference.h"
#include "tensor/ops.h"

namespace {

using namespace lowdiff;

Tensor random_tensor(std::size_t n, std::uint64_t seed) {
  Tensor t(n);
  Xoshiro256 rng(seed);
  ops::fill_normal(t.span(), rng, 1.0f);
  return t;
}

void BM_TopKCompress(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto grad = random_tensor(n, 1);
  TopKCompressor comp(0.01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(comp.compress(grad.cspan(), 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
// A small gradient, the livebench MLP's 100,752 parameters, and 2^20.
BENCHMARK(BM_TopKCompress)->Arg(4096)->Arg(100752)->Arg(1 << 20);

void BM_TopKDecompress(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto grad = random_tensor(n, 2);
  TopKCompressor comp(0.01);
  const auto payload = comp.compress(grad.cspan(), 0);
  Tensor out(n);
  for (auto _ : state) {
    comp.decompress(payload, out.span());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TopKDecompress)->Arg(1 << 20);

void BM_AdamStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ModelSpec spec{"bench", {{"w", {n}}}};
  ModelState model(spec);
  model.init_random(1);
  const auto grad = random_tensor(n, 3);
  Adam adam;
  for (auto _ : state) {
    adam.step(model, grad.cspan());
    benchmark::DoNotOptimize(model.params().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AdamStep)->Arg(1 << 16)->Arg(1 << 20)->Arg(1 << 22);

void BM_Crc32(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<unsigned char> data(n, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Crc32)->Arg(1 << 20)->Arg(1 << 24);

void BM_SerializeModelState(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ModelSpec spec{"bench", {{"w", {n}}}};
  ModelState model(spec);
  model.init_random(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(serialize_model_state(model));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(model.byte_size()));
}
BENCHMARK(BM_SerializeModelState)->Arg(1 << 20);

void BM_MergeSparseSum(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  TopKCompressor comp(0.01);
  std::vector<CompressedGrad> payloads;
  for (int i = 0; i < 8; ++i) {
    payloads.push_back(comp.compress(random_tensor(n, 10 + i).cspan(), i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(merge_sparse_sum(payloads));
  }
}
BENCHMARK(BM_MergeSparseSum)->Arg(1 << 20);

// --- Datapath (k-way merge, pooled I/O) ------------------------------------

std::vector<CompressedGrad> make_batch(std::size_t n, std::size_t count) {
  TopKCompressor comp(0.01);
  std::vector<CompressedGrad> payloads;
  payloads.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    payloads.push_back(
        comp.compress(random_tensor(n, 100 + i).cspan(), i));
  }
  return payloads;
}

void BM_MergeSparseSumKWay(benchmark::State& state) {
  const auto payloads =
      make_batch(static_cast<std::size_t>(state.range(0)),
                 static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(merge_sparse_sum(payloads));
  }
}
BENCHMARK(BM_MergeSparseSumKWay)->Args({1 << 20, 32});

void BM_MergeSparseSumPairwise(benchmark::State& state) {
  const auto payloads =
      make_batch(static_cast<std::size_t>(state.range(0)),
                 static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(merge_sparse_sum_pairwise(payloads));
  }
}
BENCHMARK(BM_MergeSparseSumPairwise)->Args({1 << 20, 32});

void BM_Crc32Sw(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<unsigned char> data(n, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c_sw(0, data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Crc32Sw)->Arg(1 << 24);

void BM_SerializeBatchPooled(benchmark::State& state) {
  BatchedGrad batch;
  batch.members = make_batch(1 << 20, 8);
  batch.first_iteration = 0;
  batch.last_iteration = 7;
  BufferPool pool;
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto buf = serialize_batch(batch, pool);
    bytes = buf.size();
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SerializeBatchPooled);

void BM_ReusingQueueHandoff(benchmark::State& state) {
  ReusingQueue<CompressedGrad> queue(64);
  auto payload = std::make_shared<const CompressedGrad>();
  for (auto _ : state) {
    queue.put(payload);
    benchmark::DoNotOptimize(queue.get());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReusingQueueHandoff);

// --- Observability overhead (the "<1% when disabled" acceptance bar) ------

void BM_ReusingQueueHandoffInstrumented(benchmark::State& state) {
  // Same handoff as above, with the occupancy gauge and blocked-time
  // counter attached — the delta between the two is the metrics cost.
  ReusingQueue<CompressedGrad> queue(64);
  auto& reg = obs::Registry::global();
  queue.set_obs({&reg.gauge("bench.queue.occupancy"),
                 &reg.counter("bench.queue.blocked_us_total")});
  auto payload = std::make_shared<const CompressedGrad>();
  for (auto _ : state) {
    queue.put(payload);
    benchmark::DoNotOptimize(queue.get());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReusingQueueHandoffInstrumented);

void BM_CounterAdd(benchmark::State& state) {
  auto& counter = obs::Registry::global().counter("bench.counter");
  for (auto _ : state) counter.add(1);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramObserve(benchmark::State& state) {
  auto& hist = obs::Registry::global().histogram("bench.histogram");
  double v = 0.5;
  for (auto _ : state) {
    hist.observe(v);
    v += 1.375;
    if (v > 2e7) v = 0.5;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramObserve);

void BM_TraceSpanDisabled(benchmark::State& state) {
  // A span against a disabled tracer must cost ~one relaxed load; this is
  // what every hot path pays with tracing off.
  obs::Tracer tracer;
  for (auto _ : state) {
    obs::TraceSpan span(tracer, "bench.span", "bench");
    benchmark::DoNotOptimize(&span);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_TraceSpanEnabled(benchmark::State& state) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  std::uint64_t recorded = 0;
  for (auto _ : state) {
    obs::TraceSpan span(tracer, "bench.span", "bench");
    benchmark::DoNotOptimize(&span);
    if (++recorded % 100000 == 0) {
      state.PauseTiming();
      tracer.clear();  // bound the event buffers
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceSpanEnabled);

void BM_MlpLossAndGradient(benchmark::State& state) {
  MlpConfig cfg;
  cfg.input_dim = 32;
  cfg.hidden = {64, 64};
  cfg.num_classes = 10;
  MlpNet net(cfg);
  ModelState model(net.spec());
  model.init_random(1);
  SyntheticDataset ds(32, 10, 5);
  std::vector<float> x;
  std::vector<std::uint32_t> y;
  ds.batch(0, 32, x, y);
  Tensor grad(net.spec().param_count());
  for (auto _ : state) {
    grad.zero();
    benchmark::DoNotOptimize(net.loss_and_gradient(model, x, y, grad));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_MlpLossAndGradient);

void BM_ErrorFeedbackCompress(benchmark::State& state) {
  const std::size_t n = 1 << 20;
  const auto grad = random_tensor(n, 21);
  ErrorFeedback ef(std::make_unique<TopKCompressor>(0.01), n);
  std::uint64_t iter = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ef.compress(grad.cspan(), iter++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ErrorFeedbackCompress);

void BM_ShardedFullCheckpoint(benchmark::State& state) {
  ModelSpec spec{"bench", {{"w", {1 << 20}}}};
  ModelState model(spec);
  model.init_random(3);
  auto mem = std::make_shared<MemStorage>();
  CheckpointStore store(mem);
  std::uint64_t iter = 0;
  for (auto _ : state) {
    for (std::uint32_t r = 0; r < 4; ++r) {
      store.put_full_shard(iter, r, 4, model);
    }
    ++iter;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(model.byte_size()));
}
BENCHMARK(BM_ShardedFullCheckpoint);

// --- Datapath verification gate -------------------------------------------
//
// Before the benchmark suite runs, prove on THIS machine that TopK and the
// k-way merge are bit-identical to their references in tests/support, and
// measure each reference's time against the program's in the same process.
// CI runs `bench_micro --smoke --json`; any mismatch exits nonzero and
// fails the build.  The speedups land in the registry (datapath.verify.*)
// and therefore in BENCH_micro.json.

template <typename F>
double best_seconds(F&& f, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

bool run_datapath_verification() {
  const bool smoke = lowdiff::bench::options().smoke;
  // Acceptance sizes: n >= 2^22, batches of B >= 16.  Smoke mode shrinks
  // the arrays (CI checks bit-exactness, not rates).
  const std::size_t n = smoke ? (std::size_t{1} << 18) : (std::size_t{1} << 22);
  const std::size_t batch_size = smoke ? 16 : 32;
  const int reps = smoke ? 1 : 3;

  bool ok = true;
  auto check = [&ok](bool cond, const std::string& what) {
    if (!cond) {
      std::fprintf(stderr, "[datapath] MISMATCH: %s\n", what.c_str());
      ok = false;
    }
  };

  // 1. TopK == the reference selection, three seeds: byte-identical
  //    serialized payloads.
  TopKCompressor topk(0.01);
  const std::size_t k = topk.k_for(n);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto grad = random_tensor(n, seed);
    check(topk.compress(grad.cspan(), seed).serialize() ==
              reference_topk(grad.cspan(), k, seed).serialize(),
          "topk != reference selection, seed " + std::to_string(seed));
  }

  // 2. K-way merge == pairwise reference, byte for byte.
  const auto payloads = make_batch(n, batch_size);
  check(merge_sparse_sum(payloads).serialize() ==
            merge_sparse_sum_pairwise(payloads).serialize(),
        "k-way merge != pairwise merge");

  // 3. CRC kernels agree: hardware (when present) == software.
  {
    const auto bytes = random_tensor(n / 4, 99);
    const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
    const std::size_t len = n;  // n/4 floats = n bytes
    check(crc32c_sw(0, p, len) == crc32c(p, len),
          "crc32c software kernel != dispatch");
  }

  // 4. Speedups, measured in the same run that proved bit-exactness.
  const auto grad = random_tensor(n, 1);
  const double topk_reference = best_seconds(
      [&] { benchmark::DoNotOptimize(reference_topk(grad.cspan(), k, 0)); }, reps);
  const double topk_program =
      best_seconds([&] { benchmark::DoNotOptimize(topk.compress(grad.cspan(), 0)); },
                   reps);
  const double merge_pairwise = best_seconds(
      [&] { benchmark::DoNotOptimize(merge_sparse_sum_pairwise(payloads)); },
      reps);
  const double merge_kway = best_seconds(
      [&] { benchmark::DoNotOptimize(merge_sparse_sum(payloads)); }, reps);

  const double topk_speedup = topk_reference / topk_program;
  const double merge_speedup = merge_pairwise / merge_kway;

  auto& reg = obs::Registry::global();
  reg.gauge("datapath.verify.ok").set(ok ? 1.0 : 0.0);
  reg.gauge("datapath.verify.n").set(static_cast<double>(n));
  reg.gauge("datapath.verify.batch_size").set(static_cast<double>(batch_size));
  reg.gauge("datapath.verify.topk_speedup_x").set(topk_speedup);
  reg.gauge("datapath.verify.merge_speedup_x").set(merge_speedup);
  obs::publish_datapath_metrics();

  std::printf(
      "[datapath] verify %s  (n=%zu, B=%zu)\n"
      "[datapath] topk  reference %.3f ms  program %.3f ms  speedup %.2fx\n"
      "[datapath] merge pairwise %.3f ms  k-way %.3f ms  speedup %.2fx\n",
      ok ? "OK" : "FAILED", n, batch_size, topk_reference * 1e3,
      topk_program * 1e3, topk_speedup, merge_pairwise * 1e3,
      merge_kway * 1e3, merge_speedup);
  return ok;
}

// --- Persist verification gate ---------------------------------------------
//
// Same contract as the datapath gate: before any rates are reported, prove
// on THIS machine that the group-committing AsyncWriter (committed, queue
// depth 8) (a) writes bit-identical artifacts to per-record
// committed_write — markers included — and (b) clears >= 2x bytes/sec
// over it on a modeled SSD link whose per-sync flush cost is exactly what
// a commit group's shared sync amortizes.  A mismatch or a lost speedup
// exits nonzero; persist.verify.* gauges land in BENCH_micro.json.

std::vector<std::pair<std::string, ByteBuffer>> make_persist_records(
    std::size_t count, std::size_t bytes_each) {
  std::vector<std::pair<std::string, ByteBuffer>> records;
  records.reserve(count);
  Xoshiro256 rng(4242);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::byte> bytes(bytes_each);
    for (auto& b : bytes) b = std::byte(rng() & 0xFF);
    records.emplace_back("ckpt/rec/" + std::to_string(i), std::move(bytes));
  }
  return records;
}

/// Submits every record to a committed writer of queue depth `depth` over
/// `backend` and waits until all are committed.
void group_commit(std::shared_ptr<StorageBackend> backend,
                  const std::vector<std::pair<std::string, ByteBuffer>>& records,
                  std::size_t depth) {
  AsyncWriter::Options opt;
  opt.max_pending = depth;
  opt.committed = true;
  AsyncWriter writer(std::move(backend), opt);
  for (const auto& [key, bytes] : records) writer.submit(key, bytes);
  writer.flush();
}

bool run_persist_verification() {
  const bool smoke = lowdiff::bench::options().smoke;
  const std::size_t count = smoke ? 16 : 48;
  const std::size_t bytes_each =
      smoke ? (std::size_t{128} << 10) : (std::size_t{1} << 20);
  constexpr std::size_t kDepth = 8;
  const auto records = make_persist_records(count, bytes_each);
  const auto total_bytes = static_cast<double>(count * bytes_each);

  // 1. Bit-exactness on bare memory: every byte the writer leaves behind
  //    must equal per-record committed_write's, key for key.
  bool ok = true;
  {
    auto serial_mem = std::make_shared<MemStorage>();
    RetryPolicy policy;
    Xoshiro256 rng = policy.make_rng(1);
    for (const auto& [key, bytes] : records) {
      ok &= committed_write(*serial_mem, key, bytes.cspan(), policy, rng).ok();
    }
    auto group_mem = std::make_shared<MemStorage>();
    group_commit(group_mem, records, kDepth);
    if (group_mem->list() != serial_mem->list()) {
      std::fprintf(stderr, "[persist] MISMATCH: key sets differ\n");
      ok = false;
    } else {
      for (const auto& key : serial_mem->list()) {
        if (*group_mem->read(key) != *serial_mem->read(key)) {
          std::fprintf(stderr, "[persist] MISMATCH: bytes differ at '%s'\n",
                       key.c_str());
          ok = false;
        }
      }
    }
  }

  // 2. Throughput on a modeled SSD: generous bandwidth, a real per-sync
  //    flush cost.  Per-record commits pay one flush per record; the
  //    writer pays one per group of whatever queued behind the record it
  //    is committing.
  // Flush cost is kept well above this host's sleep granularity (~0.3 ms
  // per throttled op) so the measured ratio reflects the modeled link, not
  // scheduler noise.
  LinkSpec link;
  link.bytes_per_sec = 2e9;
  link.latency_sec = 20e-6;
  link.sync_latency_sec = 5e-3;
  const auto timed = [&](auto&& body) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    return dt.count();
  };
  const double serial_sec = timed([&] {
    auto ssd = std::make_shared<ThrottledStorage>(
        std::make_shared<MemStorage>(), link, 1.0, "ssd");
    RetryPolicy policy;
    Xoshiro256 rng = policy.make_rng(2);
    for (const auto& [key, bytes] : records) {
      (void)committed_write(*ssd, key, bytes.cspan(), policy, rng);
    }
  });
  auto& syncs_total = obs::Registry::global().counter("writer.syncs_total");
  const std::uint64_t syncs_before = syncs_total.value();
  const double group_sec = timed([&] {
    group_commit(std::make_shared<ThrottledStorage>(
                     std::make_shared<MemStorage>(), link, 1.0, "ssd"),
                 records, kDepth);
  });
  const std::uint64_t syncs = syncs_total.value() - syncs_before;

  const double serial_bps = total_bytes / serial_sec;
  const double group_bps = total_bytes / group_sec;
  const double speedup = group_bps / serial_bps;
  const bool fast_enough = speedup >= 2.0;

  auto& reg = obs::Registry::global();
  reg.gauge("persist.verify.ok").set(ok && fast_enough ? 1.0 : 0.0);
  reg.gauge("persist.verify.records").set(static_cast<double>(count));
  reg.gauge("persist.verify.record_bytes").set(static_cast<double>(bytes_each));
  reg.gauge("persist.verify.serial_bytes_per_sec").set(serial_bps);
  reg.gauge("persist.verify.group_commit_bytes_per_sec").set(group_bps);
  reg.gauge("persist.verify.group_commit_syncs").set(static_cast<double>(syncs));
  reg.gauge("persist.verify.speedup_x").set(speedup);

  std::printf(
      "[persist] verify %s  (%zu records x %zu KiB, queue depth %zu)\n"
      "[persist] per-record %.1f MB/s  group commit %.1f MB/s  speedup %.2fx "
      "(gate >= 2.0x), %llu syncs for %zu records\n",
      ok && fast_enough ? "OK" : "FAILED", count, bytes_each >> 10, kDepth,
      serial_bps / 1e6, group_bps / 1e6, speedup,
      static_cast<unsigned long long>(syncs), count);
  if (!fast_enough) {
    std::fprintf(stderr,
                 "[persist] speedup gate missed: %.2fx < 2.0x on the modeled "
                 "SSD link\n",
                 speedup);
  }
  return ok && fast_enough;
}

}  // namespace

int main(int argc, char** argv) {
  argc = lowdiff::bench::parse_args(argc, argv);
  // Smoke mode: one brief repetition per benchmark — CI exercises the
  // code paths and the --json plumbing, not this machine's rates.
  std::vector<char*> args(argv, argv + argc);
  std::string min_time = "--benchmark_min_time=0.01";
  if (lowdiff::bench::options().smoke) args.insert(args.begin() + 1, min_time.data());
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  argc = bench_argc;
  argv = args.data();
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Bit-exactness gate first: a parallel/serial mismatch fails the run
  // before any rates are reported.
  if (!run_datapath_verification()) {
    benchmark::Shutdown();
    return 1;
  }
  if (!run_persist_verification()) {
    benchmark::Shutdown();
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  lowdiff::bench::dump_registry_json();
  return 0;
}
