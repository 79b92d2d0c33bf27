/// \file bench_recovery.cpp
/// Reproduces Experiment 5 (Fig. 12): recovery time of GPT2-S under
/// different full-checkpoint intervals for (a) the torch.save baseline,
/// (b) NaiveDC's serial differential merge, (c) LowDiff with the parallel
/// recovery module (Fig. 7), and (d) LowDiff+ after a software failure.
///
/// Two sections: the cluster-scale analytic model, and a live measurement
/// of serial vs parallel recovery on a 1/64-scale GPT2-S with real
/// checkpoint bytes.
///
/// Shape targets (paper): LowDiff(parallel) < NaiveDC(serial) < Baseline
/// (−83.2 % / −55.8 % at FCF=10); LowDiff+(S) 9.4–57× faster than the
/// baseline across FCF 5→50.

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "compress/topk.h"
#include "core/recovery.h"
#include "model/grad_gen.h"
#include "model/zoo.h"
#include "optim/adam.h"
#include "optim/sgd.h"
#include "sim/strategy_model.h"
#include "storage/mem_storage.h"
#include "storage/throttled.h"
#include "tensor/ops.h"

namespace {

using namespace lowdiff;
using namespace lowdiff::sim;

}  // namespace

int main(int argc, char** argv) {
  lowdiff::bench::parse_args(argc, argv);
  bench::header("bench_recovery", "Fig. 12 (Exp. 5) — recovery time vs FCF");

  const ClusterSpec cluster;
  const auto w = Workload::for_model("GPT2-S", cluster.gpu, 0.01);

  {
    bench::Table table("Modeled recovery time, GPT2-S (seconds)",
                       {"FCF", "Baseline", "NaiveDC", "LowDiff(parallel)",
                        "LowDiff+(S)", "Base/LowDiff+", "vs_Baseline", "vs_NaiveDC"},
                       "exp5_recovery_model.csv");
    for (std::uint64_t fcf : {5, 10, 20, 50}) {
      StrategyTimeline baseline(cluster, w,
                                {StrategyKind::kTorchSave, fcf, fcf});
      StrategyTimeline naive(cluster, w, {StrategyKind::kNaiveDC, 1, fcf});
      StrategyTimeline lowdiff(cluster, w, {StrategyKind::kLowDiff, 1, fcf, 2});
      StrategyTimeline plus(cluster, w, {StrategyKind::kLowDiffPlus, 1});

      const double rb = baseline.recovery_time();
      const double rn = naive.recovery_time();
      const double rl = lowdiff.recovery_time();
      const double rp = plus.recovery_time();
      table.row(std::to_string(fcf), bench::Table::fmt(rb),
                bench::Table::fmt(rn), bench::Table::fmt(rl),
                bench::Table::fmt(rp),
                bench::Table::fmt(rb / rp, 1) + "x",
                "-" + bench::Table::pct(1.0 - rl / rb),
                "-" + bench::Table::pct(1.0 - rl / rn));
    }
    table.emit();
  }

  // --- live serial vs parallel recovery on real bytes -------------------------
  {
    const auto spec = zoo::gpt2_small().scaled(1.0 / 64.0);
    const std::size_t n = spec.param_count();
    TopKCompressor comp(0.01);
    SyntheticGradientGenerator gen(spec, 7);
    // Smoke mode keeps the 20 ms-latency read path but shortens the chain.
    const std::uint64_t diffs = bench::options().smoke ? 8 : 48;

    // Storage with SSD-like per-object latency and bandwidth: the parallel
    // recovery's win comes from overlapping reads with the replay, which a
    // zero-latency in-memory store would hide, and from splitting each Adam
    // step by coordinate across the pool.
    auto make_store = [] {
      auto mem = std::make_shared<MemStorage>();
      // 20 ms per-object latency: an NFS/remote-volume-like read path.
      // The parallel engine overlaps these I/O waits with decompression,
      // which holds even on a single-core host (sleeps release the CPU).
      return std::make_shared<ThrottledStorage>(mem, LinkSpec{1.0e9, 20e-3},
                                                /*time_scale=*/1.0);
    };

    auto populate = [&](CheckpointStore& store, const Optimizer& opt) {
      ModelState state(spec);
      state.init_random(1);
      Tensor grad(n), dense(n);
      for (std::uint64_t t = 0; t < diffs + 1; ++t) {
        gen.generate(t, 0, grad);
        const auto payload = comp.compress(grad.cspan(), t);
        comp.decompress(payload, dense.span());
        opt.step(state, dense.cspan());
        if (t == 0) {
          store.put_full(t, state);
        } else {
          store.put_diff(payload);
        }
      }
    };

    bench::Table table(
        "Live recovery, GPT2-S @ 1/64 scale, " + std::to_string(diffs) +
            " differentials (ms)",
        {"optimizer", "mode", "time_ms", "speedup", "exact_vs_serial"},
        "exp5_recovery_live.csv");
    ThreadPool pool(8);

    {
      Adam adam;
      auto backend = make_store();
      CheckpointStore store(backend);
      populate(store, adam);
      RecoveryEngine engine(spec, adam.clone(), comp.clone());

      Stopwatch sw;
      const auto serial = engine.recover_serial(store);
      const double t_serial = sw.elapsed_ms();
      sw.reset();
      const auto parallel = engine.recover_parallel(store, pool);
      const double t_parallel = sw.elapsed_ms();
      table.row("Adam", "serial replay", bench::Table::fmt(t_serial, 1), "1.0x",
                "yes");
      table.row("Adam", "parallel (I/O overlap + sliced replay)",
                bench::Table::fmt(t_parallel, 1),
                bench::Table::fmt(t_serial / t_parallel, 2) + "x",
                serial.bit_equal(parallel) ? "yes" : "NO (BUG)");
    }
    {
      // State-free SGD admits the full Fig. 7 scheme: pairwise log-n merges
      // before a single apply.
      Sgd sgd(SgdConfig{.lr = 0.01f, .momentum = 0.0f});
      auto backend = make_store();
      CheckpointStore store(backend);
      populate(store, sgd);
      RecoveryEngine engine(spec, sgd.clone(), comp.clone());

      Stopwatch sw;
      const auto serial = engine.recover_serial(store);
      const double t_serial = sw.elapsed_ms();
      sw.reset();
      RecoveryReport report;
      const auto merged =
          engine.recover_parallel_additive(store, pool, 0.01f, &report);
      const double t_merged = sw.elapsed_ms();
      const float drift = ops::max_abs_diff(serial.params().cspan(),
                                            merged.params().cspan());
      table.row("SGD", "serial replay", bench::Table::fmt(t_serial, 1), "1.0x",
                "yes");
      table.row("SGD",
                "parallel log-n merge (" + std::to_string(report.merge_rounds) +
                    " rounds)",
                bench::Table::fmt(t_merged, 1),
                bench::Table::fmt(t_serial / t_merged, 2) + "x",
                drift < 1e-4f ? "yes (fp-reorder)" : "NO (BUG)");
    }
    table.emit();
  }
  lowdiff::bench::dump_registry_json();
  return 0;
}
