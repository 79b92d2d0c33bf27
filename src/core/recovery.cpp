#include "core/recovery.h"

#include <algorithm>
#include <future>

#include "common/error.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "compress/merge.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lowdiff {

namespace {

struct RecoveryObs {
  obs::Counter& diffs_replayed_total;
  obs::Counter& corrupt_diffs_total;
  obs::Counter& merge_rounds_total;

  static RecoveryObs resolve() {
    auto& reg = obs::Registry::global();
    return RecoveryObs{reg.counter("recovery.diffs_replayed_total"),
                       reg.counter("recovery.corrupt_diffs_total"),
                       reg.counter("recovery.merge_rounds_total")};
  }
};

/// Read-side accounting for one recovery run: bytes come from the backend
/// stats delta, latency totals from per-record stopwatches at the read
/// sites.  Aggregated under the source name "storage" (the tier-aware
/// engine replaces that with its per-tier breakdown).
struct ReadAccounting {
  explicit ReadAccounting(const CheckpointStore& store)
      : store_(store), before_(store.backend().stats()) {}

  void finish(RecoveryReport* report) const {
    if (report == nullptr) return;
    const auto after = store_.backend().stats();
    const std::uint64_t bytes = after.bytes_read - before_.bytes_read;
    report->bytes_read += bytes;
    report->read_seconds += seconds;
    auto& source = report->read_sources["storage"];
    source.reads += reads;
    source.bytes += bytes;
    source.seconds += seconds;
  }

  std::uint64_t reads = 0;
  double seconds = 0.0;

 private:
  const CheckpointStore& store_;
  StorageStats before_;
};

/// One differential record's read + decode, timed.
struct LoadedRecord {
  Result<std::vector<CompressedGrad>> payloads;
  double seconds;
};

/// Loads the newest valid full of `fulls` (ascending), degrading to older
/// ones when newer ones are corrupt.  Throws when none is valid.
ModelState load_base(const CheckpointStore& store,
                     const std::vector<std::uint64_t>& fulls,
                     const ModelSpec& spec, std::uint64_t& base,
                     std::uint64_t& corrupt) {
  LOWDIFF_TRACE_SPAN("recovery.load_base", "recovery");
  LOWDIFF_ENSURE(!fulls.empty(), "no full checkpoint to recover from");
  for (auto it = fulls.rbegin(); it != fulls.rend(); ++it) {
    auto result = store.try_read_full(*it, spec);
    if (result.ok()) {
      base = *it;
      return std::move(*result);
    }
    LOWDIFF_LOG_ERROR("full checkpoint at iteration ", *it,
                      " unusable: ", result.status().to_string());
    ++corrupt;
  }
  throw Error("every full checkpoint is corrupt; cannot recover",
              std::source_location::current());
}

/// Record reads submitted to a pool ahead of the replay.  Waits for any
/// still in flight on destruction, so no task outlives the store it reads
/// when the replay throws.
struct ReadsAhead {
  std::vector<std::future<LoadedRecord>> futures;

  ~ReadsAhead() {
    for (auto& f : futures) {
      if (f.valid()) f.wait();
    }
  }
};

LoadedRecord load_record(const CheckpointStore& store,
                         const CheckpointStore::DiffRecord& record) {
  Stopwatch sw;
  auto payloads = store.try_read_diffs(record);
  return {std::move(payloads), sw.elapsed_sec()};
}

/// Decompresses `payload` into `dense` if it fits the engine: its
/// dense_size is the model's, and the engine's compressor reads its scheme.
/// A payload that does not fit ends the chain, like an undecodable record.
bool decompress_if_fits(const Compressor& compressor,
                        const CompressedGrad& payload, std::span<float> dense) {
  if (payload.dense_size != dense.size()) return false;
  try {
    compressor.decompress(payload, dense);
  } catch (const Error&) {
    return false;  // a scheme this compressor does not read
  }
  return true;
}

/// One replayed optimizer step.  On a pool the step is split by coordinate:
/// the replay thread and idle workers apply slices of kReplaySlice
/// coordinates concurrently, then the step counter advances once.
/// step_slice over every slice followed by finish_partial_step() is
/// bit-identical to step() (optimizer.h), so the recovered state does not
/// depend on the pool.
void replay_step(const Optimizer& optimizer, ModelState& state,
                 std::span<const float> grad, ThreadPool* pool) {
  if (pool == nullptr) {
    optimizer.step(state, grad);
    return;
  }
  LOWDIFF_ENSURE(grad.size() == state.param_count(),
                 "replay gradient size mismatch");
  constexpr std::size_t kReplaySlice = RecoveryEngine::kReplaySlice;
  const std::size_t slices = (grad.size() + kReplaySlice - 1) / kReplaySlice;
  pool->parallel_for(0, slices, [&](std::size_t s) {
    const std::size_t lo = s * kReplaySlice;
    optimizer.step_slice(
        state, lo, grad.subspan(lo, std::min(kReplaySlice, grad.size() - lo)));
  });
  optimizer.finish_partial_step(state);
}

}  // namespace

RecoveryEngine::RecoveryEngine(ModelSpec spec,
                               std::unique_ptr<Optimizer> optimizer,
                               std::unique_ptr<Compressor> compressor)
    : spec_(std::move(spec)), optimizer_(std::move(optimizer)),
      compressor_(std::move(compressor)) {
  LOWDIFF_ENSURE(optimizer_ != nullptr, "null optimizer");
  LOWDIFF_ENSURE(compressor_ != nullptr, "null compressor");
}

ModelState RecoveryEngine::walk(const CheckpointStore& store, ThreadPool* pool,
                                std::vector<CompressedGrad>* chain,
                                RecoveryReport* report) const {
  const std::uint64_t retries_before = store.retry_count();
  ReadAccounting acct(store);
  auto manifest = store.manifest();

  std::uint64_t base = 0, corrupt_fulls = 0;
  Stopwatch base_sw;
  ModelState state = load_base(store, manifest.fulls, spec_, base, corrupt_fulls);
  acct.seconds += base_sw.elapsed_sec();
  acct.reads += 1 + corrupt_fulls;

  // Every record holding an iteration after the base, read once — ahead on
  // the pool when there is one.
  auto& records = manifest.diffs;
  std::erase_if(records, [base](const auto& r) { return r.last <= base; });
  ReadsAhead ahead;
  if (pool != nullptr) {
    ahead.futures.reserve(records.size());
    for (const auto& record : records) {
      ahead.futures.push_back(pool->submit(
          [&store, record] { return load_record(store, record); }));
    }
  }

  // Replay the contiguous chain base+1, base+2, ...  The first unreadable
  // record, missing iteration or payload that does not fit ends it; later
  // records are still read so every corrupt one is counted.  The reads were
  // queued first, so they stay ahead of the replay's slices in the pool queue.
  LOWDIFF_TRACE_SPAN("recovery.replay", "recovery");
  Tensor dense(spec_.param_count());
  std::uint64_t next = base + 1, corrupt = 0;
  bool ended = false;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& record = records[i];
    LoadedRecord loaded =
        pool != nullptr ? ahead.futures[i].get() : load_record(store, record);
    acct.seconds += loaded.seconds;
    ++acct.reads;
    if (!loaded.payloads.ok()) {
      LOWDIFF_LOG_ERROR("differential record ", record.key,
                        " unusable: ", loaded.payloads.status().to_string());
      corrupt += record.last - std::max(record.first, base + 1) + 1;
      ended = true;
      continue;
    }
    if (ended) continue;
    for (auto& payload : *loaded.payloads) {
      if (payload.iteration < next) continue;  // straddles the base, or held twice
      if (payload.iteration != next) {
        LOWDIFF_LOG_ERROR("no committed differential for iteration ", next,
                          "; replay ends at iteration ", next - 1);
        ended = true;
        break;
      }
      if (!decompress_if_fits(*compressor_, payload, dense.span())) {
        LOWDIFF_LOG_ERROR("differential for iteration ", next, " in ",
                          record.key, " does not fit this model (",
                          to_string(payload.scheme), ", ", payload.dense_size,
                          " coordinates); replay ends at iteration ", next - 1);
        ++corrupt;
        ended = true;
        break;
      }
      if (chain != nullptr) {
        chain->push_back(std::move(payload));
      } else {
        replay_step(*optimizer_, state, dense.cspan(), pool);
      }
      ++next;
    }
  }

  const std::uint64_t applied = next - base - 1;
  const RecoveryObs robs = RecoveryObs::resolve();
  robs.diffs_replayed_total.add(applied);
  robs.corrupt_diffs_total.add(corrupt);
  if (report != nullptr) {
    report->full_iteration = base;
    report->diffs_replayed = applied;
    report->final_iteration = next - 1;
    report->merge_rounds = 0;
    report->corrupt_diffs_skipped = corrupt;
    report->corrupt_fulls_skipped += corrupt_fulls;
    report->retries += store.retry_count() - retries_before;
  }
  acct.finish(report);
  return state;
}

ModelState RecoveryEngine::recover_serial(const CheckpointStore& store,
                                          RecoveryReport* report) const {
  return walk(store, nullptr, nullptr, report);
}

ModelState RecoveryEngine::recover_parallel(const CheckpointStore& store,
                                            ThreadPool& pool,
                                            RecoveryReport* report) const {
  return walk(store, &pool, nullptr, report);
}

ModelState RecoveryEngine::recover_parallel_additive(const CheckpointStore& store,
                                                     ThreadPool& pool, float lr,
                                                     RecoveryReport* report) const {
  // The same chain serial replay would apply: even additively, updates past
  // its end would yield a state that never existed during training.
  std::vector<CompressedGrad> payloads;
  ModelState state = walk(store, &pool, &payloads, report);
  const std::uint64_t applied = payloads.size();

  // Pairwise merge rounds (Fig. 7): gradients of a state-free optimizer
  // compose additively, so summing sparse payloads preserves the result.
  std::uint64_t rounds = 0;
  while (payloads.size() > 1) {
    ++rounds;
    obs::TraceSpan round_span(obs::Tracer::global(), "recovery.merge_round",
                              "recovery");
    std::vector<std::future<CompressedGrad>> merges;
    merges.reserve((payloads.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < payloads.size(); i += 2) {
      merges.push_back(pool.submit([&payloads, i] {
        const CompressedGrad pair[2] = {payloads[i], payloads[i + 1]};
        return merge_sparse_sum(pair);
      }));
    }
    std::vector<CompressedGrad> next;
    next.reserve(merges.size() + 1);
    for (auto& fut : merges) next.push_back(fut.get());
    if (payloads.size() % 2 == 1) next.push_back(std::move(payloads.back()));
    payloads = std::move(next);
  }

  if (!payloads.empty()) {
    // Single apply of the merged update: params -= lr * sum(G).
    auto params = state.params().span();
    const auto& merged = payloads.front();
    for (std::size_t i = 0; i < merged.indices.size(); ++i) {
      params[merged.indices[i]] -= lr * merged.values[i];
    }
    state.set_step(state.step() + applied);
  }
  RecoveryObs::resolve().merge_rounds_total.add(rounds);
  if (report != nullptr) report->merge_rounds = rounds;
  return state;
}

}  // namespace lowdiff
