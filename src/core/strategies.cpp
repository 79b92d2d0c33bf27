#include "core/strategies.h"

#include <cstring>

#include "common/buffer_pool.h"
#include "common/error.h"
#include "common/logging.h"
#include "obs/datapath.h"
#include "obs/trace.h"
#include "storage/atomic_commit.h"
#include "storage/serializer.h"
#include "tensor/ops.h"

namespace lowdiff {

namespace {

/// Strategies persist through the atomic commit protocol so a crash
/// mid-write never leaves a visible torn checkpoint.
AsyncWriter::Options committed_writer(std::size_t max_pending) {
  AsyncWriter::Options opt;
  opt.max_pending = max_pending;
  opt.committed = true;
  return opt;
}

}  // namespace

StrategyObs StrategyObs::resolve(const std::string& label) {
  auto& reg = obs::Registry::global();
  const std::string p = "ckpt." + label + ".";
  return StrategyObs{reg.counter(p + "full_total"),
                     reg.counter(p + "diff_total"),
                     reg.counter(p + "batched_write_total"),
                     reg.counter(p + "bytes_total"),
                     reg.histogram(p + "stall_us"),
                     reg.histogram(p + "overlap_us")};
}

// ---------------------------------------------------------------------------
// TorchSave
// ---------------------------------------------------------------------------

TorchSaveStrategy::TorchSaveStrategy(std::shared_ptr<CheckpointStore> store,
                                     std::uint64_t interval)
    : store_(std::move(store)), interval_(interval),
      obs_(StrategyObs::resolve("torch_save")) {
  LOWDIFF_ENSURE(store_ != nullptr, "null store");
  LOWDIFF_ENSURE(interval_ >= 1, "interval must be >= 1");
}

void TorchSaveStrategy::after_step(std::uint64_t iter, const ModelState& state,
                                   std::shared_ptr<const CompressedGrad>) {
  if ((iter + 1) % interval_ != 0) return;
  LOWDIFF_TRACE_SPAN("ckpt.full", "ckpt");
  obs::ScopedTimerUs stall(obs_.stall_us);
  // Synchronous: blocks the training thread; a persistent failure here is
  // fatal by design (torch.save semantics).
  store_->put_full(iter, state).check();
  ++stats_.full_ckpts;
  stats_.bytes_written += state.byte_size();
  obs_.full_total.add(1);
  obs_.bytes_total.add(state.byte_size());
}

StrategyStats TorchSaveStrategy::stats() const {
  StrategyStats out = stats_;
  out.write_retries = store_->retry_count();
  return out;
}

// ---------------------------------------------------------------------------
// CheckFreq
// ---------------------------------------------------------------------------

CheckFreqStrategy::CheckFreqStrategy(std::shared_ptr<CheckpointStore> store,
                                     std::uint64_t interval)
    : store_(std::move(store)), interval_(interval),
      obs_(StrategyObs::resolve("checkfreq")),
      writer_(store_->backend_ptr(), committed_writer(/*max_pending=*/1)) {
  LOWDIFF_ENSURE(interval_ >= 1, "interval must be >= 1");
}

void CheckFreqStrategy::after_step(std::uint64_t iter, const ModelState& state,
                                   std::shared_ptr<const CompressedGrad>) {
  if ((iter + 1) % interval_ != 0) return;
  // Snapshot on the training thread (the device->host copy), persist on
  // the background writer.  The bounded (1) pending queue realizes the
  // "wait for the previous persist" pipeline rule.
  LOWDIFF_TRACE_SPAN("ckpt.snapshot", "ckpt");
  obs::ScopedTimerUs stall(obs_.stall_us);
  // Pooled single-pass snapshot: the framed record is built directly in a
  // recycled arena buffer, so steady-state snapshots stop allocating.
  auto bytes = serialize_model_state(state, BufferPool::global());
  stats_.bytes_written += bytes.size();
  obs_.bytes_total.add(bytes.size());
  writer_.submit(CheckpointStore::full_key(iter), std::move(bytes));
  ++stats_.full_ckpts;
  obs_.full_total.add(1);
}

void CheckFreqStrategy::flush() {
  writer_.flush();
  // Propagate durability through composite backends (e.g. a tier::Replicator
  // drains its replica writers here) so flush() honours its quorum contract.
  (void)store_->backend().sync();
}

StrategyStats CheckFreqStrategy::stats() const {
  StrategyStats out = stats_;
  out.write_retries = writer_.retries();
  return out;
}

// ---------------------------------------------------------------------------
// Gemini
// ---------------------------------------------------------------------------

GeminiStrategy::GeminiStrategy(std::shared_ptr<StorageBackend> memory_tier,
                               std::shared_ptr<CheckpointStore> durable,
                               std::uint64_t interval,
                               std::uint64_t persist_interval)
    : memory_tier_(std::move(memory_tier)),
      tier_store_(memory_tier_),  // throws on a null tier
      durable_(std::move(durable)), interval_(interval),
      persist_interval_(persist_interval),
      obs_(StrategyObs::resolve("gemini")),
      writer_(durable_->backend_ptr(), committed_writer(/*max_pending=*/1)) {
  LOWDIFF_ENSURE(interval_ >= 1 && persist_interval_ >= 1, "bad intervals");
}

void GeminiStrategy::after_step(std::uint64_t iter, const ModelState& state,
                                std::shared_ptr<const CompressedGrad>) {
  if ((iter + 1) % interval_ != 0) return;
  LOWDIFF_TRACE_SPAN("ckpt.tier_write", "ckpt");
  obs::ScopedTimerUs stall(obs_.stall_us);
  // One pooled record, shared by value: the memory-tier write and the
  // durable persist reference the same bytes, no copy between them.
  const ByteBuffer bytes = serialize_model_state(state, BufferPool::global());
  stats_.bytes_written += bytes.size();
  obs_.bytes_total.add(bytes.size());
  // Ship to the (remote) CPU-memory tier; traffic cost is borne by the
  // tier's throttler if one is configured.  A failed tier write leaves no
  // committed object — recovery simply falls back to an older snapshot.
  (void)tier_store_.put_raw(CheckpointStore::full_key(iter), bytes.cspan());
  ++stats_.full_ckpts;
  obs_.full_total.add(1);
  if ((iter + 1) % (interval_ * persist_interval_) == 0) {
    writer_.submit(CheckpointStore::full_key(iter), bytes);
  }
}

void GeminiStrategy::flush() {
  writer_.flush();
  (void)durable_->backend().sync();
}

StrategyStats GeminiStrategy::stats() const {
  StrategyStats out = stats_;
  out.write_retries = writer_.retries() + tier_store_.retry_count();
  return out;
}

ModelState GeminiStrategy::recover_from_memory(const ModelSpec& spec) const {
  CheckpointStore tier_view(memory_tier_);
  const auto latest = tier_view.latest_full();
  LOWDIFF_ENSURE(latest.has_value(), "no in-memory checkpoint available");
  return tier_view.read_full(*latest, spec);
}

// ---------------------------------------------------------------------------
// NaiveDC
// ---------------------------------------------------------------------------

namespace {

/// Wire payload of a Check-N-Run style differential: compressed parameter
/// diff + *uncompressed* optimizer-moment diffs (Exp. 7's key observation).
struct NaiveDiffRecord {
  std::uint64_t iteration = 0;
  CompressedGrad params_diff;
  std::vector<float> m_diff;
  std::vector<float> v_diff;

  std::vector<std::byte> serialize() const {
    std::vector<std::byte> payload;
    auto append_u64 = [&payload](std::uint64_t v) {
      const auto* p = reinterpret_cast<const std::byte*>(&v);
      payload.insert(payload.end(), p, p + sizeof(v));
    };
    auto append_floats = [&payload, &append_u64](const std::vector<float>& v) {
      append_u64(v.size());
      const auto* p = reinterpret_cast<const std::byte*>(v.data());
      payload.insert(payload.end(), p, p + v.size() * sizeof(float));
    };
    append_u64(iteration);
    const auto grad_bytes = params_diff.serialize();
    append_u64(grad_bytes.size());
    payload.insert(payload.end(), grad_bytes.begin(), grad_bytes.end());
    append_floats(m_diff);
    append_floats(v_diff);
    return frame(RecordType::kNaiveDiff, payload);
  }

  /// Parses, in place, bytes committed_read() has checked.
  static NaiveDiffRecord deserialize(std::span<const std::byte> bytes) {
    const Frame f = unframe(bytes);
    LOWDIFF_ENSURE(f.type == RecordType::kNaiveDiff, "not a naive differential");
    const auto payload = f.payload;
    std::size_t pos = 0;
    auto read_u64 = [&payload, &pos]() {
      LOWDIFF_ENSURE(pos + 8 <= payload.size(), "truncated naive diff");
      std::uint64_t v;
      std::memcpy(&v, payload.data() + pos, sizeof(v));
      pos += sizeof(v);
      return v;
    };
    auto read_floats = [&payload, &pos, &read_u64]() {
      const auto n = read_u64();
      LOWDIFF_ENSURE(pos + n * sizeof(float) <= payload.size(),
                     "truncated naive diff floats");
      std::vector<float> v(n);
      if (n > 0) std::memcpy(v.data(), payload.data() + pos, n * sizeof(float));
      pos += n * sizeof(float);
      return v;
    };
    NaiveDiffRecord rec;
    rec.iteration = read_u64();
    const auto grad_len = read_u64();
    LOWDIFF_ENSURE(pos + grad_len <= payload.size(), "truncated naive diff grad");
    rec.params_diff = CompressedGrad::deserialize(payload.subspan(pos, grad_len));
    pos += grad_len;
    rec.m_diff = read_floats();
    rec.v_diff = read_floats();
    LOWDIFF_ENSURE(pos == payload.size(), "trailing bytes in naive diff");
    return rec;
  }
};

}  // namespace

NaiveDcStrategy::NaiveDcStrategy(std::shared_ptr<CheckpointStore> store,
                                 std::unique_ptr<Compressor> compressor,
                                 std::uint64_t diff_interval,
                                 std::uint64_t full_interval)
    : store_(std::move(store)), compressor_(std::move(compressor)),
      diff_interval_(diff_interval), full_interval_(full_interval),
      obs_(StrategyObs::resolve("naivedc")),
      writer_(store_->backend_ptr(), committed_writer(/*max_pending=*/1)) {
  LOWDIFF_ENSURE(compressor_ != nullptr, "null compressor");
  LOWDIFF_ENSURE(diff_interval_ >= 1 && full_interval_ >= 1, "bad intervals");
}

std::string NaiveDcStrategy::naive_diff_key(std::uint64_t iter) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "ndiff/%012llu",
                static_cast<unsigned long long>(iter));
  return buf;
}

void NaiveDcStrategy::after_step(std::uint64_t iter, const ModelState& state,
                                 std::shared_ptr<const CompressedGrad>) {
  const bool full_due = (iter + 1) % full_interval_ == 0;
  const bool diff_due = (iter + 1) % diff_interval_ == 0;

  if (full_due || prev_ == nullptr) {
    LOWDIFF_TRACE_SPAN("ckpt.full", "ckpt");
    obs::ScopedTimerUs stall(obs_.stall_us);
    auto bytes = serialize_model_state(state, BufferPool::global());
    stats_.bytes_written += bytes.size();
    obs_.bytes_total.add(bytes.size());
    writer_.submit(CheckpointStore::full_key(iter), std::move(bytes));
    ++stats_.full_ckpts;
    obs_.full_total.add(1);
    prev_ = std::make_unique<ModelState>(state.clone());
    return;
  }
  if (!diff_due) return;

  LOWDIFF_TRACE_SPAN("ckpt.diff", "ckpt");
  obs::ScopedTimerUs stall(obs_.stall_us);
  // Differential computation on the training thread — the WAR-coupled
  // critical path (Fig. 3a): subtract states, compress the parameter diff.
  const std::size_t n = state.param_count();
  Tensor params_diff(n);
  ops::sub(state.params().span(), prev_->params().span(), params_diff.span());

  NaiveDiffRecord rec;
  rec.iteration = iter;
  rec.params_diff = compressor_->compress(params_diff.cspan(), iter);
  rec.m_diff.resize(n);
  rec.v_diff.resize(n);
  ops::sub(state.moment1().span(), prev_->moment1().span(),
           std::span<float>(rec.m_diff));
  ops::sub(state.moment2().span(), prev_->moment2().span(),
           std::span<float>(rec.v_diff));

  auto bytes = rec.serialize();
  stats_.bytes_written += bytes.size();
  obs_.bytes_total.add(bytes.size());
  writer_.submit(naive_diff_key(iter), std::move(bytes));
  ++stats_.diff_ckpts;
  obs_.diff_total.add(1);
  prev_ = std::make_unique<ModelState>(state.clone());
}

void NaiveDcStrategy::flush() {
  writer_.flush();
  (void)store_->backend().sync();
}

StrategyStats NaiveDcStrategy::stats() const {
  StrategyStats out = stats_;
  out.write_retries = writer_.retries();
  return out;
}

ModelState NaiveDcStrategy::recover(const ModelSpec& spec) const {
  const auto full_iter = store_->latest_full();
  LOWDIFF_ENSURE(full_iter.has_value(), "no full checkpoint to recover from");
  ModelState state = store_->read_full(*full_iter, spec);

  // A diff is the state change since the previous checkpoint, so only an
  // unbroken run of the diffs due after the full rebuilds a state training
  // had.  The chain ends at the first due diff that is missing (never
  // committed) or unreadable, as in RecoveryEngine, and before the next due
  // full: the latest committed full is older, so that full never committed
  // and the diffs after it start from a state this chain does not have.
  auto next_due = [](std::uint64_t after, std::uint64_t interval) {
    return (after + 1) / interval * interval + interval - 1;
  };
  Tensor dense(spec.param_count());
  Xoshiro256 rng(0x7ead5eed);
  for (std::uint64_t last = *full_iter;;) {
    const std::uint64_t iter = next_due(last, diff_interval_);
    if (next_due(last, full_interval_) <= iter) break;
    const std::string key = naive_diff_key(iter);
    auto bytes = committed_read(store_->backend(), key, store_->retry_policy(), rng);
    if (!bytes.ok()) {
      if (bytes.status().code() != ErrorCode::kNotFound) {
        LOWDIFF_LOG_ERROR("naive diff ", key, " unusable: ",
                          bytes.status().to_string());
      }
      break;
    }
    const NaiveDiffRecord rec = NaiveDiffRecord::deserialize(*bytes);
    compressor_->decompress(rec.params_diff, dense.span());
    ops::axpy(1.0f, dense.cspan(), state.params().span());
    ops::axpy(1.0f, std::span<const float>(rec.m_diff), state.moment1().span());
    ops::axpy(1.0f, std::span<const float>(rec.v_diff), state.moment2().span());
    state.set_step(state.step() + (iter - last));
    last = iter;
  }
  return state;
}

// ---------------------------------------------------------------------------
// LowDiff
// ---------------------------------------------------------------------------

LowDiffStrategy::LowDiffStrategy(std::shared_ptr<CheckpointStore> store,
                                 Options options)
    : store_(std::move(store)), options_(options),
      obs_(StrategyObs::resolve("lowdiff")),
      queue_(options.queue_capacity),
      writer_(store_->backend_ptr(), committed_writer(/*max_pending=*/4)) {
  LOWDIFF_ENSURE(options_.batch_size >= 1, "batch size must be >= 1");
  LOWDIFF_ENSURE(options_.full_interval >= 1, "full interval must be >= 1");
  auto& reg = obs::Registry::global();
  queue_.set_obs({&reg.gauge("queue.lowdiff.occupancy"),
                  &reg.counter("queue.lowdiff.blocked_us_total")});
  ckpt_thread_ = std::thread([this] { checkpointing_loop(); });
}

LowDiffStrategy::~LowDiffStrategy() {
  queue_.close();
  if (ckpt_thread_.joinable()) ckpt_thread_.join();
  writer_.shutdown();
}

void LowDiffStrategy::after_step(std::uint64_t iter, const ModelState& state,
                                 std::shared_ptr<const CompressedGrad> sync_grad) {
  LOWDIFF_ENSURE(sync_grad != nullptr,
                 "LowDiff requires the synchronized gradient payload");
  LOWDIFF_TRACE_SPAN("ckpt.enqueue", "ckpt");
  obs::ScopedTimerUs stall(obs_.stall_us);
  {
    std::lock_guard lock(mutex_);
    device_resident_bytes_ += sync_grad->byte_size();
    stats_.peak_device_bytes =
        std::max(stats_.peak_device_bytes, device_resident_bytes_);
  }
  // Zero-copy enqueue (Algorithm 1 line 6): only the handle moves.  Blocks
  // iff the bounded queue is full — the back-pressure path of §4.2.
  const bool accepted = queue_.put(std::move(sync_grad));
  LOWDIFF_ENSURE(accepted, "reusing queue closed while training is active");
  {
    std::lock_guard lock(mutex_);
    ++enqueued_;
    ++stats_.diff_ckpts;
    stats_.queue_high_watermark =
        std::max(stats_.queue_high_watermark, queue_.high_watermark());
  }
  obs_.diff_total.add(1);

  if ((iter + 1) % options_.full_interval == 0) {
    // Regular full checkpoint (Algorithm 1 line 15): snapshot on the
    // training thread, persist asynchronously.
    LOWDIFF_TRACE_SPAN("ckpt.full", "ckpt");
    auto bytes = serialize_model_state(state, BufferPool::global());
    {
      std::lock_guard lock(mutex_);
      stats_.bytes_written += bytes.size();
      ++stats_.full_ckpts;
    }
    obs_.full_total.add(1);
    obs_.bytes_total.add(bytes.size());
    std::function<void()> on_done;
    if (options_.prune_on_full) {
      // GC runs on the writer thread only after this full checkpoint is
      // durable, so recovery never loses its floor.  Differentials at or
      // before `iter` that land afterwards are benign: recovery ignores
      // anything at or before the latest full checkpoint.
      on_done = [store = store_, iter] { store->prune_before(iter); };
    }
    writer_.submit(CheckpointStore::full_key(iter), std::move(bytes),
                   std::move(on_done));
  }
}

void LowDiffStrategy::checkpointing_loop() {
  for (;;) {
    auto handle = queue_.get();
    if (!handle.has_value()) break;  // closed and drained

    // Offload: copy the payload into host memory (Fig. 4 step 1), modeled
    // PCIe cost included, then release the device handle.
    LOWDIFF_TRACE_SPAN("ckpt.offload", "ckpt");
    obs::ScopedTimerUs overlap(obs_.overlap_us);
    if (options_.pcie != nullptr) options_.pcie->acquire((*handle)->byte_size());
    CompressedGrad host_copy = **handle;
    {
      std::lock_guard lock(mutex_);
      LOWDIFF_CHECK(device_resident_bytes_ >= (*handle)->byte_size());
      device_resident_bytes_ -= (*handle)->byte_size();
    }
    handle->reset();  // "close the IPC handle, free GPU memory"

    std::vector<CompressedGrad> ready;
    {
      std::lock_guard lock(mutex_);
      batch_buffer_.push_back(std::move(host_copy));
      if (!options_.offload_batching_to_cpu) {
        // Ablation: the batching buffer stays device-resident (Exp. 6b).
        device_resident_bytes_ += batch_buffer_.back().byte_size();
        stats_.peak_device_bytes =
            std::max(stats_.peak_device_bytes, device_resident_bytes_);
      }
      if (batch_buffer_.size() >= options_.batch_size) {
        ready = std::move(batch_buffer_);
        batch_buffer_.clear();
      }
    }
    // Submit before publishing the processed count: flush() reads
    // processed_ == enqueued_ as "every full batch has reached the writer",
    // so the submit must happen-before the bump or flush() can return with
    // the last batch still unsubmitted.
    if (!ready.empty()) write_batch(std::move(ready));
    {
      std::lock_guard lock(mutex_);
      ++processed_;
    }
    drained_cv_.notify_all();
  }
  // Drain: write any full batches left implicit in the buffer on close.
  std::vector<CompressedGrad> tail;
  {
    std::lock_guard lock(mutex_);
    if (batch_buffer_.size() >= options_.batch_size) {
      tail = std::move(batch_buffer_);
      batch_buffer_.clear();
    }
  }
  if (!tail.empty()) write_batch(std::move(tail));
}

void LowDiffStrategy::write_batch(std::vector<CompressedGrad> members) {
  LOWDIFF_TRACE_SPAN("datapath.write_batch", "ckpt");
  BatchedGrad batch;
  batch.first_iteration = members.front().iteration;
  batch.last_iteration = members.back().iteration;
  const std::size_t device_bytes =
      options_.offload_batching_to_cpu
          ? 0
          : [&] {
              std::size_t total = 0;
              for (const auto& m : members) total += m.byte_size();
              return total;
            }();
  batch.members = std::move(members);
  // Pooled single-pass serialization: members serialize_into the framed
  // record in place.
  auto bytes = serialize_batch(batch, BufferPool::global());
  obs_.batched_write_total.add(1);
  obs_.bytes_total.add(bytes.size());
  {
    std::lock_guard lock(mutex_);
    stats_.bytes_written += bytes.size();
    ++stats_.batched_writes;
    if (!options_.offload_batching_to_cpu) {
      LOWDIFF_CHECK(device_resident_bytes_ >= device_bytes);
      device_resident_bytes_ -= device_bytes;
    }
  }
  writer_.submit(
      CheckpointStore::batch_key(batch.first_iteration, batch.last_iteration),
      std::move(bytes));
}

void LowDiffStrategy::flush() {
  // Drain the queue: wait until the checkpointing thread has *processed*
  // everything enqueued so far (not merely dequeued it).
  std::vector<CompressedGrad> tail;
  {
    std::unique_lock lock(mutex_);
    drained_cv_.wait(lock, [this] { return processed_ == enqueued_; });
    // Persist the partial batch so flush() leaves nothing volatile.
    if (!batch_buffer_.empty()) {
      tail = std::move(batch_buffer_);
      batch_buffer_.clear();
    }
  }
  if (!tail.empty()) write_batch(std::move(tail));
  writer_.flush();
  (void)store_->backend().sync();
  obs::publish_datapath_metrics();
}

StrategyStats LowDiffStrategy::stats() const {
  std::lock_guard lock(mutex_);
  StrategyStats out = stats_;
  out.write_retries = writer_.retries();
  return out;
}

// ---------------------------------------------------------------------------
// LowDiff+
// ---------------------------------------------------------------------------

LowDiffPlusStrategy::LowDiffPlusStrategy(std::shared_ptr<CheckpointStore> store,
                                         const ModelState& init,
                                         std::unique_ptr<Optimizer> optimizer,
                                         Options options)
    : store_(std::move(store)), optimizer_(std::move(optimizer)),
      options_(options), obs_(StrategyObs::resolve("lowdiffplus")),
      queue_(options.queue_capacity),
      writer_(store_->backend_ptr(), committed_writer(/*max_pending=*/2)),
      replica_(init.clone()) {
  LOWDIFF_ENSURE(optimizer_ != nullptr, "null optimizer");
  LOWDIFF_ENSURE(options_.persist_interval >= 1, "persist interval must be >= 1");
  auto& reg = obs::Registry::global();
  queue_.set_obs({&reg.gauge("queue.lowdiffplus.occupancy"),
                  &reg.counter("queue.lowdiffplus.blocked_us_total")});
  update_thread_ = std::thread([this] { update_loop(); });
}

LowDiffPlusStrategy::~LowDiffPlusStrategy() {
  queue_.close();
  if (update_thread_.joinable()) update_thread_.join();
  writer_.shutdown();
}

void LowDiffPlusStrategy::on_layer_gradient(GradChunk chunk) {
  obs::ScopedTimerUs stall(obs_.stall_us);
  // Counted without replica_mutex_, which the update thread holds across
  // step_slice and the full-state serialization: taking it here stalled the
  // training thread behind them.  An enqueue can only make flush()'s
  // predicate (processed == enqueued) false, so flush() needs no wakeup
  // from it and none can be lost; the count precedes the put, so the update
  // thread never processes a chunk that is not yet counted.
  chunks_enqueued_.fetch_add(1);
  const bool accepted =
      queue_.put(std::make_shared<const GradChunk>(std::move(chunk)));
  LOWDIFF_ENSURE(accepted, "LowDiff+ queue closed while training is active");
  obs_.diff_total.add(1);
}

void LowDiffPlusStrategy::after_step(std::uint64_t iter, const ModelState&,
                                     std::shared_ptr<const CompressedGrad> grad) {
  LOWDIFF_ENSURE(grad != nullptr && grad->scheme == CompressionScheme::kDense,
                 "LowDiff+ consumes dense gradients");
  GradChunk chunk;
  chunk.iteration = iter;
  chunk.offset = 0;
  chunk.values = grad->values;
  chunk.last_of_iteration = true;
  on_layer_gradient(std::move(chunk));
}

void LowDiffPlusStrategy::update_loop() {
  for (;;) {
    auto handle = queue_.get();
    if (!handle.has_value()) break;
    const GradChunk& chunk = **handle;

    // Snapshot thread: host copy of the layer gradient (Algorithm 2 line
    // 19) with its modeled PCIe cost.
    LOWDIFF_TRACE_SPAN("ckpt.apply", "ckpt");
    obs::ScopedTimerUs overlap(obs_.overlap_us);
    if (options_.pcie != nullptr) {
      options_.pcie->acquire(chunk.values.size() * sizeof(float));
    }

    std::unique_lock lock(replica_mutex_);
    // CPU update (Algorithm 2 line 12): apply the slice to the replica.
    optimizer_->step_slice(replica_, chunk.offset,
                           std::span<const float>(chunk.values));
    if (chunk.last_of_iteration) {
      optimizer_->finish_partial_step(replica_);
      replica_iter_done_ = chunk.iteration + 1;
      ++stats_.diff_ckpts;
      const bool persist_due =
          (chunk.iteration + 1) % options_.persist_interval == 0;
      ByteBuffer bytes;
      if (persist_due) {
        bytes = serialize_model_state(replica_, BufferPool::global());
        stats_.bytes_written += bytes.size();
        ++stats_.full_ckpts;
        obs_.full_total.add(1);
        obs_.bytes_total.add(bytes.size());
      }
      lock.unlock();
      // Submit before publishing the processed count: flush() reads
      // chunks_processed_ == chunks_enqueued_ as "every due persist has
      // reached the writer", so the submit must happen-before the bump or
      // flush() can return with the final full checkpoint still unsubmitted.
      if (persist_due) {
        writer_.submit(CheckpointStore::full_key(chunk.iteration),
                       std::move(bytes));
      }
      lock.lock();
      ++chunks_processed_;
      lock.unlock();
      replica_cv_.notify_all();
      continue;
    }
    ++chunks_processed_;
    lock.unlock();
    replica_cv_.notify_all();
  }
}

ModelState LowDiffPlusStrategy::replica_snapshot(std::uint64_t iter) {
  std::unique_lock lock(replica_mutex_);
  replica_cv_.wait(lock, [this, iter] { return replica_iter_done_ >= iter + 1; });
  return replica_.clone();
}

void LowDiffPlusStrategy::flush() {
  {
    std::unique_lock lock(replica_mutex_);
    replica_cv_.wait(lock,
                     [this] { return chunks_processed_ == chunks_enqueued_; });
  }
  writer_.flush();
  (void)store_->backend().sync();
}

StrategyStats LowDiffPlusStrategy::stats() const {
  std::lock_guard lock(replica_mutex_);
  StrategyStats out = stats_;
  out.write_retries = writer_.retries();
  return out;
}

}  // namespace lowdiff
