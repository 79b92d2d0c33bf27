#include "core/checkpoint_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <tuple>

#include "common/error.h"
#include "storage/atomic_commit.h"
#include "storage/serializer.h"

namespace lowdiff {
namespace {

std::string pad(std::uint64_t iter) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%012llu", static_cast<unsigned long long>(iter));
  return buf;
}

}  // namespace

CheckpointStore::CheckpointStore(std::shared_ptr<StorageBackend> backend,
                                 RetryPolicy retry)
    : backend_(std::move(backend)), retry_(retry),
      rng_(retry.make_rng(0xc4ec9013)) {
  LOWDIFF_ENSURE(backend_ != nullptr, "null backend");
}

std::string CheckpointStore::full_key(std::uint64_t iter) {
  return "full/" + pad(iter);
}

std::string CheckpointStore::diff_key(std::uint64_t iter) {
  return "diff/" + pad(iter);
}

std::string CheckpointStore::batch_key(std::uint64_t first, std::uint64_t last) {
  return "batch/" + pad(first) + "_" + pad(last);
}

std::string CheckpointStore::shard_key(std::uint64_t iter, std::uint32_t rank,
                                       std::uint32_t world) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "fullshard/%012llu_%04u_%04u",
                static_cast<unsigned long long>(iter), rank, world);
  return buf;
}

Status CheckpointStore::write_committed(const std::string& key,
                                        std::span<const std::byte> bytes) const {
  // Fork a per-call RNG so retry sleeps don't serialize concurrent writers
  // (sharded saves run one thread per rank).
  std::uint64_t fork_seed;
  {
    std::lock_guard lock(rng_mutex_);
    fork_seed = rng_();
  }
  Xoshiro256 rng(fork_seed);
  std::uint64_t n = 0;
  Status st = committed_write(*backend_, key, bytes, retry_, rng, &n);
  retries_.fetch_add(n, std::memory_order_relaxed);
  return st;
}

Result<std::vector<std::byte>> CheckpointStore::read_committed(
    const std::string& key) const {
  std::uint64_t fork_seed;
  {
    std::lock_guard lock(rng_mutex_);
    fork_seed = rng_();
  }
  Xoshiro256 rng(fork_seed);
  std::uint64_t n = 0;
  auto result = committed_read(*backend_, key, retry_, rng, &n);
  retries_.fetch_add(n, std::memory_order_relaxed);
  return result;
}

Status CheckpointStore::put_full(std::uint64_t iter, const ModelState& state) {
  return write_committed(full_key(iter), serialize_model_state(state));
}

namespace {

/// Element range [lo, hi) owned by `rank` of `world` in a flat vector.
std::pair<std::size_t, std::size_t> shard_range(std::size_t n, std::uint32_t rank,
                                                std::uint32_t world) {
  const std::size_t lo = n * rank / world;
  const std::size_t hi = n * (rank + 1) / world;
  return {lo, hi};
}

template <typename T>
void append_pod(std::vector<std::byte>& out, const T& v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof(T));
}

void append_slice(std::vector<std::byte>& out, std::span<const float> v) {
  const auto* p = reinterpret_cast<const std::byte*>(v.data());
  out.insert(out.end(), p, p + v.size_bytes());
}

template <typename T>
T read_pod(std::span<const std::byte> bytes, std::size_t& pos) {
  LOWDIFF_ENSURE(pos + sizeof(T) <= bytes.size(), "truncated shard");
  T v;
  std::memcpy(&v, bytes.data() + pos, sizeof(T));
  pos += sizeof(T);
  return v;
}

}  // namespace

Status CheckpointStore::put_full_shard(std::uint64_t iter, std::uint32_t rank,
                                       std::uint32_t world,
                                       const ModelState& state) {
  LOWDIFF_ENSURE(world >= 1 && rank < world, "bad shard coordinates");
  const auto [lo, hi] = shard_range(state.param_count(), rank, world);
  const std::size_t count = hi - lo;

  std::vector<std::byte> payload;
  payload.reserve(3 * count * sizeof(float) + 64);
  append_pod(payload, iter);
  append_pod(payload, rank);
  append_pod(payload, world);
  append_pod(payload, state.step());
  append_pod(payload, static_cast<std::uint64_t>(state.param_count()));
  append_pod(payload, static_cast<std::uint64_t>(lo));
  append_pod(payload, static_cast<std::uint64_t>(count));
  append_slice(payload, state.params().cspan().subspan(lo, count));
  append_slice(payload, state.moment1().span().subspan(lo, count));
  append_slice(payload, state.moment2().span().subspan(lo, count));
  return write_committed(shard_key(iter, rank, world),
                         frame(RecordType::kFullShard, payload));
}

Status CheckpointStore::put_diff(const CompressedGrad& grad) {
  return write_committed(diff_key(grad.iteration), serialize_diff(grad));
}

Status CheckpointStore::put_batch(const BatchedGrad& batch) {
  LOWDIFF_ENSURE(!batch.members.empty(), "empty batch");
  return write_committed(batch_key(batch.first_iteration, batch.last_iteration),
                         serialize_batch(batch));
}

Status CheckpointStore::put_raw(const std::string& key,
                                std::span<const std::byte> bytes) {
  return write_committed(key, bytes);
}

bool CheckpointStore::parse_key(const std::string& key, char& kind,
                                std::uint64_t& a, std::uint64_t& b) {
  unsigned long long x = 0, y = 0;
  if (std::sscanf(key.c_str(), "full/%llu", &x) == 1) {
    kind = 'f';
    a = x;
    return true;
  }
  if (std::sscanf(key.c_str(), "diff/%llu", &x) == 1) {
    kind = 'd';
    a = x;
    return true;
  }
  if (std::sscanf(key.c_str(), "batch/%llu_%llu", &x, &y) == 2) {
    kind = 'b';
    a = x;
    b = y;
    return true;
  }
  unsigned rank = 0, world = 0;
  if (std::sscanf(key.c_str(), "fullshard/%llu_%u_%u", &x, &rank, &world) == 3) {
    kind = 's';
    a = x;
    b = (static_cast<std::uint64_t>(world) << 32) | rank;
    return true;
  }
  return false;
}

std::vector<std::string> CheckpointStore::committed_keys() const {
  const auto all = backend_->list();
  const std::set<std::string> index(all.begin(), all.end());
  std::vector<std::string> visible;
  visible.reserve(all.size() / 2);
  for (const auto& key : all) {
    if (is_commit_marker(key)) continue;
    if (index.contains(commit_marker_key(key))) visible.push_back(key);
  }
  return visible;
}

CheckpointStore::Manifest CheckpointStore::manifest() const {
  Manifest manifest;
  // Sharded fulls: iter -> (world, ranks committed).
  std::map<std::uint64_t, std::pair<std::uint32_t, std::set<std::uint32_t>>> shards;
  for (const auto& key : committed_keys()) {
    char kind;
    std::uint64_t a = 0, b = 0;
    if (!parse_key(key, kind, a, b)) continue;
    if (kind == 'f') {
      manifest.fulls.push_back(a);
    } else if (kind == 'd') {
      manifest.diffs.push_back({a, a, key});
    } else if (kind == 'b') {
      manifest.diffs.push_back({a, b, key});
    } else {
      auto& [world, ranks] = shards[a];
      world = static_cast<std::uint32_t>(b >> 32);
      ranks.insert(static_cast<std::uint32_t>(b & 0xFFFFFFFFu));
    }
  }
  for (const auto& [iter, set] : shards) {
    if (set.first > 0 && set.second.size() == set.first) {
      manifest.fulls.push_back(iter);
    }
  }
  auto& fulls = manifest.fulls;
  std::sort(fulls.begin(), fulls.end());
  fulls.erase(std::unique(fulls.begin(), fulls.end()), fulls.end());
  std::sort(manifest.diffs.begin(), manifest.diffs.end(),
            [](const DiffRecord& x, const DiffRecord& y) {
              return std::tie(x.first, x.last) < std::tie(y.first, y.last);
            });
  return manifest;
}

std::optional<std::uint64_t> CheckpointStore::latest_full() const {
  const auto fulls = manifest().fulls;
  if (fulls.empty()) return std::nullopt;
  return fulls.back();
}

std::vector<std::uint64_t> CheckpointStore::diffs_after(std::uint64_t iter) const {
  std::set<std::uint64_t> iters;
  for (const auto& record : manifest().diffs) {
    for (auto i = std::max(record.first, iter + 1); i <= record.last; ++i) {
      iters.insert(i);
    }
  }
  return {iters.begin(), iters.end()};
}

Result<ModelState> CheckpointStore::try_read_full(std::uint64_t iter,
                                                  const ModelSpec& spec) const {
  using R = Result<ModelState>;
  if (auto bytes = read_committed(full_key(iter)); bytes.ok()) {
    try {
      return deserialize_model_state(*bytes, spec);
    } catch (const Error& e) {
      return R(ErrorCode::kCorrupted,
               full_key(iter) + " undecodable: " + e.what());
    }
  } else if (bytes.status().code() != ErrorCode::kNotFound) {
    return R(bytes.status());
  }

  // Assemble from shards.  Discover the world size from any committed
  // shard key for this iteration.
  std::uint32_t world = 0;
  for (const auto& key : committed_keys()) {
    char kind;
    std::uint64_t a = 0, b = 0;
    if (parse_key(key, kind, a, b) && kind == 's' && a == iter) {
      world = static_cast<std::uint32_t>(b >> 32);
      break;
    }
  }
  if (world == 0) {
    return R(ErrorCode::kNotFound, "missing full checkpoint " + full_key(iter));
  }

  try {
    ModelState state(spec);
    std::size_t assembled = 0;
    for (std::uint32_t rank = 0; rank < world; ++rank) {
      auto bytes = read_committed(shard_key(iter, rank, world));
      if (!bytes.ok()) {
        return R(bytes.status().code() == ErrorCode::kNotFound
                     ? Status(ErrorCode::kNotFound,
                              "incomplete sharded checkpoint at iteration " +
                                  std::to_string(iter))
                     : bytes.status());
      }
      const Frame f = unframe(*bytes);  // committed_read checked the bytes
      LOWDIFF_ENSURE(f.type == RecordType::kFullShard, "not a checkpoint shard");
      const auto payload = f.payload;
      std::size_t pos = 0;
      const auto shard_iter = read_pod<std::uint64_t>(payload, pos);
      const auto shard_rank = read_pod<std::uint32_t>(payload, pos);
      const auto shard_world = read_pod<std::uint32_t>(payload, pos);
      const auto step = read_pod<std::uint64_t>(payload, pos);
      const auto param_count = read_pod<std::uint64_t>(payload, pos);
      const auto lo = read_pod<std::uint64_t>(payload, pos);
      const auto count = read_pod<std::uint64_t>(payload, pos);
      LOWDIFF_ENSURE(shard_iter == iter && shard_rank == rank && shard_world == world,
                     "shard metadata mismatch");
      LOWDIFF_ENSURE(param_count == spec.param_count(),
                     "shard parameter count does not match model spec");
      LOWDIFF_ENSURE(lo + count <= param_count, "shard range out of bounds");
      LOWDIFF_ENSURE(pos + 3 * count * sizeof(float) == payload.size(),
                     "shard payload size mismatch");
      auto copy_slice = [&payload, &pos](std::span<float> dst) {
        if (!dst.empty()) {
          std::memcpy(dst.data(), payload.data() + pos, dst.size_bytes());
        }
        pos += dst.size_bytes();
      };
      copy_slice(state.params().span().subspan(lo, count));
      copy_slice(state.moment1().span().subspan(lo, count));
      copy_slice(state.moment2().span().subspan(lo, count));
      state.set_step(step);
      assembled += count;
    }
    LOWDIFF_ENSURE(assembled == spec.param_count(), "shards do not cover the state");
    return state;
  } catch (const Error& e) {
    return R(ErrorCode::kCorrupted, "sharded checkpoint at iteration " +
                                        std::to_string(iter) +
                                        " undecodable: " + e.what());
  }
}

ModelState CheckpointStore::read_full(std::uint64_t iter,
                                      const ModelSpec& spec) const {
  auto result = try_read_full(iter, spec);
  result.status().check();
  return std::move(*result);
}

Result<std::vector<CompressedGrad>> CheckpointStore::try_read_diffs(
    const DiffRecord& record) const {
  using R = Result<std::vector<CompressedGrad>>;
  auto bytes = read_committed(record.key);
  if (!bytes.ok()) return R(bytes.status());
  try {
    if (record.key.starts_with("batch/")) {
      return std::move(deserialize_batch(*bytes).members);
    }
    return std::vector<CompressedGrad>{deserialize_diff(*bytes)};
  } catch (const Error& e) {
    return R(ErrorCode::kCorrupted, record.key + " undecodable: " + e.what());
  }
}

void CheckpointStore::prune_before(std::uint64_t iter) {
  for (const auto& key : backend_->list()) {
    if (is_commit_marker(key)) continue;  // removed with their data object
    char kind;
    std::uint64_t a = 0, b = 0;
    if (!parse_key(key, kind, a, b)) continue;
    const bool obsolete = (kind == 'f' && a < iter) || (kind == 'd' && a <= iter) ||
                          (kind == 'b' && b <= iter) || (kind == 's' && a < iter);
    if (obsolete) {
      // Marker first: a data object without a marker is invisible, while a
      // dangling marker would read as a corrupt (data-missing) checkpoint.
      backend_->remove(commit_marker_key(key));
      backend_->remove(key);
    }
  }
}

CheckpointStore::Usage CheckpointStore::usage() const {
  Usage usage;
  for (const auto& key : backend_->list()) {
    char kind;
    std::uint64_t a = 0, b = 0;
    if (!parse_key(key, kind, a, b)) continue;
    const auto bytes = backend_->read(key);
    if (!bytes.has_value()) continue;
    if (kind == 'f' || kind == 's') {
      usage.full_bytes += bytes->size();
      if (kind == 'f') ++usage.full_count;
    } else {
      usage.diff_bytes += bytes->size();
      usage.diff_count += (kind == 'b') ? (b - a + 1) : 1;
    }
  }
  return usage;
}

}  // namespace lowdiff
