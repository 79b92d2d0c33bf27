#include "storage/serializer.h"

#include <cstring>

#include "common/crc32.h"
#include "common/error.h"
#include "tensor/ops.h"

namespace lowdiff {
namespace {

constexpr char kMagic[4] = {'L', 'D', 'C', 'K'};
constexpr std::uint16_t kVersion = 1;
constexpr std::size_t kHeaderSize = 4 + 2 + 1 + 8 + 4;
constexpr std::size_t kCrcOffset = 4 + 2 + 1 + 8;

template <typename T>
T read_at(std::span<const std::byte> bytes, std::size_t offset) {
  LOWDIFF_ENSURE(offset + sizeof(T) <= bytes.size(), "truncated record");
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

/// Cursor over a pre-sized destination span (all serializers size exactly
/// before writing, validated once at the end).
class SpanWriter {
 public:
  explicit SpanWriter(std::span<std::byte> out) : out_(out) {}

  template <typename T>
  void write(const T& value) {
    std::memcpy(out_.data() + pos_, &value, sizeof(T));
    pos_ += sizeof(T);
  }

  void write_floats(std::span<const float> v) {
    write(static_cast<std::uint64_t>(v.size()));
    if (!v.empty()) {
      std::memcpy(out_.data() + pos_, v.data(), v.size_bytes());
      pos_ += v.size_bytes();
    }
  }

  std::size_t written() const { return pos_; }

 private:
  std::span<std::byte> out_;
  std::size_t pos_ = 0;
};

std::size_t read_floats(std::span<const std::byte> bytes, std::size_t pos,
                        std::span<float> out) {
  const auto n = read_at<std::uint64_t>(bytes, pos);
  pos += sizeof(std::uint64_t);
  LOWDIFF_ENSURE(n == out.size(), "float block size mismatch");
  LOWDIFF_ENSURE(pos + n * sizeof(float) <= bytes.size(), "truncated float block");
  if (n > 0) std::memcpy(out.data(), bytes.data() + pos, n * sizeof(float));
  return pos + n * sizeof(float);
}

std::size_t model_state_payload_size(const ModelState& state) {
  return 2 * sizeof(std::uint64_t) +                              // step, count
         3 * sizeof(std::uint64_t) +                              // float prefixes
         state.params().span().size_bytes() +
         state.moment1().span().size_bytes() +
         state.moment2().span().size_bytes();
}

void write_model_state_payload(std::span<std::byte> payload,
                               const ModelState& state) {
  SpanWriter w(payload);
  w.write(state.step());
  w.write(static_cast<std::uint64_t>(state.param_count()));
  w.write_floats(state.params().span());
  w.write_floats(state.moment1().span());
  w.write_floats(state.moment2().span());
  LOWDIFF_ENSURE(w.written() == payload.size(), "model state payload size mismatch");
}

}  // namespace

std::size_t framed_size(std::size_t payload_len) {
  return kHeaderSize + payload_len;
}

std::span<std::byte> frame_prepare(std::span<std::byte> record, RecordType type) {
  LOWDIFF_ENSURE(record.size() >= kHeaderSize, "frame buffer shorter than header");
  SpanWriter w(record);
  w.write(kMagic);
  w.write(kVersion);
  w.write(static_cast<std::uint8_t>(type));
  w.write(static_cast<std::uint64_t>(record.size() - kHeaderSize));
  w.write(std::uint32_t{0});  // CRC patched by frame_seal
  return record.subspan(kHeaderSize);
}

void frame_seal(std::span<std::byte> record) {
  LOWDIFF_ENSURE(record.size() >= kHeaderSize, "frame buffer shorter than header");
  const auto payload = record.subspan(kHeaderSize);
  const std::uint32_t crc = crc32c(payload.data(), payload.size());
  std::memcpy(record.data() + kCrcOffset, &crc, sizeof(crc));
}

std::vector<std::byte> frame(RecordType type, std::span<const std::byte> payload) {
  std::vector<std::byte> out(framed_size(payload.size()));
  auto dst = frame_prepare(out, type);
  if (!payload.empty()) std::memcpy(dst.data(), payload.data(), payload.size());
  frame_seal(out);
  return out;
}

Frame unframe(std::span<const std::byte> bytes) {
  LOWDIFF_ENSURE(bytes.size() >= kHeaderSize, "record shorter than header");
  LOWDIFF_ENSURE(std::memcmp(bytes.data(), kMagic, 4) == 0, "bad checkpoint magic");
  const auto version = read_at<std::uint16_t>(bytes, 4);
  LOWDIFF_ENSURE(version == kVersion, "unsupported checkpoint version");
  const auto payload_len = read_at<std::uint64_t>(bytes, 7);
  LOWDIFF_ENSURE(bytes.size() == kHeaderSize + payload_len,
                 "record length mismatch");
  return {static_cast<RecordType>(read_at<std::uint8_t>(bytes, 6)),
          read_at<std::uint32_t>(bytes, kCrcOffset), bytes.subspan(kHeaderSize)};
}

std::vector<std::byte> serialize_model_state(const ModelState& state) {
  std::vector<std::byte> out(framed_size(model_state_payload_size(state)));
  write_model_state_payload(frame_prepare(out, RecordType::kFullCheckpoint), state);
  frame_seal(out);
  return out;
}

PooledBuffer serialize_model_state(const ModelState& state, BufferPool& pool) {
  PooledBuffer out = pool.acquire(framed_size(model_state_payload_size(state)));
  write_model_state_payload(frame_prepare(out.span(), RecordType::kFullCheckpoint),
                            state);
  frame_seal(out.span());
  return out;
}

ModelState deserialize_model_state(std::span<const std::byte> bytes,
                                   const ModelSpec& spec) {
  const Frame f = unframe(bytes);
  LOWDIFF_ENSURE(f.type == RecordType::kFullCheckpoint, "not a full checkpoint");
  const auto payload = f.payload;
  std::size_t pos = 0;
  const auto step = read_at<std::uint64_t>(payload, pos);
  pos += sizeof(std::uint64_t);
  const auto count = read_at<std::uint64_t>(payload, pos);
  pos += sizeof(std::uint64_t);
  LOWDIFF_ENSURE(count == spec.param_count(),
                 "checkpoint parameter count does not match model spec");
  ModelState state(spec);
  pos = read_floats(payload, pos, state.params().span());
  pos = read_floats(payload, pos, state.moment1().span());
  pos = read_floats(payload, pos, state.moment2().span());
  LOWDIFF_ENSURE(pos == payload.size(), "trailing bytes in full checkpoint");
  state.set_step(step);
  return state;
}

std::vector<std::byte> serialize_diff(const CompressedGrad& grad) {
  std::vector<std::byte> out(framed_size(grad.serialized_size()));
  grad.serialize_into(frame_prepare(out, RecordType::kDiffCheckpoint));
  frame_seal(out);
  return out;
}

PooledBuffer serialize_diff(const CompressedGrad& grad, BufferPool& pool) {
  PooledBuffer out = pool.acquire(framed_size(grad.serialized_size()));
  grad.serialize_into(frame_prepare(out.span(), RecordType::kDiffCheckpoint));
  frame_seal(out.span());
  return out;
}

CompressedGrad deserialize_diff(std::span<const std::byte> bytes) {
  const Frame f = unframe(bytes);
  LOWDIFF_ENSURE(f.type == RecordType::kDiffCheckpoint,
                 "not a differential checkpoint");
  return CompressedGrad::deserialize(f.payload);
}

std::vector<std::byte> serialize_batch(const BatchedGrad& batch) {
  std::vector<std::byte> out(framed_size(batch.serialized_size()));
  batch.serialize_into(frame_prepare(out, RecordType::kBatchedDiff));
  frame_seal(out);
  return out;
}

PooledBuffer serialize_batch(const BatchedGrad& batch, BufferPool& pool) {
  PooledBuffer out = pool.acquire(framed_size(batch.serialized_size()));
  batch.serialize_into(frame_prepare(out.span(), RecordType::kBatchedDiff));
  frame_seal(out.span());
  return out;
}

BatchedGrad deserialize_batch(std::span<const std::byte> bytes) {
  const Frame f = unframe(bytes);
  LOWDIFF_ENSURE(f.type == RecordType::kBatchedDiff, "not a batched differential");
  return BatchedGrad::deserialize(f.payload);
}

}  // namespace lowdiff
