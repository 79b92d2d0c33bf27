#pragma once

/// \file serializer.h
/// Checkpoint wire format.
///
/// Every persisted object is framed as:
///   magic "LDCK" | version u16 | type u8 | payload_len u64 | crc32c u32 | payload
/// The CRC covers the payload.  A data record's bytes are checked once, by
/// committed_read() against the length and CRC32C its commit marker
/// recorded over the whole framed record (atomic_commit.h), so unframe()
/// and the decoders below only parse: they take bytes committed_read() has
/// already checked and neither checksum nor copy the payload again.  The
/// commit marker, which no marker vouches for, checks its own frame CRC in
/// parse_commit_marker().

#include <cstdint>
#include <span>
#include <vector>

#include "common/buffer_pool.h"
#include "compress/compressed_grad.h"
#include "compress/merge.h"
#include "model/model_state.h"

namespace lowdiff {

enum class RecordType : std::uint8_t {
  kFullCheckpoint = 1,  ///< model state: params + moments + step (3Ψ + meta)
  kDiffCheckpoint = 2,  ///< one compressed gradient (reused as C^D)
  kBatchedDiff = 3,     ///< batched differential checkpoint C^B
  kNaiveDiff = 4,       ///< Check-N-Run style state differential
  kFullShard = 5,       ///< one rank's slice of a sharded full checkpoint
  kCommitMarker = 6,    ///< manifest commit record: {data_len, data_crc32c}
};

/// Wraps a payload in the framed format.
std::vector<std::byte> frame(RecordType type, std::span<const std::byte> payload);

/// Exact on-disk size of a framed record carrying `payload_len` bytes.
std::size_t framed_size(std::size_t payload_len);

/// Zero-copy framing: writes everything but the CRC into `record` (which
/// must be exactly framed_size(payload_len) for the intended payload) and
/// returns the payload region for the caller to fill in place.  Finish with
/// frame_seal().
std::span<std::byte> frame_prepare(std::span<std::byte> record, RecordType type);

/// Computes the payload CRC and patches it into the header.  Call after the
/// payload region from frame_prepare() has been filled.
void frame_seal(std::span<std::byte> record);

/// A framed record's header fields and a view of its payload.
struct Frame {
  RecordType type{};
  std::uint32_t payload_crc = 0;       ///< as stored; unframe() does not check it
  std::span<const std::byte> payload;  ///< points into the unframed bytes
};

/// Checks magic, version and length, and returns a view into `bytes`
/// without checksumming or copying the payload.  Throws Error on a bad or
/// truncated header.
Frame unframe(std::span<const std::byte> bytes);

/// Full checkpoint ⇄ ModelState.
std::vector<std::byte> serialize_model_state(const ModelState& state);
/// Decodes bytes committed_read() has checked; `spec` must structurally
/// match what was serialized (validated).  Throws Error on a malformed
/// record.
ModelState deserialize_model_state(std::span<const std::byte> bytes,
                                   const ModelSpec& spec);

/// Differential checkpoint ⇄ CompressedGrad.  The decoder, like the batch
/// one below, parses bytes committed_read() has checked.
std::vector<std::byte> serialize_diff(const CompressedGrad& grad);
CompressedGrad deserialize_diff(std::span<const std::byte> bytes);

/// Batched differential checkpoint ⇄ BatchedGrad.
std::vector<std::byte> serialize_batch(const BatchedGrad& batch);
BatchedGrad deserialize_batch(std::span<const std::byte> bytes);

/// Pooled single-pass variants: lease an exactly-sized buffer from `pool`
/// and serialize directly into the framed record (no intermediate payload
/// vector).  The byte stream is identical to the vector-returning forms.
PooledBuffer serialize_model_state(const ModelState& state, BufferPool& pool);
PooledBuffer serialize_diff(const CompressedGrad& grad, BufferPool& pool);
PooledBuffer serialize_batch(const BatchedGrad& batch, BufferPool& pool);

}  // namespace lowdiff
