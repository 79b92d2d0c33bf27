#pragma once

/// \file crc32.h
/// CRC32C (Castagnoli) used to frame checkpoint files.
///
/// Checkpoints written by the storage subsystem carry a CRC so that the
/// recovery path can detect torn or corrupted writes — a real failure mode
/// the paper's recovery process must survive.
///
/// The default entry point dispatches at load time to the hardware CRC32C
/// instructions when the CPU has them (SSE4.2 `crc32` on x86-64, the ARMv8
/// CRC extension on aarch64) and falls back to a slice-by-8 software kernel
/// otherwise.  All kernels compute the identical function — dispatch never
/// changes a checksum.

#include <cstddef>
#include <cstdint>

namespace lowdiff {

/// Incrementally updates a CRC32C over a byte range.
/// Start with crc = 0; feed successive chunks, reusing the returned value.
/// Dispatches to the hardware kernel when available.
std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t len);

/// One-shot convenience over a whole buffer.
inline std::uint32_t crc32c(const void* data, std::size_t len) {
  return crc32c(0, data, len);
}

/// Portable slice-by-8 software kernel (always available; the dispatch
/// fallback).  Exposed so tests and benches can pin hardware ≡ software.
std::uint32_t crc32c_sw(std::uint32_t crc, const void* data, std::size_t len);

/// True when crc32c() resolves to a hardware instruction kernel.
bool crc32c_hardware_available();

namespace detail {
/// Hardware kernel + support probe, defined in crc32_hw.cpp (compiled with
/// the ISA flags for the kernel only; callers must check support first).
std::uint32_t crc32c_hw(std::uint32_t crc, const void* data, std::size_t len);
bool crc32c_hw_supported();
}  // namespace detail

}  // namespace lowdiff
