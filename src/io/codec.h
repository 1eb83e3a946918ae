#ifndef OPAQ_IO_CODEC_H_
#define OPAQ_IO_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace opaq {

/// Codec tags stored in extent headers (io/extent.h). The numeric values are
/// part of the on-disk format — never renumber, only append.
enum class ExtentCodec : uint16_t {
  /// Passthrough: payload bytes stored verbatim. Always available, and the
  /// fallback the writer picks per extent when a configured codec fails to
  /// shrink that extent (incompressible data must never grow on disk).
  kRaw = 0,
  /// Zigzag delta + LEB128 varint over the element words — implemented
  /// in-repo, so compressed files round-trip on every build with zero
  /// external dependencies. Strong on sorted / clustered integer data (the
  /// paper's workloads); lossless on floats too (bit patterns delta as
  /// integers, just with little gain).
  kDelta = 1,
  /// zlib DEFLATE (level 1: this codec exists to trade CPU on the prefetch
  /// threads for disk bandwidth, so encode speed matters more than ratio).
  /// Compiled in only when the build finds zlib; a build without it still
  /// *recognizes* the tag and fails reads with Unimplemented, never a crash.
  kZlib = 2,
};

/// Number of codec tags (bounds the per-codec stat arrays).
inline constexpr size_t kNumExtentCodecs = 3;

/// One compression algorithm, stateless and thread-safe: extent decode runs
/// concurrently on the run pipeline's fetch threads (one per stripe, or the
/// remote client's), so implementations must not keep mutable state across
/// calls.
class Codec {
 public:
  virtual ~Codec() = default;

  virtual ExtentCodec id() const = 0;
  virtual const char* name() const = 0;

  /// Compresses `len` bytes (a whole number of `element_size`-byte elements)
  /// into `out` (assigned, not appended). The output may be LARGER than the
  /// input for incompressible data — the extent writer handles that by
  /// storing such extents raw.
  virtual Status Compress(const uint8_t* data, size_t len,
                          uint32_t element_size,
                          std::vector<uint8_t>* out) const = 0;

  /// Decompresses `len` stored bytes into exactly `out_len` bytes at `out`.
  /// `out_len` comes from trusted geometry, never from stored headers, so a
  /// lying stream is an error here — implementations must fail (without
  /// writing past `out + out_len`) when the input does not decode to exactly
  /// `out_len` bytes.
  virtual Status Decompress(const uint8_t* data, size_t len,
                            uint32_t element_size, uint8_t* out,
                            size_t out_len) const = 0;
};

/// Registry lookup: the codec for `id`, or nullptr when the tag is unknown
/// to this build entirely. A known-but-not-compiled-in codec (zlib without
/// zlib) returns a stub whose Compress/Decompress fail with Unimplemented,
/// so callers can distinguish "corrupt tag" from "rebuild with zlib".
const Codec* GetCodec(ExtentCodec id);

/// True when `id` can both encode and decode in this build.
bool CodecAvailable(ExtentCodec id);

/// Stable short name ("raw" / "delta" / "zlib"); "?" when unknown.
const char* ExtentCodecName(ExtentCodec id);
const char* ExtentCodecName(uint16_t id);

/// Parses a `--compress` flag value ("raw", "delta", "zlib"); InvalidArgument
/// for anything else, Unimplemented for a codec this build cannot encode.
Result<ExtentCodec> ParseExtentCodec(const std::string& name);

}  // namespace opaq

#endif  // OPAQ_IO_CODEC_H_
