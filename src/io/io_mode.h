#ifndef OPAQ_IO_IO_MODE_H_
#define OPAQ_IO_IO_MODE_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace opaq {

/// How a run consumer drives the disk. Kept in its own tiny header so that
/// configuration code can name the mode without pulling in the threaded
/// reader machinery (io/run_pipeline.h).
enum class IoMode {
  /// Strict alternation: read run m, then sample run m (the paper's
  /// single-threaded reading loop). Disk idles during selection.
  kSync,
  /// Prefetching: fetch threads (one per device) keep reading ahead while
  /// the consumer samples, overlapping I/O with compute. Byte-identical
  /// results — prefetching reorders time, never data.
  kAsync,
};

/// Upper bound on `ReadOptions::prefetch_depth`: each unit of depth costs a
/// full run of memory, and depths beyond a few only ever absorb compute
/// burstiness, so anything huge is a configuration error (e.g. a negative
/// flag value cast to uint64), not a tuning choice. Enforced both by
/// `OpaqConfig::Validate` and by the `RunPipeline` constructor.
inline constexpr uint64_t kMaxPrefetchDepth = 1024;

/// Upper bound on the stripe count of a striped data file: the striped
/// backend runs one fetch thread per stripe, so anything huge is a
/// configuration error (e.g. a negative flag value cast to uint64), not a
/// real disk array. Enforced by `OpaqConfig::Validate` and by
/// `StripedDataFile`.
inline constexpr uint64_t kMaxStripes = 64;

/// Hard cap on one extent's unpacked byte size in the compressed extent
/// format (io/extent.h): extents are the prefetch and wire-streaming grain,
/// so a huge extent is a configuration error (and an untrusted header
/// claiming one is an attack). Must stay comfortably below the wire
/// protocol's `kMaxWirePayload` (64 MiB) so a stored extent always fits one
/// frame. Enforced by `OpaqConfig::Validate`, `ExtentWriter::Create` and
/// `ExtentFile::Open`.
inline constexpr uint64_t kMaxExtentBytes = 32u << 20;

/// How a `RunProvider` should drive its device(s): the backend-independent
/// subset of OpaqConfig that the io/ layer needs, and the only reader
/// configuration. Every backend reads through one `RunPipeline`, so each
/// knob means the same thing on every backend.
struct ReadOptions {
  uint64_t run_size = 1 << 20;
  /// kSync fetches inline on the consumer's thread; kAsync runs the
  /// backend's fetch threads (one per device) ahead of it.
  IoMode io_mode = IoMode::kSync;
  /// Under kAsync, how many runs' worth of elements the fetch threads may
  /// hold fetched but not yet delivered, summed over all of them (a single
  /// block larger than that is still fetched alone). 1 = classic double
  /// buffering. Ignored under kSync.
  uint64_t prefetch_depth = 1;
  /// Verify per-extent payload CRCs when the backend reads compressed
  /// extents (io/extent.h); uncompressed backends ignore it. Off buys a few
  /// percent of decode throughput at the cost of silent-corruption
  /// detection — structural validation happens regardless.
  bool verify_checksums = true;
};

/// Stable short name ("sync" / "async").
const char* IoModeName(IoMode mode);

/// Parses "sync" / "async" (InvalidArgument otherwise).
Result<IoMode> ParseIoMode(const std::string& name);

}  // namespace opaq

#endif  // OPAQ_IO_IO_MODE_H_
