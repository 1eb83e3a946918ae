#ifndef OPAQ_IO_ASYNC_RUN_READER_H_
#define OPAQ_IO_ASYNC_RUN_READER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "io/data_file.h"
#include "io/run_pipeline.h"
#include "io/run_reader.h"
#include "util/status.h"

namespace opaq {

/// Positioned reads of one plain data file: every fetch is one device read.
template <typename K>
class FileBlockFetcher : public BlockFetcher<K> {
 public:
  explicit FileBlockFetcher(const TypedDataFile<K>* file) : file_(file) {}

  Status Fetch(uint64_t first, uint64_t count, K* out) override {
    return file_->Read(first, count, out);
  }

 private:
  const TypedDataFile<K>* file_;
};

/// `[first, first + count)` of a plain file as a pipeline span (clamped
/// with the `RunReader` sub-range contract). With no block grid, each fetch
/// is one whole run.
template <typename K>
BlockSpan<K> FileSpan(const TypedDataFile<K>* file, uint64_t first,
                      uint64_t count) {
  BlockSpan<K> span;
  span.first = first;
  span.count = ClampCount(file->size(), first, count);
  span.open = [file]() -> FetcherOrError<K> {
    return std::unique_ptr<BlockFetcher<K>>(new FileBlockFetcher<K>(file));
  };
  return span;
}

/// The plain single-device storage backend as a `RunProvider`. Under
/// `IoMode::kAsync` one fetch thread reads whole runs ahead: at the default
/// `prefetch_depth` of 1 that is classic double buffering. The file is
/// borrowed and must outlive the provider and every `RunSource` it opened.
template <typename K>
class FileRunProvider : public RunProvider<K> {
 public:
  explicit FileRunProvider(const TypedDataFile<K>* file) : file_(file) {
    OPAQ_CHECK(file != nullptr);
  }

  uint64_t size() const override { return file_->size(); }

  std::unique_ptr<RunSource<K>> OpenRuns(
      const ReadOptions& options, uint64_t first = 0,
      uint64_t count = UINT64_MAX) const override {
    return std::make_unique<RunPipeline<K>>(
        std::vector<BlockSpan<K>>{FileSpan(file_, first, count)}, options);
  }

  const TypedDataFile<K>* file() const { return file_; }

 private:
  const TypedDataFile<K>* file_;
};

}  // namespace opaq

#endif  // OPAQ_IO_ASYNC_RUN_READER_H_
