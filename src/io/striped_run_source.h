#ifndef OPAQ_IO_STRIPED_RUN_SOURCE_H_
#define OPAQ_IO_STRIPED_RUN_SOURCE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "io/run_pipeline.h"
#include "io/run_reader.h"
#include "io/striped_data_file.h"
#include "util/status.h"

namespace opaq {

/// Positioned reads of a striped file: a fetch never leaves its chunk, so
/// it is one read on the chunk's stripe.
template <typename K>
class StripeBlockFetcher : public BlockFetcher<K> {
 public:
  explicit StripeBlockFetcher(const StripedDataFile<K>* file) : file_(file) {}

  Status Fetch(uint64_t first, uint64_t count, K* out) override {
    return file_->Read(first, count, out);
  }

 private:
  const StripedDataFile<K>* file_;
};

/// The striped storage backend as a `RunProvider`. The chunk is the block,
/// so under `IoMode::kAsync` fetch thread s reads only the chunks of stripe
/// s and all D devices stay busy; under `IoMode::kSync` chunks are read
/// inline, straight into the run.
template <typename K>
class StripedFileProvider : public RunProvider<K> {
 public:
  explicit StripedFileProvider(const StripedDataFile<K>* file) : file_(file) {
    OPAQ_CHECK(file != nullptr);
  }

  uint64_t size() const override { return file_->size(); }

  std::unique_ptr<RunSource<K>> OpenRuns(
      const ReadOptions& options, uint64_t first = 0,
      uint64_t count = UINT64_MAX) const override {
    BlockSpan<K> span;
    span.first = first;
    span.count = ClampCount(file_->size(), first, count);
    span.block = file_->chunk_elements();
    const StripedDataFile<K>* file = file_;
    span.open = [file]() -> FetcherOrError<K> {
      return std::unique_ptr<BlockFetcher<K>>(new StripeBlockFetcher<K>(file));
    };
    return std::make_unique<RunPipeline<K>>(
        std::vector<BlockSpan<K>>{std::move(span)}, options,
        file_->num_stripes());
  }

  const StripedDataFile<K>* file() const { return file_; }

 private:
  const StripedDataFile<K>* file_;
};

}  // namespace opaq

#endif  // OPAQ_IO_STRIPED_RUN_SOURCE_H_
