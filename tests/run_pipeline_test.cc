// Contract suite of the run pipeline, typed over every block fetcher: plain
// file, stripe chunk, extent, remote range (wire v1), remote extent (wire
// v4) and live-dataset segments. Each backend must deliver exactly the runs
// `RunReader` delivers over the same logical data, in both I/O modes, with
// the same sub-range, EOF, sticky-error and shutdown semantics; one last
// row pins the prefetch budget.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "ingest/live_dataset.h"
#include "io/async_run_reader.h"
#include "io/block_device.h"
#include "io/extent.h"
#include "io/run_pipeline.h"
#include "io/striped_data_file.h"
#include "io/striped_run_source.h"
#include "io/tempdir.h"
#include "net/node_server.h"
#include "net/remote_source.h"

namespace opaq {
namespace {

using Key = uint64_t;
using Runs = std::vector<std::vector<Key>>;

std::vector<Key> Iota(uint64_t n) {
  std::vector<Key> out(n);
  std::iota(out.begin(), out.end(), 1000);
  return out;
}

/// A memory device that counts its reads and can fail every read past a
/// byte offset. Thread-safe: fetch threads and node connection threads may
/// share it.
class ProbeDevice : public BlockDevice {
 public:
  Status ReadAt(uint64_t offset, void* buffer, size_t length) override {
    reads_.fetch_add(1);
    if (offset + length > cut_.load()) {
      return Status::IoError("injected: read past the cut");
    }
    return inner_.ReadAt(offset, buffer, length);
  }
  Status WriteAt(uint64_t offset, const void* buffer,
                 size_t length) override {
    return inner_.WriteAt(offset, buffer, length);
  }
  Result<uint64_t> Size() const override { return inner_.Size(); }
  Status Sync() override { return Status::OK(); }

  void CutAt(uint64_t byte) { cut_.store(byte); }
  uint64_t reads() const { return reads_.load(); }

 private:
  MemoryBlockDevice inner_;
  std::atomic<uint64_t> cut_{UINT64_MAX};
  std::atomic<uint64_t> reads_{0};
};

std::vector<BlockDevice*> Raw(
    const std::vector<std::unique_ptr<ProbeDevice>>& devices) {
  std::vector<BlockDevice*> raw;
  for (const auto& device : devices) raw.push_back(device.get());
  return raw;
}

std::vector<std::unique_ptr<ProbeDevice>> MakeDevices(int count) {
  std::vector<std::unique_ptr<ProbeDevice>> devices;
  for (int i = 0; i < count; ++i) {
    devices.push_back(std::make_unique<ProbeDevice>());
  }
  return devices;
}

/// Byte offset on its stripe where extent `e` of `file` is stored.
uint64_t ExtentOffset(const ExtentFile& file, uint64_t e) {
  uint64_t offset = sizeof(ExtentFileHeader);
  for (uint64_t j = e % file.num_stripes(); j < e; j += file.num_stripes()) {
    offset += file.StoredExtentBytes(j);
  }
  return offset;
}

/// What every backend fixture shares: the logical data, a plain reference
/// file over it, and the reference run stream `RunReader` yields.
class Backend {
 public:
  Backend(std::vector<Key> data, uint64_t block)
      : data_(std::move(data)), block_(block) {
    OPAQ_CHECK_OK(WriteDataset(data_, &reference_device_));
    auto file = TypedDataFile<Key>::Open(&reference_device_);
    OPAQ_CHECK_OK(file.status());
    reference_ = std::make_unique<TypedDataFile<Key>>(std::move(*file));
  }
  virtual ~Backend() = default;

  virtual const RunProvider<Key>& provider() const = 0;

  /// Makes every read of the block starting at `element` (a block
  /// boundary) fail, and possibly the reads after it.
  virtual void BreakAt(uint64_t element) = 0;

  /// `RunReader` runs of `[first, first + count)`, restarting the run grid
  /// at every segment start (one segment, except for live datasets).
  Runs Expected(uint64_t run_size, uint64_t first, uint64_t count) const {
    count = std::min(count, data_.size() - first);
    Runs runs;
    for (uint64_t seg_first : SegmentStarts()) {
      const uint64_t seg_end = NextSegmentStart(seg_first);
      const uint64_t lo = std::max(first, seg_first);
      const uint64_t hi = std::min(first + count, seg_end);
      if (lo >= hi) continue;
      RunReader<Key> reader(reference_.get(), run_size, lo, hi - lo);
      std::vector<Key> run;
      while (*reader.NextRun(&run)) runs.push_back(run);
    }
    return runs;
  }

 protected:
  virtual std::vector<uint64_t> SegmentStarts() const { return {0}; }

  uint64_t NextSegmentStart(uint64_t start) const {
    for (uint64_t s : SegmentStarts()) {
      if (s > start) return s;
    }
    return data_.size();
  }

  std::vector<Key> data_;
  uint64_t block_;
  MemoryBlockDevice reference_device_;
  std::unique_ptr<TypedDataFile<Key>> reference_;
};

class PlainBackend : public Backend {
 public:
  PlainBackend(std::vector<Key> data, uint64_t block)
      : Backend(std::move(data), block) {
    OPAQ_CHECK_OK(WriteDataset(data_, &device_));
    auto file = TypedDataFile<Key>::Open(&device_);
    OPAQ_CHECK_OK(file.status());
    file_ = std::make_unique<TypedDataFile<Key>>(std::move(*file));
    provider_ = std::make_unique<FileRunProvider<Key>>(file_.get());
  }
  const RunProvider<Key>& provider() const override { return *provider_; }
  void BreakAt(uint64_t element) override {
    device_.CutAt(sizeof(DataFileHeader) + element * sizeof(Key));
  }

 private:
  ProbeDevice device_;
  std::unique_ptr<TypedDataFile<Key>> file_;
  std::unique_ptr<FileRunProvider<Key>> provider_;
};

class StripedBackend : public Backend {
 public:
  static constexpr int kStripes = 3;

  StripedBackend(std::vector<Key> data, uint64_t block)
      : Backend(std::move(data), block), devices_(MakeDevices(kStripes)) {
    auto file = WriteStriped(data_, Raw(devices_), block);
    OPAQ_CHECK_OK(file.status());
    file_ = std::make_unique<StripedDataFile<Key>>(std::move(*file));
    provider_ = std::make_unique<StripedFileProvider<Key>>(file_.get());
  }
  const RunProvider<Key>& provider() const override { return *provider_; }
  void BreakAt(uint64_t element) override {
    const uint64_t chunk = element / block_;
    devices_[chunk % kStripes]->CutAt(
        sizeof(StripeFileHeader) + chunk / kStripes * block_ * sizeof(Key));
  }

 private:
  std::vector<std::unique_ptr<ProbeDevice>> devices_;
  std::unique_ptr<StripedDataFile<Key>> file_;
  std::unique_ptr<StripedFileProvider<Key>> provider_;
};

/// An extent file of `data` over `stripes` probe devices.
struct ExtentDisk {
  std::vector<std::unique_ptr<ProbeDevice>> devices;
  std::unique_ptr<ExtentFile> file;

  ExtentDisk(const std::vector<Key>& data, uint64_t block, int stripes)
      : devices(MakeDevices(stripes)) {
    ExtentWriterOptions options;
    options.extent_elements = block;
    options.codec = ExtentCodec::kDelta;
    OPAQ_CHECK_OK(WriteExtents(data, Raw(devices), options).status());
    auto opened = ExtentFile::Open(Raw(devices));
    OPAQ_CHECK_OK(opened.status());
    file = std::make_unique<ExtentFile>(std::move(*opened));
  }

  void BreakAt(uint64_t element) {
    const uint64_t e = element / file->extent_elements();
    devices[e % devices.size()]->CutAt(ExtentOffset(*file, e));
  }
};

class ExtentBackend : public Backend {
 public:
  ExtentBackend(std::vector<Key> data, uint64_t block)
      : Backend(std::move(data), block), disk_(data_, block, 2),
        provider_(disk_.file.get()) {}
  const RunProvider<Key>& provider() const override { return provider_; }
  void BreakAt(uint64_t element) override { disk_.BreakAt(element); }

 private:
  ExtentDisk disk_;
  ExtentFileProvider<Key> provider_;
};

/// A loopback data node serving a plain file read `block` elements per
/// range request.
class RemoteRangeBackend : public Backend {
 public:
  RemoteRangeBackend(std::vector<Key> data, uint64_t block)
      : Backend(std::move(data), block), server_(Options(block)) {
    OPAQ_CHECK_OK(WriteDataset(data_, &device_));
    auto file = TypedDataFile<Key>::Open(&device_);
    OPAQ_CHECK_OK(file.status());
    file_ = std::make_unique<TypedDataFile<Key>>(std::move(*file));
    server_.Export("data", file_.get());
    OPAQ_CHECK_OK(server_.Start());
    auto provider = RemoteRunProvider<Key>::Connect(server_.address() +
                                                    "/data");
    OPAQ_CHECK_OK(provider.status());
    provider_ = std::make_unique<RemoteRunProvider<Key>>(std::move(*provider));
  }
  const RunProvider<Key>& provider() const override { return *provider_; }
  void BreakAt(uint64_t element) override {
    device_.CutAt(sizeof(DataFileHeader) + element * sizeof(Key));
  }

 private:
  static NodeServerOptions Options(uint64_t block) {
    NodeServerOptions options;
    options.max_read_bytes = block * sizeof(Key);
    return options;
  }

  ProbeDevice device_;
  std::unique_ptr<TypedDataFile<Key>> file_;
  NodeServer server_;
  std::unique_ptr<RemoteRunProvider<Key>> provider_;
};

/// A loopback data node shipping stored extents for client-side decode.
class RemoteExtentBackend : public Backend {
 public:
  RemoteExtentBackend(std::vector<Key> data, uint64_t block)
      : Backend(std::move(data), block), disk_(data_, block, 2) {
    server_.Export<Key>("packed", disk_.file.get());
    OPAQ_CHECK_OK(server_.Start());
    auto provider = RemoteRunProvider<Key>::Connect(server_.address() +
                                                    "/packed");
    OPAQ_CHECK_OK(provider.status());
    provider_ = std::make_unique<RemoteRunProvider<Key>>(std::move(*provider));
  }
  const RunProvider<Key>& provider() const override { return *provider_; }
  void BreakAt(uint64_t element) override { disk_.BreakAt(element); }

 private:
  ExtentDisk disk_;
  NodeServer server_;
  std::unique_ptr<RemoteRunProvider<Key>> provider_;
};

/// A live dataset of three segments — plain, extent-packed, plain — so the
/// run grid restarts twice and both segment fetchers take part.
class LiveBackend : public Backend {
 public:
  LiveBackend(std::vector<Key> data, uint64_t block)
      : Backend(std::move(data), block) {
    auto dir = TempDir::Make("run_pipeline_live");
    OPAQ_CHECK_OK(dir.status());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
    const std::string path = dir_->FilePath("live");
    const std::vector<uint64_t> starts = SegmentStarts();
    for (size_t i = 0; i < starts.size(); ++i) {
      LiveDatasetOptions options;
      options.durable_sync = false;
      options.pack = i == 1;
      options.extent_elements = block;
      auto live = LiveDataset<Key>::OpenOrCreate(path, options);
      OPAQ_CHECK_OK(live.status());
      const uint64_t end = NextSegmentStart(starts[i]);
      OPAQ_CHECK_OK(live->Append(std::vector<Key>(
          data_.begin() + starts[i], data_.begin() + end)));
    }
    auto reader = LiveDatasetReader<Key>::Open(path);
    OPAQ_CHECK_OK(reader.status());
    reader_ = std::make_unique<LiveDatasetReader<Key>>(std::move(*reader));
  }
  const RunProvider<Key>& provider() const override { return *reader_; }

  /// Truncates the last (plain) segment's file under the open reader.
  void BreakAt(uint64_t element) override {
    const uint64_t last = SegmentStarts().back();
    OPAQ_CHECK_GE(element, last);
    std::filesystem::resize_file(
        dir_->FilePath("live") + "/" + LiveSegmentFileName(3),
        sizeof(DataFileHeader) + (element - last) * sizeof(Key));
  }

 protected:
  std::vector<uint64_t> SegmentStarts() const override {
    return {0, data_.size() / 4, data_.size() / 2};
  }

 private:
  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<LiveDatasetReader<Key>> reader_;
};

struct Drained {
  Runs runs;
  Status status;
};

/// Reads runs until EOF or the first error.
Drained Drain(RunSource<Key>* source) {
  Drained out;
  std::vector<Key> run;
  while (true) {
    auto more = source->NextRun(&run);
    if (!more.ok()) {
      out.status = more.status();
      return out;
    }
    if (!*more) return out;
    out.runs.push_back(run);
  }
}

ReadOptions Options(uint64_t run_size, IoMode mode, uint64_t depth = 1) {
  ReadOptions options;
  options.run_size = run_size;
  options.io_mode = mode;
  options.prefetch_depth = depth;
  return options;
}

constexpr uint64_t kN = 1009;  // prime: every geometry below is ragged

template <typename B>
class RunPipelineContractTest : public ::testing::Test {};

using Backends = ::testing::Types<PlainBackend, StripedBackend, ExtentBackend,
                                  RemoteRangeBackend, RemoteExtentBackend,
                                  LiveBackend>;
TYPED_TEST_SUITE(RunPipelineContractTest, Backends);

TYPED_TEST(RunPipelineContractTest, RunOrderMatchesRunReader) {
  for (uint64_t block : {7u, 64u, 1000u}) {
    TypeParam backend(Iota(kN), block);
    for (uint64_t run_size : {5u, 64u, 100u, 2000u}) {
      const Runs expected = backend.Expected(run_size, 0, UINT64_MAX);
      for (IoMode mode : {IoMode::kSync, IoMode::kAsync}) {
        for (uint64_t depth : {1u, 3u}) {
          SCOPED_TRACE("block=" + std::to_string(block) + " run=" +
                       std::to_string(run_size) + " " + IoModeName(mode) +
                       " depth=" + std::to_string(depth));
          auto source =
              backend.provider().OpenRuns(Options(run_size, mode, depth));
          Drained got = Drain(source.get());
          ASSERT_TRUE(got.status.ok()) << got.status.ToString();
          EXPECT_EQ(got.runs, expected);
        }
      }
    }
  }
}

TYPED_TEST(RunPipelineContractTest, SubRangesClipBlocksAtBothEnds) {
  const uint64_t block = 16;
  TypeParam backend(Iota(kN), block);
  struct Range {
    uint64_t first, count;
  };
  // Ranges clipping blocks at both ends, empty ones, one past the end, and
  // one across the live segment boundary at kN / 4.
  const Range kRanges[] = {{0, kN},          {5, 40},
                           {block - 1, block + 2},
                           {block, block},   {kN - 3, 3},
                           {kN, 0},          {100, 0},
                           {47, UINT64_MAX}, {kN / 4 - 3, 300}};
  for (const Range& r : kRanges) {
    for (IoMode mode : {IoMode::kSync, IoMode::kAsync}) {
      SCOPED_TRACE("[" + std::to_string(r.first) + ", +" +
                   std::to_string(r.count) + ") " + IoModeName(mode));
      auto source =
          backend.provider().OpenRuns(Options(7, mode), r.first, r.count);
      Drained got = Drain(source.get());
      ASSERT_TRUE(got.status.ok()) << got.status.ToString();
      EXPECT_EQ(got.runs, backend.Expected(7, r.first, r.count));
    }
  }
}

TYPED_TEST(RunPipelineContractTest, ExhaustedStreamKeepsReportingEof) {
  TypeParam backend(Iota(kN), 64);
  for (IoMode mode : {IoMode::kSync, IoMode::kAsync}) {
    auto source = backend.provider().OpenRuns(Options(100, mode));
    ASSERT_TRUE(Drain(source.get()).status.ok());
    std::vector<Key> run(3, 7);
    for (int i = 0; i < 3; ++i) {
      auto more = source->NextRun(&run);
      ASSERT_TRUE(more.ok()) << IoModeName(mode);
      EXPECT_FALSE(*more) << IoModeName(mode);
      EXPECT_TRUE(run.empty()) << IoModeName(mode);
    }
  }
}

TYPED_TEST(RunPipelineContractTest, FirstErrorIsStickyAfterTheIntactRuns) {
  // The block at element 768 fails; every run that ends at or before it
  // arrives intact first, then the failure repeats on every call.
  const uint64_t block = 16;
  const uint64_t broken = 48 * block;
  for (IoMode mode : {IoMode::kSync, IoMode::kAsync}) {
    for (uint64_t run_size : {50u, 64u, 2000u}) {
      SCOPED_TRACE(std::string(IoModeName(mode)) + " run=" +
                   std::to_string(run_size));
      TypeParam backend(Iota(kN), block);
      Runs intact;
      uint64_t end = 0;
      for (const auto& run : backend.Expected(run_size, 0, UINT64_MAX)) {
        end += run.size();
        if (end > broken) break;
        intact.push_back(run);
      }
      backend.BreakAt(broken);
      auto source = backend.provider().OpenRuns(Options(run_size, mode, 2));
      Drained got = Drain(source.get());
      EXPECT_FALSE(got.status.ok());
      EXPECT_EQ(got.runs, intact);
      std::vector<Key> run(3, 7);
      for (int i = 0; i < 3; ++i) {
        auto again = source->NextRun(&run);
        ASSERT_FALSE(again.ok());
        EXPECT_EQ(again.status().code(), got.status.code());
        EXPECT_TRUE(run.empty());
      }
    }
  }
}

TYPED_TEST(RunPipelineContractTest, AbandonedMidStreamJoinsCleanly) {
  // Dropping the pipeline with the budget full and fetch threads blocked
  // must cancel, close and join everything (ASan/TSan gate leaks).
  TypeParam backend(Iota(kN), 8);
  for (uint64_t depth : {uint64_t{1}, uint64_t{4}, kMaxPrefetchDepth}) {
    for (int taken : {0, 1}) {
      auto source =
          backend.provider().OpenRuns(Options(32, IoMode::kAsync, depth));
      std::vector<Key> run;
      if (taken == 1) {
        auto more = source->NextRun(&run);
        ASSERT_TRUE(more.ok());
        EXPECT_TRUE(*more);
      }
    }
  }
}

TYPED_TEST(RunPipelineContractTest, BudgetLargerThanTheBlockCount) {
  // 64 runs of budget over a dataset of a few blocks: everything is
  // fetched ahead at once, and still delivered in order.
  TypeParam backend(Iota(kN), 500);
  auto source =
      backend.provider().OpenRuns(Options(100, IoMode::kAsync, 64));
  Drained got = Drain(source.get());
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  EXPECT_EQ(got.runs, backend.Expected(100, 0, UINT64_MAX));
}

TYPED_TEST(RunPipelineContractTest, SyncAndAsyncDeliverTheSameRuns) {
  // Sync mode ignores the depth: 0 (an unset flag) must not abort.
  TypeParam backend(Iota(kN), 33);
  for (uint64_t run_size : {10u, 33u, 99u}) {
    auto sync = backend.provider().OpenRuns(
        Options(run_size, IoMode::kSync, /*depth=*/0), 17, 900);
    auto async = backend.provider().OpenRuns(
        Options(run_size, IoMode::kAsync, 2), 17, 900);
    Drained a = Drain(sync.get());
    Drained b = Drain(async.get());
    ASSERT_TRUE(a.status.ok() && b.status.ok());
    EXPECT_EQ(a.runs, b.runs) << "run=" << run_size;
    EXPECT_FALSE(a.runs.empty());
  }
}

TEST(RunPipelineBudgetTest, ExtentStreamReadsOneRunAheadAtDefaultDepth) {
  // Runs of 8 extents. Once the consumer has taken run 0 and stopped, the
  // fetch thread must read exactly one run of extents ahead: the 8 of run 1
  // — never fewer (the old unit stopped after 2 extents) and never more
  // than `prefetch_depth * run_size` elements.
  constexpr uint64_t kExtent = 16;
  constexpr uint64_t kRun = 8 * kExtent;
  ExtentDisk disk(Iota(64 * kExtent), kExtent, 1);
  const uint64_t opened = disk.devices[0]->reads();
  ReadOptions options;
  options.run_size = kRun;
  options.io_mode = IoMode::kAsync;
  ASSERT_EQ(options.prefetch_depth, 1u) << "the default budget is one run";
  auto source = ExtentFileProvider<Key>(disk.file.get()).OpenRuns(options);
  std::vector<Key> run;
  auto more = source->NextRun(&run);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(*more);

  // Wait until the fetch thread has read at least the expected extents and
  // the count has then stopped changing.
  const uint64_t expected = 2 * kRun / kExtent;
  auto fetched = [&] { return disk.devices[0]->reads() - opened; };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  uint64_t last = fetched();
  int unchanged = 0;
  while (unchanged < 20 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const uint64_t now = fetched();
    unchanged = now == last && now >= expected ? unchanged + 1 : 0;
    last = now;
  }
  EXPECT_EQ(fetched(), expected);
}

}  // namespace
}  // namespace opaq
