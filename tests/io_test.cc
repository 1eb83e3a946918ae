// Unit tests for src/io: block devices, throttling, data files, run readers.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <numeric>

#include "io/block_device.h"
#include "io/data_file.h"
#include "io/run_reader.h"
#include "io/tempdir.h"
#include "io/throttled_device.h"
#include "util/timer.h"

namespace opaq {
namespace {

// ---------------------------------------------------------------- Devices --

TEST(MemoryBlockDeviceTest, WriteThenReadRoundTrips) {
  MemoryBlockDevice dev;
  const char data[] = "hello, disk";
  ASSERT_TRUE(dev.WriteAt(0, data, sizeof(data)).ok());
  char buf[sizeof(data)] = {0};
  ASSERT_TRUE(dev.ReadAt(0, buf, sizeof(data)).ok());
  EXPECT_STREQ(buf, "hello, disk");
}

TEST(MemoryBlockDeviceTest, WriteExtendsSize) {
  MemoryBlockDevice dev;
  uint64_t x = 42;
  ASSERT_TRUE(dev.WriteAt(100, &x, sizeof(x)).ok());
  auto size = dev.Size();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 108u);
}

TEST(MemoryBlockDeviceTest, ReadPastEndFails) {
  MemoryBlockDevice dev;
  uint64_t x = 1;
  ASSERT_TRUE(dev.WriteAt(0, &x, sizeof(x)).ok());
  char buf[16];
  Status s = dev.ReadAt(4, buf, 16);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

TEST(MemoryBlockDeviceTest, CountsStats) {
  MemoryBlockDevice dev;
  uint64_t x = 7;
  ASSERT_TRUE(dev.WriteAt(0, &x, 8).ok());
  ASSERT_TRUE(dev.WriteAt(8, &x, 8).ok());
  ASSERT_TRUE(dev.ReadAt(0, &x, 8).ok());
  EXPECT_EQ(dev.stats().write_requests.load(), 2u);
  EXPECT_EQ(dev.stats().bytes_written.load(), 16u);
  EXPECT_EQ(dev.stats().read_requests.load(), 1u);
  EXPECT_EQ(dev.stats().bytes_read.load(), 8u);
}

TEST(FileBlockDeviceTest, CreateWriteReadReopen) {
  auto dir = TempDir::Make();
  ASSERT_TRUE(dir.ok());
  const std::string path = dir->FilePath("dev.bin");
  {
    auto dev = FileBlockDevice::Make(path, FileBlockDevice::Mode::kCreate);
    ASSERT_TRUE(dev.ok());
    int values[4] = {1, 2, 3, 4};
    ASSERT_TRUE((*dev)->WriteAt(0, values, sizeof(values)).ok());
    ASSERT_TRUE((*dev)->Sync().ok());
  }
  {
    auto dev = FileBlockDevice::Make(path, FileBlockDevice::Mode::kOpen);
    ASSERT_TRUE(dev.ok());
    int values[4] = {0};
    ASSERT_TRUE((*dev)->ReadAt(0, values, sizeof(values)).ok());
    EXPECT_EQ(values[0], 1);
    EXPECT_EQ(values[3], 4);
    auto size = (*dev)->Size();
    ASSERT_TRUE(size.ok());
    EXPECT_EQ(*size, sizeof(values));
  }
}

TEST(FileBlockDeviceTest, OpenMissingFileFails) {
  auto dev = FileBlockDevice::Make("/nonexistent/nope.bin",
                                   FileBlockDevice::Mode::kOpen);
  ASSERT_FALSE(dev.ok());
  EXPECT_EQ(dev.status().code(), StatusCode::kIoError);
}

TEST(FileBlockDeviceTest, ReadPastEndFails) {
  auto dir = TempDir::Make();
  ASSERT_TRUE(dir.ok());
  auto dev = FileBlockDevice::Make(dir->FilePath("s.bin"),
                                   FileBlockDevice::Mode::kCreate);
  ASSERT_TRUE(dev.ok());
  char c = 'x';
  ASSERT_TRUE((*dev)->WriteAt(0, &c, 1).ok());
  char buf[8];
  EXPECT_EQ((*dev)->ReadAt(0, buf, 8).code(), StatusCode::kOutOfRange);
}

// ------------------------------------------------------------- Throttling --

TEST(ThrottledDeviceTest, AccountModeChargesModelTime) {
  DiskModel model;
  model.bandwidth_bytes_per_second = 1024 * 1024;  // 1 MB/s
  model.latency_seconds = 0.001;
  ThrottledDevice dev(std::make_unique<MemoryBlockDevice>(), model,
                      ThrottledDevice::Mode::kAccount);
  std::vector<uint8_t> buf(1024 * 1024, 0xAB);
  ASSERT_TRUE(dev.WriteAt(0, buf.data(), buf.size()).ok());
  ASSERT_TRUE(dev.ReadAt(0, buf.data(), buf.size()).ok());
  // Two requests of 1MB at 1MB/s: ~2.002s modeled, ~0 wall.
  EXPECT_NEAR(dev.modeled_seconds(), 2.002, 0.01);
}

TEST(ThrottledDeviceTest, SleepModeActuallyDelays) {
  DiskModel model;
  model.bandwidth_bytes_per_second = 10.0 * 1024 * 1024;
  model.latency_seconds = 0;
  ThrottledDevice dev(std::make_unique<MemoryBlockDevice>(), model,
                      ThrottledDevice::Mode::kSleep);
  std::vector<uint8_t> buf(1024 * 1024, 1);
  WallTimer t;
  ASSERT_TRUE(dev.WriteAt(0, buf.data(), buf.size()).ok());
  // 1MB at 10MB/s = 100ms.
  EXPECT_GE(t.ElapsedSeconds(), 0.08);
}

TEST(ThrottledDeviceTest, ForwardsErrors) {
  DiskModel model;
  ThrottledDevice dev(std::make_unique<MemoryBlockDevice>(), model,
                      ThrottledDevice::Mode::kAccount);
  char buf[8];
  EXPECT_FALSE(dev.ReadAt(0, buf, 8).ok());
}

// -------------------------------------------------------------- DataFile --

TEST(DataFileTest, CreateAndReadBackTyped) {
  MemoryBlockDevice dev;
  std::vector<uint64_t> values(1000);
  std::iota(values.begin(), values.end(), 0);
  auto file = TypedDataFile<uint64_t>::Create(&dev, values.size());
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Write(0, values).ok());

  auto reopened = TypedDataFile<uint64_t>::Open(&dev);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->size(), 1000u);
  auto all = reopened->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, values);
}

TEST(DataFileTest, RejectsWrongKeyType) {
  MemoryBlockDevice dev;
  auto file = TypedDataFile<uint64_t>::Create(&dev, 0);
  ASSERT_TRUE(file.ok());
  auto wrong = TypedDataFile<double>::Open(&dev);
  EXPECT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
}

TEST(DataFileTest, RejectsElementSizeThatDisagreesWithKeyType) {
  // An f32-tagged header claiming 8-byte elements: a typed read would copy
  // 8 bytes per element into 4-byte keys, so the typed open refuses it.
  MemoryBlockDevice dev;
  auto file = DataFile::Create(&dev, KeyType::kF32, 8, 0);
  ASSERT_TRUE(file.ok());
  auto wrong = TypedDataFile<float>::Open(&dev);
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);
}

TEST(DataFileTest, RejectsGarbageHeader) {
  MemoryBlockDevice dev;
  std::vector<uint8_t> junk(64, 0xFF);
  ASSERT_TRUE(dev.WriteAt(0, junk.data(), junk.size()).ok());
  auto file = DataFile::Open(&dev);
  EXPECT_FALSE(file.ok());
}

TEST(DataFileTest, RejectsTruncatedFile) {
  MemoryBlockDevice dev;
  {
    auto file = TypedDataFile<uint64_t>::Create(&dev, 100);
    ASSERT_TRUE(file.ok());
    // Claim 100 elements but write none: Open must notice.
  }
  auto reopened = DataFile::Open(&dev);
  EXPECT_FALSE(reopened.ok());
}

TEST(DataFileTest, RejectsTooSmallDevice) {
  MemoryBlockDevice dev;
  char c = 1;
  ASSERT_TRUE(dev.WriteAt(0, &c, 1).ok());
  EXPECT_FALSE(DataFile::Open(&dev).ok());
}

TEST(DataFileTest, AppendGrowsCount) {
  MemoryBlockDevice dev;
  auto file = TypedDataFile<uint32_t>::Create(&dev, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Append({1, 2, 3}).ok());
  ASSERT_TRUE(file->Append({4, 5}).ok());
  EXPECT_EQ(file->size(), 5u);
  auto all = file->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, (std::vector<uint32_t>{1, 2, 3, 4, 5}));
}

TEST(DataFileTest, ElementReadPastEndFails) {
  MemoryBlockDevice dev;
  auto file = TypedDataFile<uint32_t>::Create(&dev, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Append({1, 2, 3}).ok());
  uint32_t buf[4];
  EXPECT_EQ(file->Read(1, 3, buf).code(), StatusCode::kOutOfRange);
}

TEST(DataFileTest, FloatKeysRoundTrip) {
  MemoryBlockDevice dev;
  auto file = TypedDataFile<double>::Create(&dev, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Append({0.5, -1.25, 3.75}).ok());
  auto all = file->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, (std::vector<double>{0.5, -1.25, 3.75}));
}

// ------------------------------------------------------------- RunReader --

TEST(RunReaderTest, SplitsIntoExactRuns) {
  MemoryBlockDevice dev;
  std::vector<uint64_t> values(100);
  std::iota(values.begin(), values.end(), 0);
  auto file = TypedDataFile<uint64_t>::Create(&dev, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Append(values).ok());

  RunReader<uint64_t> reader(&*file, 25);
  EXPECT_EQ(reader.num_runs(), 4u);
  std::vector<uint64_t> buffer;
  int runs = 0;
  uint64_t next_expected = 0;
  while (true) {
    auto more = reader.NextRun(&buffer);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    EXPECT_EQ(buffer.size(), 25u);
    for (uint64_t v : buffer) EXPECT_EQ(v, next_expected++);
    ++runs;
  }
  EXPECT_EQ(runs, 4);
  EXPECT_EQ(next_expected, 100u);
}

TEST(RunReaderTest, ShortTailRun) {
  MemoryBlockDevice dev;
  std::vector<uint64_t> values(10);
  std::iota(values.begin(), values.end(), 0);
  auto file = TypedDataFile<uint64_t>::Create(&dev, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Append(values).ok());

  RunReader<uint64_t> reader(&*file, 4);
  EXPECT_EQ(reader.num_runs(), 3u);
  std::vector<uint64_t> buffer;
  std::vector<size_t> lengths;
  while (true) {
    auto more = reader.NextRun(&buffer);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    lengths.push_back(buffer.size());
  }
  EXPECT_EQ(lengths, (std::vector<size_t>{4, 4, 2}));
}

TEST(RunReaderTest, SubRangeReading) {
  MemoryBlockDevice dev;
  std::vector<uint64_t> values(100);
  std::iota(values.begin(), values.end(), 0);
  auto file = TypedDataFile<uint64_t>::Create(&dev, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Append(values).ok());

  // Read only elements [30, 70) as runs of 20.
  RunReader<uint64_t> reader(&*file, 20, 30, 40);
  std::vector<uint64_t> buffer;
  std::vector<uint64_t> seen;
  while (true) {
    auto more = reader.NextRun(&buffer);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    seen.insert(seen.end(), buffer.begin(), buffer.end());
  }
  ASSERT_EQ(seen.size(), 40u);
  EXPECT_EQ(seen.front(), 30u);
  EXPECT_EQ(seen.back(), 69u);
}

TEST(RunReaderTest, SubRangePartitionBoundaryMidRun) {
  // A partition whose boundary falls mid-run: the last run must be cut
  // short at the boundary, reading exactly `count` elements — never into
  // the neighbor's partition. Device byte accounting proves no over-read.
  MemoryBlockDevice dev;
  std::vector<uint64_t> values(100);
  std::iota(values.begin(), values.end(), 0);
  auto file = TypedDataFile<uint64_t>::Create(&dev, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Append(values).ok());

  // Partition [40, 65) as runs of 16: 16 + 9, boundary mid-second-run.
  RunReader<uint64_t> reader(&*file, 16, 40, 25);
  EXPECT_EQ(reader.num_runs(), 2u);
  EXPECT_EQ(reader.remaining(), 25u);
  const uint64_t bytes_before = dev.stats().bytes_read.load();
  std::vector<uint64_t> buffer;
  std::vector<size_t> lengths;
  std::vector<uint64_t> seen;
  while (true) {
    auto more = reader.NextRun(&buffer);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    lengths.push_back(buffer.size());
    seen.insert(seen.end(), buffer.begin(), buffer.end());
  }
  EXPECT_EQ(lengths, (std::vector<size_t>{16, 9}));
  ASSERT_EQ(seen.size(), 25u);
  EXPECT_EQ(seen.front(), 40u);
  EXPECT_EQ(seen.back(), 64u);  // stops before the neighbor's element 65
  EXPECT_EQ(dev.stats().bytes_read.load() - bytes_before,
            25u * sizeof(uint64_t));
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(RunReaderTest, SubRangeHugeCountClampsToEof) {
  // Regression: a large (non-sentinel) count used to be added to `first`
  // and wrap around uint64, putting the partition end *before* its start —
  // remaining() underflowed and the partition read nothing. Any oversized
  // count must mean "to end of file".
  MemoryBlockDevice dev;
  std::vector<uint64_t> values(100);
  std::iota(values.begin(), values.end(), 0);
  auto file = TypedDataFile<uint64_t>::Create(&dev, 0);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Append(values).ok());

  RunReader<uint64_t> reader(&*file, 32, 90, UINT64_MAX - 5);
  EXPECT_EQ(reader.remaining(), 10u);
  EXPECT_EQ(reader.num_runs(), 1u);
  std::vector<uint64_t> buffer;
  auto more = reader.NextRun(&buffer);
  ASSERT_TRUE(more.ok());
  ASSERT_TRUE(*more);
  EXPECT_EQ(buffer.size(), 10u);
  EXPECT_EQ(buffer.front(), 90u);
  EXPECT_EQ(buffer.back(), 99u);
  auto end = reader.NextRun(&buffer);
  ASSERT_TRUE(end.ok());
  EXPECT_FALSE(*end);
}

TEST(RunReaderTest, EmptyFileYieldsNoRuns) {
  MemoryBlockDevice dev;
  auto file = TypedDataFile<uint64_t>::Create(&dev, 0);
  ASSERT_TRUE(file.ok());
  RunReader<uint64_t> reader(&*file, 10);
  EXPECT_EQ(reader.num_runs(), 0u);
  std::vector<uint64_t> buffer;
  auto more = reader.NextRun(&buffer);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
}

// --------------------------------------------------------------- TempDir --

TEST(TempDirTest, CreatesAndRemoves) {
  std::string path;
  {
    auto dir = TempDir::Make("opaqtest");
    ASSERT_TRUE(dir.ok());
    path = dir->path();
    EXPECT_TRUE(std::filesystem::exists(path));
    // Touch a file inside to verify recursive removal.
    auto dev = FileBlockDevice::Make(dir->FilePath("f.bin"),
                                     FileBlockDevice::Mode::kCreate);
    ASSERT_TRUE(dev.ok());
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(TempDirTest, MoveTransfersOwnership) {
  auto dir = TempDir::Make();
  ASSERT_TRUE(dir.ok());
  std::string path = dir->path();
  TempDir moved = std::move(*dir);
  EXPECT_EQ(moved.path(), path);
  EXPECT_TRUE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace opaq
