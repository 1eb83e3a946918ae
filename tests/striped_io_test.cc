// Unit tests for the striped multi-disk storage backend: chunk geometry,
// header validation at Open, scatter/gather reads and writes, and the
// striped run source's ordering contract (threaded and inline modes).

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "data/dataset.h"
#include "io/block_device.h"
#include "io/striped_data_file.h"
#include "io/tempdir.h"

namespace opaq {
namespace {

using Key = uint64_t;

// A striped file over fresh memory devices, kept alive together.
struct MemoryStripes {
  std::vector<std::unique_ptr<MemoryBlockDevice>> devices;
  Result<StripedDataFile<Key>> file = Status::Internal("unset");

  MemoryStripes(const std::vector<Key>& data, int stripes,
                uint64_t chunk_elements) {
    std::vector<BlockDevice*> raw;
    for (int s = 0; s < stripes; ++s) {
      devices.push_back(std::make_unique<MemoryBlockDevice>());
      raw.push_back(devices.back().get());
    }
    file = WriteStriped(data, raw, chunk_elements);
  }

  std::vector<BlockDevice*> raw() const {
    std::vector<BlockDevice*> out;
    for (const auto& device : devices) out.push_back(device.get());
    return out;
  }
};

std::vector<Key> Iota(uint64_t n) {
  std::vector<Key> out(n);
  std::iota(out.begin(), out.end(), 0);
  return out;
}

TEST(StripedDataFileTest, RoundTripsAcrossGeometries) {
  struct Case {
    uint64_t n;
    int stripes;
    uint64_t chunk;
  };
  const Case kCases[] = {
      {0, 2, 8},     // empty dataset
      {1, 4, 8},     // single element
      {64, 1, 8},    // degenerate single stripe
      {64, 2, 8},    // chunks divide evenly
      {100, 3, 7},   // ragged final chunk, uneven stripes
      {99, 4, 100},  // one partial chunk smaller than the chunk size
      {1000, 4, 1},  // element-granular striping
  };
  for (const Case& c : kCases) {
    std::vector<Key> data = Iota(c.n);
    MemoryStripes stripes(data, c.stripes, c.chunk);
    ASSERT_TRUE(stripes.file.ok())
        << stripes.file.status().ToString() << " n=" << c.n;
    EXPECT_EQ(stripes.file->size(), c.n);
    EXPECT_EQ(stripes.file->num_stripes(), static_cast<uint32_t>(c.stripes));
    auto all = stripes.file->ReadAll();
    ASSERT_TRUE(all.ok()) << "n=" << c.n;
    EXPECT_EQ(*all, data) << "n=" << c.n << " stripes=" << c.stripes
                          << " chunk=" << c.chunk;
  }
}

TEST(StripedDataFileTest, PlacesChunksRoundRobin) {
  // 6 chunks of 4 elements over 3 stripes: stripe s must hold chunks s and
  // s+3 back to back after its header.
  std::vector<Key> data = Iota(24);
  MemoryStripes stripes(data, 3, 4);
  ASSERT_TRUE(stripes.file.ok());
  for (uint32_t s = 0; s < 3; ++s) {
    std::vector<Key> on_stripe(8);
    ASSERT_TRUE(stripes.devices[s]
                    ->ReadAt(sizeof(StripeFileHeader), on_stripe.data(),
                             8 * sizeof(Key))
                    .ok());
    std::vector<Key> expected;
    for (uint64_t c : {uint64_t{s}, uint64_t{s} + 3}) {
      for (uint64_t i = 0; i < 4; ++i) expected.push_back(c * 4 + i);
    }
    EXPECT_EQ(on_stripe, expected) << "stripe " << s;
  }
  EXPECT_EQ(stripes.file->StripeElements(0), 8u);
}

TEST(StripedDataFileTest, StripeElementsMatchesBruteForce) {
  // Open() trusts the closed-form StripeElements for its truncation check;
  // pin it against the per-chunk walk across ragged geometries.
  for (uint64_t n : {0u, 1u, 7u, 99u, 100u, 1000u}) {
    for (int stripes : {1, 2, 3, 5}) {
      for (uint64_t chunk : {1u, 7u, 10u, 128u}) {
        MemoryStripes striped(Iota(n), stripes, chunk);
        ASSERT_TRUE(striped.file.ok());
        uint64_t total = 0;
        for (uint32_t s = 0; s < striped.file->num_stripes(); ++s) {
          uint64_t brute = 0;
          for (uint64_t c = s; c < striped.file->num_chunks();
               c += striped.file->num_stripes()) {
            brute += striped.file->ChunkLength(c);
          }
          EXPECT_EQ(striped.file->StripeElements(s), brute)
              << "n=" << n << " stripes=" << stripes << " chunk=" << chunk
              << " s=" << s;
          total += brute;
        }
        EXPECT_EQ(total, n);
      }
    }
  }
}

TEST(StripedDataFileTest, SubRangeReadsCrossChunkAndStripeBoundaries) {
  std::vector<Key> data = Iota(103);
  MemoryStripes stripes(data, 4, 10);
  ASSERT_TRUE(stripes.file.ok());
  for (uint64_t first : {0u, 3u, 9u, 10u, 39u, 95u}) {
    for (uint64_t count : {1u, 7u, 10u, 11u, 64u}) {
      if (first + count > data.size()) continue;
      std::vector<Key> out(count);
      ASSERT_TRUE(stripes.file->Read(first, count, out.data()).ok());
      EXPECT_EQ(out, std::vector<Key>(data.begin() + first,
                                      data.begin() + first + count))
          << "first=" << first << " count=" << count;
    }
  }
}

TEST(StripedDataFileTest, ReadPastEndIsOutOfRange) {
  MemoryStripes stripes(Iota(50), 2, 8);
  ASSERT_TRUE(stripes.file.ok());
  std::vector<Key> out(10);
  EXPECT_EQ(stripes.file->Read(45, 10, out.data()).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(stripes.file->Read(51, 1, out.data()).code(),
            StatusCode::kOutOfRange);
  // A huge count must not wrap around the end computation.
  EXPECT_EQ(stripes.file->Read(1, UINT64_MAX, out.data()).code(),
            StatusCode::kOutOfRange);
}

TEST(StripedDataFileTest, AppendPersistsAcrossReopen) {
  MemoryStripes stripes(Iota(10), 3, 4);
  ASSERT_TRUE(stripes.file.ok());
  std::vector<Key> extra{100, 101, 102, 103, 104};
  ASSERT_TRUE(stripes.file->Append(extra).ok());
  EXPECT_EQ(stripes.file->size(), 15u);

  auto reopened = StripedDataFile<Key>::Open(stripes.raw());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->size(), 15u);
  auto all = reopened->ReadAll();
  ASSERT_TRUE(all.ok());
  std::vector<Key> expected = Iota(10);
  expected.insert(expected.end(), extra.begin(), extra.end());
  EXPECT_EQ(*all, expected);
}

TEST(StripedDataFileTest, OpenRejectsMisorderedStripes) {
  MemoryStripes stripes(Iota(64), 3, 8);
  ASSERT_TRUE(stripes.file.ok());
  std::vector<BlockDevice*> swapped = stripes.raw();
  std::swap(swapped[0], swapped[2]);
  auto reopened = StripedDataFile<Key>::Open(swapped);
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

TEST(StripedDataFileTest, OpenRejectsWrongStripeCount) {
  MemoryStripes stripes(Iota(64), 3, 8);
  ASSERT_TRUE(stripes.file.ok());
  std::vector<BlockDevice*> subset = stripes.raw();
  subset.pop_back();
  auto reopened = StripedDataFile<Key>::Open(subset);
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

TEST(StripedDataFileTest, OpenRejectsForeignStripe) {
  MemoryStripes a(Iota(64), 2, 8);
  MemoryStripes b(Iota(32), 2, 8);  // different geometry
  ASSERT_TRUE(a.file.ok());
  ASSERT_TRUE(b.file.ok());
  std::vector<BlockDevice*> mixed{a.devices[0].get(), b.devices[1].get()};
  auto reopened = StripedDataFile<Key>::Open(mixed);
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

TEST(StripedDataFileTest, OpenRejectsWrongKeyType) {
  MemoryStripes stripes(Iota(64), 2, 8);
  ASSERT_TRUE(stripes.file.ok());
  auto reopened = StripedDataFile<double>::Open(stripes.raw());
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

TEST(StripedDataFileTest, OpenRejectsTruncatedStripe) {
  MemoryStripes stripes(Iota(64), 2, 8);
  ASSERT_TRUE(stripes.file.ok());
  // Rebuild stripe 1 shorter than its share: copy the header only.
  StripeFileHeader header;
  ASSERT_TRUE(
      stripes.devices[1]->ReadAt(0, &header, sizeof(header)).ok());
  MemoryBlockDevice short_stripe;
  ASSERT_TRUE(short_stripe.WriteAt(0, &header, sizeof(header)).ok());
  std::vector<BlockDevice*> devices{stripes.devices[0].get(), &short_stripe};
  auto reopened = StripedDataFile<Key>::Open(devices);
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

TEST(StripedDataFileTest, OpenRejectsGarbage) {
  MemoryBlockDevice junk;
  std::vector<uint8_t> bytes(128, 0x5A);
  ASSERT_TRUE(junk.WriteAt(0, bytes.data(), bytes.size()).ok());
  std::vector<BlockDevice*> devices{&junk};
  auto opened = StripedDataFile<Key>::Open(devices);
  EXPECT_FALSE(opened.ok());
}

TEST(StripedDataFileTest, CreateRejectsBadShapes) {
  MemoryBlockDevice device;
  std::vector<BlockDevice*> one{&device};
  EXPECT_FALSE(StripedDataFile<Key>::Create(one, 0).ok());  // zero chunk
  EXPECT_FALSE(
      StripedDataFile<Key>::Create(std::vector<BlockDevice*>{}, 8).ok());
  std::vector<BlockDevice*> with_null{&device, nullptr};
  EXPECT_FALSE(StripedDataFile<Key>::Create(with_null, 8).ok());
}

TEST(StripedDataFileTest, WorksOnRealFiles) {
  auto dir = TempDir::Make();
  ASSERT_TRUE(dir.ok());
  DatasetSpec spec;
  spec.n = 5000;
  spec.distribution = Distribution::kZipf;
  std::vector<Key> data = GenerateDataset<Key>(spec);
  {
    std::vector<std::unique_ptr<FileBlockDevice>> devices;
    std::vector<BlockDevice*> raw;
    for (int s = 0; s < 3; ++s) {
      auto device = FileBlockDevice::Make(
          dir->FilePath("data.s" + std::to_string(s)),
          FileBlockDevice::Mode::kCreate);
      ASSERT_TRUE(device.ok());
      devices.push_back(std::move(device).value());
      raw.push_back(devices.back().get());
    }
    ASSERT_TRUE(WriteStriped(data, raw, 512).ok());
    for (auto& device : devices) ASSERT_TRUE(device->Sync().ok());
  }
  std::vector<std::unique_ptr<FileBlockDevice>> devices;
  std::vector<BlockDevice*> raw;
  for (int s = 0; s < 3; ++s) {
    auto device = FileBlockDevice::Make(
        dir->FilePath("data.s" + std::to_string(s)),
        FileBlockDevice::Mode::kOpen);
    ASSERT_TRUE(device.ok());
    devices.push_back(std::move(device).value());
    raw.push_back(devices.back().get());
  }
  auto file = StripedDataFile<Key>::Open(raw);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  auto all = file->ReadAll();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, data);
}

}  // namespace
}  // namespace opaq
