#include "ingest/live_dataset.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <random>

#include "util/crc32.h"

namespace opaq {

uint32_t LiveRecordCrc(const LiveManifestRecord& record) {
  return Crc32(&record, offsetof(LiveManifestRecord, crc));
}

std::string LiveSegmentFileName(uint32_t sequence) {
  char name[32];
  std::snprintf(name, sizeof(name), "seg-%06u.opaq", sequence);
  return name;
}

uint64_t NewLiveNonce() {
  std::random_device device;
  // The clock term keeps nonces distinct where random_device is a weak,
  // deterministic source.
  const uint64_t random = (static_cast<uint64_t>(device()) << 32) ^ device();
  return random ^ static_cast<uint64_t>(std::chrono::steady_clock::now()
                                            .time_since_epoch()
                                            .count());
}

bool LivePathExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

bool LiveDatasetExists(const std::string& dir) {
  return LivePathExists(dir + "/MANIFEST");
}

Status EnsureLiveDirectory(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return Status::IoError("mkdir " + dir + ": " + std::strerror(errno));
}

Status SyncLiveDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("open " + dir + " for fsync: " +
                           std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IoError("fsync " + dir + ": " +
                           std::strerror(saved_errno));
  }
  return Status::OK();
}

Result<LiveManifestInfo> ReadLiveManifest(BlockDevice* device) {
  auto size = device->Size();
  if (!size.ok()) return size.status();
  if (*size < sizeof(LiveManifestHeader)) {
    return Status::IoError(
        "live manifest of " + std::to_string(*size) +
        " bytes is shorter than its header; not a live dataset");
  }
  LiveManifestHeader header;
  OPAQ_RETURN_IF_ERROR(device->ReadAt(0, &header, sizeof(header)));
  if (header.magic != LiveManifestHeader::kMagic) {
    return Status::IoError("bad live manifest magic: not an OPAQ live "
                           "dataset");
  }
  if (header.version != 1) {
    return Status::IoError("unsupported live manifest version " +
                           std::to_string(header.version));
  }
  if (header.flags != 0) {
    return Status::IoError("live manifest header carries unknown flags");
  }
  if (header.key_type < static_cast<uint32_t>(KeyType::kU32) ||
      header.key_type > static_cast<uint32_t>(KeyType::kF64)) {
    return Status::IoError("live manifest names an unknown key type " +
                           std::to_string(header.key_type));
  }
  if (header.element_size == 0 || header.element_size > 16) {
    return Status::IoError("live manifest names an implausible element "
                           "size " + std::to_string(header.element_size));
  }

  LiveManifestInfo info;
  info.key_type = static_cast<KeyType>(header.key_type);
  info.element_size = header.element_size;
  info.nonce = header.nonce;
  // Recovery scan: keep records while they are whole, CRC-clean, and
  // consistent with the running totals; stop at the first that is not.
  // Everything past the stop point is a crashed writer's torn tail (or
  // junk) and is simply not part of the dataset.
  const uint64_t record_bytes = *size - sizeof(LiveManifestHeader);
  const uint64_t num_whole = record_bytes / sizeof(LiveManifestRecord);
  uint64_t total = 0;
  for (uint64_t i = 0; i < num_whole; ++i) {
    LiveManifestRecord record;
    OPAQ_RETURN_IF_ERROR(device->ReadAt(
        sizeof(LiveManifestHeader) + i * sizeof(LiveManifestRecord), &record,
        sizeof(record)));
    if (record.crc != LiveRecordCrc(record)) break;
    if (record.sequence != i + 1) break;
    if (record.element_count == 0) break;
    if ((record.flags & ~LiveManifestRecord::kFlagPacked) != 0) break;
    if (record.reserved != 0) break;
    if (record.total_elements != total + record.element_count) break;
    total = record.total_elements;
    info.records.push_back(record);
  }
  info.total_elements = total;
  return info;
}

Result<LiveManifestInfo> ReadLiveManifestInfo(const std::string& dir) {
  auto device =
      FileBlockDevice::Make(dir + "/MANIFEST", FileBlockDevice::Mode::kOpen);
  if (!device.ok()) {
    return Status::NotFound("no live dataset in " + dir + ": " +
                            device.status().message());
  }
  return ReadLiveManifest(device->get());
}

}  // namespace opaq
