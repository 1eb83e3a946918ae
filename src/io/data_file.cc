#include "io/data_file.h"

#include <cstring>

#include "io/extent.h"
#include "io/striped_data_file.h"

namespace opaq {

Result<DataFilePrefix> ProbeDataFile(BlockDevice* device) {
  OPAQ_CHECK(device != nullptr);
  auto size = device->Size();
  if (!size.ok()) return size.status();
  if (*size < sizeof(DataFilePrefix)) {
    return Status::InvalidArgument(
        "file too small to hold an OPAQ data file header");
  }
  DataFilePrefix prefix;
  OPAQ_RETURN_IF_ERROR(device->ReadAt(0, &prefix, sizeof(prefix)));
  if (prefix.magic != DataFileHeader::kMagic &&
      prefix.magic != StripeFileHeader::kMagic &&
      prefix.magic != ExtentFileHeader::kMagic) {
    return Status::InvalidArgument(
        "bad magic: not an OPAQ data, stripe or extent file");
  }
  return prefix;
}

Result<DataFile> DataFile::Open(BlockDevice* device) {
  OPAQ_CHECK(device != nullptr);
  DataFileHeader header;
  auto size = device->Size();
  if (!size.ok()) return size.status();
  if (*size < sizeof(DataFileHeader)) {
    return Status::InvalidArgument("device too small to hold a data file");
  }
  OPAQ_RETURN_IF_ERROR(device->ReadAt(0, &header, sizeof(header)));
  if (header.magic != DataFileHeader::kMagic) {
    return Status::InvalidArgument("bad magic: not an OPAQ data file");
  }
  if (header.version != 1) {
    return Status::InvalidArgument("unsupported data file version");
  }
  if (header.element_size == 0) {
    return Status::InvalidArgument("corrupt header: element_size == 0");
  }
  uint64_t need = sizeof(DataFileHeader) +
                  header.element_count * static_cast<uint64_t>(header.element_size);
  if (*size < need) {
    return Status::InvalidArgument("data file truncated");
  }
  return DataFile(device, header);
}

Result<DataFile> DataFile::Create(BlockDevice* device, KeyType key_type,
                                  uint32_t element_size,
                                  uint64_t element_count) {
  OPAQ_CHECK(device != nullptr);
  if (element_size == 0) {
    return Status::InvalidArgument("element_size must be positive");
  }
  DataFileHeader header;
  header.key_type = static_cast<uint32_t>(key_type);
  header.element_size = element_size;
  header.element_count = element_count;
  OPAQ_RETURN_IF_ERROR(device->WriteAt(0, &header, sizeof(header)));
  return DataFile(device, header);
}

Status DataFile::ReadElements(uint64_t first, uint64_t count,
                              void* out) const {
  if (first + count > header_.element_count) {
    return Status::OutOfRange("element read past end of data file");
  }
  if (count == 0) return Status::OK();
  return device_->ReadAt(ByteOffset(first), out,
                         count * header_.element_size);
}

Status DataFile::WriteElements(uint64_t first, uint64_t count,
                               const void* in) {
  if (count == 0) return Status::OK();
  return device_->WriteAt(ByteOffset(first), in,
                          count * header_.element_size);
}

Status DataFile::SetElementCount(uint64_t count) {
  header_.element_count = count;
  return device_->WriteAt(0, &header_, sizeof(header_));
}

}  // namespace opaq
