#ifndef OPAQ_NET_REMOTE_EXTENT_SOURCE_H_
#define OPAQ_NET_REMOTE_EXTENT_SOURCE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "io/data_file.h"
#include "io/extent.h"
#include "io/run_pipeline.h"
#include "net/client.h"
#include "util/status.h"

namespace opaq {

/// Stored extents from a remote data node (wire v4): the node ships each
/// extent verbatim — packed payload, CRC and all — and this fetcher
/// validates and decodes it client-side, so the wire carries the packed
/// byte count, not the logical one. Requests pipeline like range reads.
///
/// Every stored extent is validated with `DecodeStoredExtent` against the
/// geometry negotiated at open (`WireExtentInfo`), NEVER against the bytes
/// the node sent: a lying or corrupt extent header is a clean sticky
/// `Status`, not an allocation bomb or a crash, even though the peer chooses
/// the bytes.
template <typename K>
class RemoteExtentFetcher : public BlockFetcher<K> {
 public:
  RemoteExtentFetcher(NodeClient client, std::string dataset,
                      const WireExtentInfo& info, bool verify_checksums,
                      std::shared_ptr<ExtentStats> stats)
      : client_(std::move(client)), dataset_(std::move(dataset)),
        info_(info), verify_checksums_(verify_checksums),
        stats_(std::move(stats)) {}

  Status Request(uint64_t first, uint64_t count) override {
    (void)count;
    return client_.SendReadExtents(dataset_, first / info_.extent_elements,
                                   1);
  }

  Status Fetch(uint64_t first, uint64_t count, K* out) override {
    OPAQ_ASSIGN_OR_RETURN(std::vector<uint8_t> stored,
                          client_.ReceiveExtents());
    const uint64_t e = first / info_.extent_elements;
    const uint64_t extent_start = e * info_.extent_elements;
    const uint64_t extent_len =
        std::min(info_.extent_elements, info_.element_count - extent_start);
    const bool whole = first == extent_start && count == extent_len;
    if (!whole) extent_.resize(extent_len);
    OPAQ_RETURN_IF_ERROR(DecodeStoredExtent(
        stored.data(), stored.size(), e, extent_len * sizeof(K), sizeof(K),
        verify_checksums_, whole ? out : extent_.data(), stats_.get()));
    if (!whole) {
      std::copy_n(extent_.begin() + (first - extent_start), count, out);
    }
    return Status::OK();
  }

  void Cancel() override { client_.ShutdownNow(); }

 private:
  NodeClient client_;
  std::string dataset_;
  WireExtentInfo info_;
  bool verify_checksums_;
  std::shared_ptr<ExtentStats> stats_;
  std::vector<K> extent_;  // a clipped extent, decoded whole
};

/// A compressed remote dataset as a `RunProvider`: the wire-v4 network
/// storage backend. `Connect` fetches the extent geometry (`kOpenExtents`)
/// and validates the node's key type against `K`; a node that answers
/// Unimplemented is simply not serving extents for that dataset — the
/// caller (Source::OpenRemote) falls back to `RemoteRunProvider` range
/// streaming. Every `OpenRuns` dials its own connection, like the other
/// remote provider; the pack/unpack accounting of all its streams lands in
/// one shared `ExtentStats` surfaced through `pack_stats()`.
template <typename K>
class RemoteExtentProvider : public RunProvider<K> {
 public:
  static Result<RemoteExtentProvider<K>> Connect(
      const std::string& spec_text,
      const NodeClientOptions& options = NodeClientOptions()) {
    auto spec = ParseRemoteSpec(spec_text);
    if (!spec.ok()) return spec.status();
    return Connect(*spec, options);
  }

  static Result<RemoteExtentProvider<K>> Connect(
      const RemoteSpec& spec,
      const NodeClientOptions& options = NodeClientOptions()) {
    auto client = NodeClient::Connect(spec.host, spec.port, options);
    if (!client.ok()) return client.status();
    auto info = client->OpenExtents(spec.dataset);
    if (!info.ok()) return info.status();
    if (info->key_type != static_cast<uint32_t>(KeyTraits<K>::kType) ||
        info->element_size != sizeof(K)) {
      return Status::InvalidArgument(
          "remote dataset '" + spec.ToString() +
          "' holds a different key type than " + KeyTraits<K>::kName);
    }
    return RemoteExtentProvider<K>(spec, *info, options);
  }

  uint64_t size() const override { return info_.element_count; }

  std::unique_ptr<RunSource<K>> OpenRuns(
      const ReadOptions& options, uint64_t first = 0,
      uint64_t count = UINT64_MAX) const override {
    BlockSpan<K> span;
    span.first = first;
    span.count = ClampCount(info_.element_count, first, count);
    span.block = info_.extent_elements;
    span.positioned = false;
    const RemoteSpec spec = spec_;
    const NodeClientOptions client_options = client_options_;
    const WireExtentInfo info = info_;
    const bool verify = options.verify_checksums;
    const std::shared_ptr<ExtentStats> stats = stats_;
    span.open = [spec, client_options, info, verify,
                 stats]() -> FetcherOrError<K> {
      OPAQ_ASSIGN_OR_RETURN(
          NodeClient client,
          NodeClient::Connect(spec.host, spec.port, client_options));
      return std::unique_ptr<BlockFetcher<K>>(new RemoteExtentFetcher<K>(
          std::move(client), spec.dataset, info, verify, stats));
    };
    return std::make_unique<RunPipeline<K>>(
        std::vector<BlockSpan<K>>{std::move(span)}, options);
  }

  const ExtentStats* pack_stats() const override { return stats_.get(); }

  const RemoteSpec& spec() const { return spec_; }
  const WireExtentInfo& info() const { return info_; }

 private:
  RemoteExtentProvider(RemoteSpec spec, WireExtentInfo info,
                       NodeClientOptions client_options)
      : spec_(std::move(spec)), info_(info),
        client_options_(client_options),
        stats_(std::make_shared<ExtentStats>()) {}

  RemoteSpec spec_;
  WireExtentInfo info_;
  NodeClientOptions client_options_;
  std::shared_ptr<ExtentStats> stats_;
};

}  // namespace opaq

#endif  // OPAQ_NET_REMOTE_EXTENT_SOURCE_H_
