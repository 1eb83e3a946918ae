#ifndef OPAQ_NET_REMOTE_SOURCE_H_
#define OPAQ_NET_REMOTE_SOURCE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "io/data_file.h"
#include "io/extent.h"
#include "io/run_pipeline.h"
#include "io/run_reader.h"
#include "net/client.h"
#include "util/status.h"

namespace opaq {

/// Range reads from a remote data node (wire v1 `kReadRange`) over one
/// connection. Requests are pipelined: under `IoMode::kAsync` the fetch
/// thread keeps a budget's worth of range requests on the wire while it
/// receives the oldest, so network latency and the node's own disk time
/// overlap the caller's sampling. Each response lands directly in `out`.
template <typename K>
class RangeBlockFetcher : public BlockFetcher<K> {
 public:
  RangeBlockFetcher(NodeClient client, std::string dataset)
      : client_(std::move(client)), dataset_(std::move(dataset)) {}

  Status Request(uint64_t first, uint64_t count) override {
    return client_.SendReadRange(dataset_, first, count);
  }

  Status Fetch(uint64_t first, uint64_t count, K* out) override {
    (void)first;
    return client_.ReceiveRange(out, count * sizeof(K));
  }

  void Cancel() override { client_.ShutdownNow(); }

 private:
  NodeClient client_;
  std::string dataset_;
};

/// Stored extents from a remote data node (wire v4): the node ships each
/// extent verbatim — packed payload, CRC and all — and this fetcher
/// validates and decodes it client-side, so the wire carries the packed
/// byte count, not the logical one. Requests pipeline like range reads.
///
/// Every stored extent is validated with `DecodeStoredExtent` against the
/// geometry fetched at connect (`WireExtentInfo`), NEVER against the bytes
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

/// A dataset served by a remote data node as a `RunProvider`: the network
/// storage backend. `Connect` dials once, runs the wire handshake (the node
/// must speak `kMinNodeWireVersion` or newer), learns the export's storage
/// and checks its key type and element size against `K`. Every stream then
/// pulls through the one op the node serves that export with:
/// `RemoteExtentFetcher` (packed `kReadExtents`, decoded client-side) for
/// an export stored as compressed extents, `RangeBlockFetcher`
/// (`kReadRange` slices of at most the node's `max_read_elements`) for
/// plain, striped and live exports. Every `OpenRuns` dials its OWN
/// connection, so concurrent run streams — multi-shard engines, an exact
/// second pass racing a sketch — never share socket state and the node
/// serves each from its own thread. The pack/unpack accounting of an
/// extent export's streams lands in one shared `ExtentStats`
/// (`pack_stats()`).
///
/// The dataset geometry is a snapshot from `Connect` time; like every
/// other provider, the provider describes one immutable logical dataset.
template <typename K>
class RemoteRunProvider : public RunProvider<K> {
 public:
  /// Connects per "host:port/dataset" spec text.
  static Result<RemoteRunProvider<K>> Connect(
      const std::string& spec_text,
      const NodeClientOptions& options = NodeClientOptions()) {
    auto spec = ParseRemoteSpec(spec_text);
    if (!spec.ok()) return spec.status();
    return Connect(*spec, options);
  }

  static Result<RemoteRunProvider<K>> Connect(
      const RemoteSpec& spec,
      const NodeClientOptions& options = NodeClientOptions()) {
    OPAQ_ASSIGN_OR_RETURN(NodeClient client,
                          NodeClient::Connect(spec.host, spec.port, options));
    OPAQ_RETURN_IF_ERROR(client.Hello().status());
    RemoteRunProvider<K> provider(spec, options);
    uint32_t key_type = 0;
    uint32_t element_size = 0;
    // `kOpenExtents` names the storage: an extent export answers with its
    // geometry, every other export with Unimplemented.
    auto extents = client.OpenExtents(spec.dataset);
    if (extents.ok()) {
      provider.extents_ = *extents;
      provider.stats_ = std::make_shared<ExtentStats>();
      provider.size_ = extents->element_count;
      key_type = extents->key_type;
      element_size = extents->element_size;
    } else if (extents.status().code() == StatusCode::kUnimplemented) {
      OPAQ_ASSIGN_OR_RETURN(WireDatasetInfo info,
                            client.OpenDataset(spec.dataset));
      provider.size_ = info.element_count;
      provider.max_read_elements_ = info.max_read_elements;
      key_type = info.key_type;
      element_size = info.element_size;
    } else {
      return extents.status();
    }
    if (key_type != static_cast<uint32_t>(KeyTraits<K>::kType) ||
        element_size != sizeof(K)) {
      return Status::InvalidArgument(
          "remote dataset '" + spec.ToString() +
          "' holds a different key type than " + KeyTraits<K>::kName);
    }
    return provider;
  }

  uint64_t size() const override { return size_; }

  std::unique_ptr<RunSource<K>> OpenRuns(
      const ReadOptions& options, uint64_t first = 0,
      uint64_t count = UINT64_MAX) const override {
    BlockSpan<K> span;
    span.first = first;
    span.count = ClampCount(size_, first, count);
    const RemoteSpec spec = spec_;
    const NodeClientOptions client_options = client_options_;
    if (extents_.extent_elements == 0) {
      span.max_fetch = std::max<uint64_t>(1, max_read_elements_);
      span.open = [spec, client_options]() -> FetcherOrError<K> {
        OPAQ_ASSIGN_OR_RETURN(
            NodeClient client,
            NodeClient::Connect(spec.host, spec.port, client_options));
        return std::unique_ptr<BlockFetcher<K>>(
            new RangeBlockFetcher<K>(std::move(client), spec.dataset));
      };
    } else {
      span.block = extents_.extent_elements;
      span.positioned = false;
      const WireExtentInfo info = extents_;
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
    }
    return std::make_unique<RunPipeline<K>>(
        std::vector<BlockSpan<K>>{std::move(span)}, options);
  }

  /// Non-null exactly when the export is stored as compressed extents.
  const ExtentStats* pack_stats() const override { return stats_.get(); }

  const RemoteSpec& spec() const { return spec_; }

 private:
  RemoteRunProvider(RemoteSpec spec, NodeClientOptions client_options)
      : spec_(std::move(spec)), client_options_(client_options) {}

  RemoteSpec spec_;
  NodeClientOptions client_options_;
  uint64_t size_ = 0;
  uint64_t max_read_elements_ = 0;  // range exports
  WireExtentInfo extents_;          // extent exports
  std::shared_ptr<ExtentStats> stats_;
};

}  // namespace opaq

#endif  // OPAQ_NET_REMOTE_SOURCE_H_
