#ifndef OPAQ_NET_REMOTE_SOURCE_H_
#define OPAQ_NET_REMOTE_SOURCE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "io/data_file.h"
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

/// A dataset served by a remote data node as a `RunProvider`: the network
/// storage backend. `Connect` performs the handshake (one round trip) and
/// validates the node's key type against `K`. Every `OpenRuns` streams the
/// range as slices of at most the node's `max_read_elements`, cut at run
/// boundaries, and dials its OWN connection, so concurrent run streams —
/// multi-shard engines, an exact second pass racing a sketch — never share
/// socket state and the node serves each from its own thread.
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
    auto client = NodeClient::Connect(spec.host, spec.port, options);
    if (!client.ok()) return client.status();
    auto info = client->OpenDataset(spec.dataset);
    if (!info.ok()) return info.status();
    if (info->key_type != static_cast<uint32_t>(KeyTraits<K>::kType) ||
        info->element_size != sizeof(K)) {
      return Status::InvalidArgument(
          "remote dataset '" + spec.ToString() +
          "' holds a different key type than " + KeyTraits<K>::kName);
    }
    return RemoteRunProvider<K>(spec, *info, options);
  }

  uint64_t size() const override { return info_.element_count; }

  std::unique_ptr<RunSource<K>> OpenRuns(
      const ReadOptions& options, uint64_t first = 0,
      uint64_t count = UINT64_MAX) const override {
    BlockSpan<K> span;
    span.first = first;
    span.count = ClampCount(info_.element_count, first, count);
    span.max_fetch = std::max<uint64_t>(1, info_.max_read_elements);
    const RemoteSpec spec = spec_;
    const NodeClientOptions client_options = client_options_;
    span.open = [spec, client_options]() -> FetcherOrError<K> {
      OPAQ_ASSIGN_OR_RETURN(
          NodeClient client,
          NodeClient::Connect(spec.host, spec.port, client_options));
      return std::unique_ptr<BlockFetcher<K>>(
          new RangeBlockFetcher<K>(std::move(client), spec.dataset));
    };
    return std::make_unique<RunPipeline<K>>(
        std::vector<BlockSpan<K>>{std::move(span)}, options);
  }

  const RemoteSpec& spec() const { return spec_; }
  const WireDatasetInfo& info() const { return info_; }

 private:
  RemoteRunProvider(RemoteSpec spec, WireDatasetInfo info,
                    NodeClientOptions client_options)
      : spec_(std::move(spec)), info_(info),
        client_options_(client_options) {}

  RemoteSpec spec_;
  WireDatasetInfo info_;
  NodeClientOptions client_options_;
};

}  // namespace opaq

#endif  // OPAQ_NET_REMOTE_SOURCE_H_
