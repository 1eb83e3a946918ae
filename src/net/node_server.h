#ifndef OPAQ_NET_NODE_SERVER_H_
#define OPAQ_NET_NODE_SERVER_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "ingest/live_dataset.h"
#include "io/data_file.h"
#include "io/extent.h"
#include "io/striped_data_file.h"
#include "io/striped_run_source.h"
#include "net/frame_server.h"
#include "net/node_compute.h"
#include "net/socket.h"
#include "net/wire.h"
#include "util/status.h"

namespace opaq {

/// One dataset a node exports, type-erased: the server only needs the
/// geometry plus the hooks below — it never interprets the elements, so a
/// single node can serve any key type (and any storage layout: plain files,
/// striped arrays, compressed extents, live directories) uniformly.
///
/// Every export binds the compute hooks (`TypedExport` does) and exactly
/// one pull op, chosen by its storage: `read_stored_extent` for compressed
/// extents, `read` for everything else. `NodeServer::Export` checks both.
struct ExportedDataset {
  uint32_t key_type = 0;
  uint32_t element_size = 0;
  uint64_t element_count = 0;
  /// The v2 compute hooks: run the paper's sample phase / §4 filter scan
  /// over this dataset's runs and return the complete response payload
  /// (see node_compute.h). `max_run_bytes` is the server's
  /// `max_compute_run_bytes` bound.
  std::function<Result<std::vector<uint8_t>>(
      const WireSampleRunsRequest& request, uint64_t max_run_bytes)>
      sample_runs;
  std::function<Result<std::vector<uint8_t>>(
      const WireExactPassRequest& request, const uint8_t* bracket_bytes,
      uint64_t max_run_bytes)>
      exact_pass;
  /// The `kReadRange` pull: reads `count` elements starting at `first` into
  /// `out` (already bounds-checked by the server against `element_count`).
  /// Empty for extent exports.
  std::function<Status(uint64_t first, uint64_t count, void* out)> read;
  /// The v4 `kReadExtents` pull, bound when the export is stored as
  /// compressed extents (io/extent.h): the geometry `kOpenExtents`
  /// discloses, and a reader that appends the stored (packed) bytes of one
  /// logical extent to `out` — shipped verbatim, decoded client-side.
  /// `extent_elements == 0` means "not an extent export"; the node then
  /// answers `kOpenExtents` and `kReadExtents` with Unimplemented.
  uint64_t extent_elements = 0;
  uint64_t num_extents = 0;
  uint16_t extent_codec = 0;
  std::function<Status(uint64_t extent, std::vector<uint8_t>* out)>
      read_stored_extent;
  /// Optional v5 ingest hooks, bound for live (appendable) dataset exports
  /// (`opaq_noded --live`). `append` durably commits `count` elements as
  /// one new segment and returns the dataset's new totals (the ack IS the
  /// commit receipt); empty means the export is static and the node
  /// answers `kAppend` with Unimplemented. `live_count` reports the
  /// current logical element count — live exports grow, so the static
  /// `element_count` snapshot above would go stale; when bound, it
  /// overrides `element_count` for `kOpenDataset`/`kReadRange` bounds.
  /// Both must be safe to call from concurrent connection threads
  /// (`OpenLiveExport` serializes internally).
  std::function<Result<WireAppendAck>(const uint8_t* elements,
                                      uint64_t count)>
      append;
  std::function<uint64_t()> live_count;
  /// Optional ownership hook: keeps backing objects (devices, files) alive
  /// for exports the caller does not keep alive itself (the typed `Export`
  /// overloads take it as `owner`; borrowed exports leave it empty).
  std::shared_ptr<void> owner;
};

/// A typed export's geometry plus its v2 compute hooks — the one place the
/// hooks are bound. `provider()` returns (a pointer-like handle to) the
/// `RunProvider<K>` a request computes over, fresh per request: a file
/// export makes a provider over its file, a live export hands out its
/// current read snapshot, so a request finishes on the data it started
/// with.
template <typename K, typename ProviderFn>
ExportedDataset TypedExport(uint64_t element_count, ProviderFn provider) {
  ExportedDataset dataset;
  dataset.key_type = static_cast<uint32_t>(KeyTraits<K>::kType);
  dataset.element_size = sizeof(K);
  dataset.element_count = element_count;
  dataset.sample_runs = [provider](const WireSampleRunsRequest& request,
                                   uint64_t max_run_bytes) {
    return NodeSampleRuns<K>(*provider(), request, max_run_bytes);
  };
  dataset.exact_pass = [provider](const WireExactPassRequest& request,
                                  const uint8_t* bracket_bytes,
                                  uint64_t max_run_bytes) {
    return NodeExactPass<K>(*provider(), request, bracket_bytes,
                            max_run_bytes);
  };
  return dataset;
}

struct NodeServerOptions {
  /// IPv4 literal to bind. The protocol is unauthenticated, so the default
  /// stays on loopback; bind 0.0.0.0 only on trusted networks.
  std::string bind_address = "127.0.0.1";
  /// 0 = pick an ephemeral port (see `port()` after `Start`).
  uint16_t port = 0;
  /// Per-request read bound: a `kReadRange` may ask for at most this many
  /// bytes of elements (at least one element is always readable, so tiny
  /// bounds degrade throughput, never availability). Bounds both the
  /// node's buffer and the client's pipelining grain (disclosed as
  /// `WireDatasetInfo::max_read_elements`). Must not exceed
  /// `kMaxWirePayload` — `Start` rejects configs whose responses could
  /// not be framed.
  uint64_t max_read_bytes = 4u << 20;
  /// Artificial delay before every response frame — the latency-injectable
  /// loopback transport the remote-vs-local benches are built on. 0 = off.
  double response_delay_seconds = 0;
  /// Per-request bound on the node-side run buffer a `kSampleRuns` /
  /// `kExactPass` may ask for (`run_size * element_size`). Compute runs
  /// node-side, so this is a memory bound, not a frame bound — hence far
  /// above `max_read_bytes`.
  uint64_t max_compute_run_bytes = 256u << 20;
  /// Registry this server publishes into; see FrameServerOptions::metrics.
  MetricsRegistry* metrics = nullptr;
};

/// `opaq_noded`'s engine: serves exported datasets over the wire protocol
/// (the v2 compute ops, plus one pull op per export: v1 range reads or v4
/// stored extents) with one thread per connection (the paper's workload
/// is few long sequential streams per node, not thousands of short ones).
/// The transport half — accept loop, frame validation, counters, ordered
/// shutdown — lives in `FrameServer`; this class is the dataset registry
/// plus the per-op handlers.
///
/// Lifecycle: construct, `Export` every dataset, `Start()`, eventually
/// `Stop()` (idempotent; the destructor calls it). Exports are frozen at
/// `Start` — the map is read concurrently by connection threads without
/// locking afterwards. Per-request failures (unknown dataset, out-of-range
/// or oversized reads, a dying disk) answer with an error frame and keep
/// the connection open; protocol violations (bad magic/version/CRC) answer
/// with an error frame and close, since the byte stream can no longer be
/// trusted.
class NodeServer : public FrameServer {
 public:
  explicit NodeServer(NodeServerOptions options = NodeServerOptions());
  ~NodeServer() override;

  /// Registers `dataset` under `name` (before `Start` only) and returns
  /// the registered copy. CHECKs that the compute hooks and exactly one
  /// pull op are bound (see `ExportedDataset`).
  const ExportedDataset& Export(const std::string& name,
                                ExportedDataset dataset);

  /// Exports a typed plain data file. Every export is a full compute
  /// node: the v2 `kSampleRuns` / `kExactPass` hooks run over the same
  /// `FileRunProvider` local mode uses (sync and async alike). The file is
  /// borrowed unless `owner` keeps it (and its devices) alive — what
  /// `opaq_noded` passes for the files it opens. Returns the registered
  /// export.
  template <typename K>
  const ExportedDataset& Export(const std::string& name,
                                const TypedDataFile<K>* file,
                                std::shared_ptr<void> owner = nullptr) {
    return ExportFile<K, FileRunProvider<K>>(name, file, std::move(owner));
  }

  /// Exports a striped multi-disk data file (borrowed unless `owner`). The
  /// node gathers across stripes locally and serves one flat logical
  /// element space — a client cannot tell (and need not care) how a node
  /// lays its data out. Compute requests drive the striped readers
  /// directly (kAsync = one thread per stripe), so node-side sampling
  /// enjoys the full array bandwidth.
  template <typename K>
  const ExportedDataset& Export(const std::string& name,
                                const StripedDataFile<K>* file,
                                std::shared_ptr<void> owner = nullptr) {
    return ExportFile<K, StripedFileProvider<K>>(name, file,
                                                 std::move(owner));
  }

  /// Exports a compressed extent file, plain or striped (borrowed unless
  /// `owner`). Compute runs over the extent-decoding provider, and the one
  /// pull op is v4 `kReadExtents`: the stored extents ship verbatim, so the
  /// wire carries packed bytes and the client decodes on its own streaming
  /// thread. The node never decodes ranges for a client.
  template <typename K>
  const ExportedDataset& Export(const std::string& name,
                                const ExtentFile* file,
                                std::shared_ptr<void> owner = nullptr) {
    OPAQ_CHECK(file != nullptr);
    OPAQ_CHECK_OK(CheckExtentKeyType<K>(*file));
    ExportedDataset dataset = TypedExport<K>(file->size(), [file] {
      return std::make_unique<ExtentFileProvider<K>>(file);
    });
    dataset.extent_elements = file->extent_elements();
    dataset.num_extents = file->num_extents();
    dataset.extent_codec = static_cast<uint16_t>(file->default_codec());
    dataset.read_stored_extent = [file](uint64_t extent,
                                        std::vector<uint8_t>* out) {
      std::vector<uint8_t> stored;
      OPAQ_RETURN_IF_ERROR(file->ReadStoredExtent(extent, &stored));
      out->insert(out->end(), stored.begin(), stored.end());
      return Status::OK();
    };
    dataset.owner = std::move(owner);
    return Export(name, std::move(dataset));
  }

 protected:
  Status ValidateStart() override;
  /// Handles one request frame; returns false when the connection must
  /// close (protocol violation or transport failure).
  bool HandleFrame(TcpConnection* conn, const WireFrame& frame) override;
  /// Base `net.*` counters plus `node.exports`.
  void PublishMetrics(MetricsRegistry* registry) override;

 private:
  /// The plain and striped exports: the `kReadRange` pull plus the compute
  /// hooks over a `Provider` made per request.
  template <typename K, typename Provider, typename File>
  const ExportedDataset& ExportFile(const std::string& name, const File* file,
                                    std::shared_ptr<void> owner) {
    OPAQ_CHECK(file != nullptr);
    ExportedDataset dataset = TypedExport<K>(
        file->size(), [file] { return std::make_unique<Provider>(file); });
    dataset.read = [file](uint64_t first, uint64_t count, void* out) {
      return file->Read(first, count, static_cast<K*>(out));
    };
    dataset.owner = std::move(owner);
    return Export(name, std::move(dataset));
  }

  /// The export named `name`, or NotFound — recoverable: a client probing
  /// names keeps its connection.
  Result<const ExportedDataset*> FindExport(const std::string& name) const;

  /// Per-request `kReadExtents` bound for one extent export: as many
  /// extents as fit `max_read_bytes` at the worst-case stored size (header
  /// + unpacked payload — the no-expansion invariant's ceiling), never
  /// exceeding the frame cap, and at least one so tiny bounds degrade
  /// throughput, never availability (one extent always fits a frame:
  /// kMaxExtentBytes < kMaxWirePayload).
  uint64_t MaxExtentsPerRead(const ExportedDataset& dataset) const;

  NodeServerOptions options_;
  std::map<std::string, ExportedDataset> exports_;
};

/// A live export's shared state. Appends serialize under `writer_mutex`
/// (the wire delivers them from concurrent connection threads); every
/// committed append reopens a read snapshot and swaps it in under
/// `snapshot_mutex`, so in-flight reads/computes finish on the snapshot
/// they started with — the same epoch discipline as `QueryServer`'s
/// refresh — and new requests see the new segment immediately.
template <typename K>
struct LiveExportState {
  std::mutex writer_mutex;
  std::unique_ptr<LiveDataset<K>> writer;
  std::mutex snapshot_mutex;
  std::shared_ptr<const LiveDatasetReader<K>> snapshot;

  std::shared_ptr<const LiveDatasetReader<K>> Snapshot() {
    std::lock_guard<std::mutex> lock(snapshot_mutex);
    return snapshot;
  }
};

/// Opens the live (appendable) dataset directory `dir` as a typed export
/// (`opaq_noded --live`): the usual read/compute hooks over the current
/// snapshot, plus the v5 `append` hook and a `live_count` that tracks
/// growth. The dataset must already exist, so a typo'd path fails loudly
/// instead of silently serving a fresh empty dataset. The returned export
/// owns the writer and its snapshots.
template <typename K>
Result<ExportedDataset> OpenLiveExport(const std::string& dir) {
  auto state = std::make_shared<LiveExportState<K>>();
  auto writer = LiveDataset<K>::Open(dir);
  if (!writer.ok()) return writer.status();
  state->writer = std::make_unique<LiveDataset<K>>(std::move(writer).value());
  auto reader = LiveDatasetReader<K>::Open(dir);
  if (!reader.ok()) return reader.status();
  state->snapshot = std::make_shared<const LiveDatasetReader<K>>(
      std::move(reader).value());

  ExportedDataset dataset = TypedExport<K>(
      state->snapshot->size(), [state] { return state->Snapshot(); });
  dataset.read = [state](uint64_t first, uint64_t count, void* out) {
    return state->Snapshot()->Read(first, count, static_cast<K*>(out));
  };
  dataset.live_count = [state]() { return state->Snapshot()->size(); };
  dataset.append = [state, dir](const uint8_t* elements,
                                uint64_t count) -> Result<WireAppendAck> {
    std::lock_guard<std::mutex> writer_lock(state->writer_mutex);
    std::vector<K> values(count);
    std::memcpy(values.data(), elements, count * sizeof(K));
    OPAQ_RETURN_IF_ERROR(state->writer->Append(values));
    // The segment is durable; fold it into the read snapshot before
    // acking so a reader that acts on the ack already sees its data.
    auto reader = LiveDatasetReader<K>::Open(dir);
    if (!reader.ok()) return reader.status();
    auto snapshot = std::make_shared<const LiveDatasetReader<K>>(
        std::move(reader).value());
    {
      std::lock_guard<std::mutex> snapshot_lock(state->snapshot_mutex);
      state->snapshot = std::move(snapshot);
    }
    WireAppendAck ack;
    ack.total_elements = state->writer->total_elements();
    ack.num_segments = state->writer->num_segments();
    return ack;
  };
  dataset.owner = state;
  return dataset;
}

}  // namespace opaq

#endif  // OPAQ_NET_NODE_SERVER_H_
