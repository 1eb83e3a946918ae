#include "net/node_server.h"

#include <algorithm>
#include <cstring>

namespace opaq {

namespace {
// Recoverable refusals of the pull op an export is not served through: the
// connection stays open. A client learns an export's storage from
// `kOpenExtents`, so only a confused client ever sees these.
Status NotExtents(const std::string& name) {
  return Status::Unimplemented(
      "dataset '" + name +
      "' is not stored as compressed extents; read it with READ_RANGE");
}
Status NotRanges(const std::string& name) {
  return Status::Unimplemented(
      "dataset '" + name +
      "' is stored as compressed extents; read it with READ_EXTENTS");
}

FrameServerOptions ToFrameOptions(const NodeServerOptions& options) {
  FrameServerOptions frame_options;
  frame_options.bind_address = options.bind_address;
  frame_options.port = options.port;
  frame_options.response_delay_seconds = options.response_delay_seconds;
  frame_options.metrics = options.metrics;
  return frame_options;
}
}  // namespace

NodeServer::NodeServer(NodeServerOptions options)
    : FrameServer(ToFrameOptions(options)), options_(std::move(options)) {}

NodeServer::~NodeServer() {
  // Joined here, not in ~FrameServer: connection threads virtual-call
  // HandleFrame, which must still exist while they run.
  Stop();
}

const ExportedDataset& NodeServer::Export(const std::string& name,
                                          ExportedDataset dataset) {
  OPAQ_CHECK(!started()) << "Export after Start: the export map is frozen "
                            "once connection threads may read it";
  OPAQ_CHECK(!name.empty()) << "exported dataset needs a name";
  OPAQ_CHECK(dataset.sample_runs != nullptr && dataset.exact_pass != nullptr)
      << "export '" << name << "' binds no compute hooks";
  const bool extents = dataset.extent_elements > 0;
  OPAQ_CHECK(extents == (dataset.read_stored_extent != nullptr) &&
             extents != (dataset.read != nullptr))
      << "export '" << name << "' must bind exactly one pull op";
  OPAQ_CHECK_GT(dataset.element_size, 0u);
  return exports_[name] = std::move(dataset);
}

Status NodeServer::ValidateStart() {
  if (exports_.empty()) {
    return Status::FailedPrecondition(
        "a data node with nothing exported serves no purpose; call Export "
        "before Start");
  }
  if (options_.max_read_bytes == 0) {
    return Status::InvalidArgument("max_read_bytes must be positive");
  }
  if (options_.max_read_bytes > kMaxWirePayload) {
    return Status::InvalidArgument(
        "max_read_bytes of " + std::to_string(options_.max_read_bytes) +
        " exceeds the wire protocol's frame payload cap (" +
        std::to_string(kMaxWirePayload) + "); responses could not be framed");
  }
  if (options_.max_compute_run_bytes == 0) {
    return Status::InvalidArgument("max_compute_run_bytes must be positive");
  }
  return Status::OK();
}

void NodeServer::PublishMetrics(MetricsRegistry* registry) {
  FrameServer::PublishMetrics(registry);
  // Frozen at Start, so reading the map size without a lock is safe.
  registry->GetGauge("node.exports")
      ->Set(static_cast<int64_t>(exports_.size()));
}

Result<const ExportedDataset*> NodeServer::FindExport(
    const std::string& name) const {
  auto it = exports_.find(name);
  if (it == exports_.end()) {
    return Status::NotFound("node exports no dataset named '" + name + "'");
  }
  return &it->second;
}

uint64_t NodeServer::MaxExtentsPerRead(const ExportedDataset& dataset) const {
  const uint64_t worst = sizeof(ExtentHeader) +
                         dataset.extent_elements * dataset.element_size;
  const uint64_t cap =
      std::min<uint64_t>(options_.max_read_bytes, kMaxWirePayload);
  return std::max<uint64_t>(1, cap / worst);
}

bool NodeServer::HandleFrame(TcpConnection* conn, const WireFrame& frame) {
  switch (static_cast<WireOp>(frame.op)) {
    case WireOp::kPing:
      return SendCounted(conn, WireOp::kPong, nullptr, 0);

    case WireOp::kOpenDataset: {
      const std::string name(frame.payload.begin(), frame.payload.end());
      auto found = FindExport(name);
      if (!found.ok()) return SendErrorCounted(conn, found.status());
      const ExportedDataset& dataset = **found;
      WireDatasetInfo info;
      info.key_type = dataset.key_type;
      info.element_size = dataset.element_size;
      // A live export grows; disclose its current count, not the Export-
      // time snapshot.
      info.element_count = dataset.live_count ? dataset.live_count()
                                              : dataset.element_count;
      info.max_read_elements =
          std::max<uint64_t>(1, options_.max_read_bytes / dataset.element_size);
      return SendCounted(conn, WireOp::kDatasetInfo, &info, sizeof(info));
    }

    case WireOp::kReadRange: {
      if (frame.payload.size() < sizeof(WireReadRange)) {
        SendErrorCounted(conn,
                         Status::IoError("READ_RANGE payload shorter than its "
                                         "fixed prefix"));
        return false;  // framing is off; close
      }
      WireReadRange range;
      std::memcpy(&range, frame.payload.data(), sizeof(range));
      const std::string name(frame.payload.begin() + sizeof(range),
                             frame.payload.end());
      auto found = FindExport(name);
      if (!found.ok()) return SendErrorCounted(conn, found.status());
      const ExportedDataset& dataset = **found;
      if (!dataset.read) return SendErrorCounted(conn, NotRanges(name));
      if (range.count == 0) {
        return SendErrorCounted(
            conn, Status::InvalidArgument("READ_RANGE of zero elements"));
      }
      // Enforce exactly the bound OpenDataset advertised (so a client
      // slicing at max_read_elements is never rejected), plus the frame
      // cap for exotic element sizes.
      const uint64_t max_elements = std::max<uint64_t>(
          1, options_.max_read_bytes / dataset.element_size);
      if (range.count > max_elements ||
          range.count > kMaxWirePayload / dataset.element_size) {
        return SendErrorCounted(
            conn, Status::InvalidArgument(
                      "READ_RANGE of " + std::to_string(range.count) +
                      " elements exceeds this node's per-request bound of " +
                      std::to_string(max_elements) + " elements"));
      }
      const uint64_t element_count = dataset.live_count
                                         ? dataset.live_count()
                                         : dataset.element_count;
      if (range.first > element_count ||
          range.count > element_count - range.first) {
        return SendErrorCounted(
            conn, Status::OutOfRange(
                      "READ_RANGE [" + std::to_string(range.first) + ", +" +
                      std::to_string(range.count) + ") passes the end (" +
                      std::to_string(element_count) + " elements)"));
      }
      std::vector<uint8_t> data(range.count * dataset.element_size);
      Status read = dataset.read(range.first, range.count, data.data());
      if (!read.ok()) {
        // The disk under the dataset failed; the connection itself is fine.
        return SendErrorCounted(conn, read);
      }
      return SendCounted(conn, WireOp::kRangeData, data.data(), data.size());
    }

    case WireOp::kSampleRuns: {
      if (frame.payload.size() < sizeof(WireSampleRunsRequest)) {
        SendErrorCounted(
            conn, Status::IoError(
                      "SAMPLE_RUNS payload shorter than its fixed prefix"));
        return false;  // framing is off; close
      }
      WireSampleRunsRequest request;
      std::memcpy(&request, frame.payload.data(), sizeof(request));
      const std::string name(frame.payload.begin() + sizeof(request),
                             frame.payload.end());
      auto found = FindExport(name);
      if (!found.ok()) return SendErrorCounted(conn, found.status());
      const ExportedDataset& dataset = **found;
      auto payload =
          dataset.sample_runs(request, options_.max_compute_run_bytes);
      if (!payload.ok()) {
        // A bad request or a failing disk; the connection itself is fine.
        return SendErrorCounted(conn, payload.status());
      }
      return SendCounted(conn, WireOp::kSampleListData, payload->data(),
                         payload->size());
    }

    case WireOp::kExactPass: {
      if (frame.payload.size() < sizeof(WireExactPassRequest)) {
        SendErrorCounted(
            conn, Status::IoError(
                      "EXACT_PASS payload shorter than its fixed prefix"));
        return false;  // framing is off; close
      }
      WireExactPassRequest request;
      std::memcpy(&request, frame.payload.data(), sizeof(request));
      if (frame.payload.size() - sizeof(request) < request.name_len) {
        SendErrorCounted(
            conn, Status::IoError("EXACT_PASS name_len passes the end of "
                                  "the payload"));
        return false;  // framing is off; close
      }
      const std::string name(frame.payload.begin() + sizeof(request),
                             frame.payload.begin() + sizeof(request) +
                                 request.name_len);
      auto found = FindExport(name);
      if (!found.ok()) return SendErrorCounted(conn, found.status());
      const ExportedDataset& dataset = **found;
      const uint64_t bracket_bytes =
          frame.payload.size() - sizeof(request) - request.name_len;
      if (bracket_bytes !=
          uint64_t{request.num_brackets} * 2 * dataset.element_size) {
        return SendErrorCounted(
            conn, Status::InvalidArgument(
                      "EXACT_PASS carries " + std::to_string(bracket_bytes) +
                      " bracket bytes where " +
                      std::to_string(request.num_brackets) + " brackets of " +
                      std::to_string(dataset.element_size) +
                      "-byte elements need " +
                      std::to_string(uint64_t{request.num_brackets} * 2 *
                                     dataset.element_size)));
      }
      auto payload = dataset.exact_pass(
          request,
          frame.payload.data() + sizeof(request) + request.name_len,
          options_.max_compute_run_bytes);
      if (!payload.ok()) {
        return SendErrorCounted(conn, payload.status());
      }
      return SendCounted(conn, WireOp::kExactPassData, payload->data(),
                         payload->size());
    }

    case WireOp::kOpenExtents: {
      const std::string name(frame.payload.begin(), frame.payload.end());
      auto found = FindExport(name);
      if (!found.ok()) return SendErrorCounted(conn, found.status());
      const ExportedDataset& dataset = **found;
      // Answered for every export: this is how a client learns the storage
      // and so the one pull op to stream it with.
      if (dataset.extent_elements == 0) {
        return SendErrorCounted(conn, NotExtents(name));
      }
      WireExtentInfo info;
      info.key_type = dataset.key_type;
      info.element_size = dataset.element_size;
      info.element_count = dataset.element_count;
      info.extent_elements = dataset.extent_elements;
      info.num_extents = dataset.num_extents;
      info.max_extents_per_read = MaxExtentsPerRead(dataset);
      info.default_codec = dataset.extent_codec;
      return SendCounted(conn, WireOp::kExtentInfo, &info, sizeof(info));
    }

    case WireOp::kReadExtents: {
      if (frame.payload.size() < sizeof(WireReadExtents)) {
        SendErrorCounted(conn, Status::IoError(
                                   "READ_EXTENTS payload shorter than its "
                                   "fixed prefix"));
        return false;  // framing is off; close
      }
      WireReadExtents range;
      std::memcpy(&range, frame.payload.data(), sizeof(range));
      const std::string name(frame.payload.begin() + sizeof(range),
                             frame.payload.end());
      auto found = FindExport(name);
      if (!found.ok()) return SendErrorCounted(conn, found.status());
      const ExportedDataset& dataset = **found;
      if (dataset.extent_elements == 0) {
        return SendErrorCounted(conn, NotExtents(name));
      }
      if (range.count == 0) {
        return SendErrorCounted(
            conn, Status::InvalidArgument("READ_EXTENTS of zero extents"));
      }
      // Enforce exactly the bound kOpenExtents advertised, so a client
      // slicing at max_extents_per_read is never rejected.
      if (range.count > MaxExtentsPerRead(dataset)) {
        return SendErrorCounted(
            conn, Status::InvalidArgument(
                      "READ_EXTENTS of " + std::to_string(range.count) +
                      " extents exceeds this node's per-request bound of " +
                      std::to_string(MaxExtentsPerRead(dataset)) +
                      " extents"));
      }
      if (range.first_extent > dataset.num_extents ||
          range.count > dataset.num_extents - range.first_extent) {
        return SendErrorCounted(
            conn, Status::OutOfRange(
                      "READ_EXTENTS [" + std::to_string(range.first_extent) +
                      ", +" + std::to_string(range.count) +
                      ") passes the end (" +
                      std::to_string(dataset.num_extents) + " extents)"));
      }
      std::vector<uint8_t> data;
      for (uint64_t e = 0; e < range.count; ++e) {
        Status read =
            dataset.read_stored_extent(range.first_extent + e, &data);
        if (!read.ok()) {
          // The disk under the dataset failed; the connection itself is
          // fine.
          return SendErrorCounted(conn, read);
        }
      }
      return SendCounted(conn, WireOp::kExtentData, data.data(), data.size());
    }

    case WireOp::kAppend: {
      if (frame.payload.size() < sizeof(WireAppendRequest)) {
        SendErrorCounted(conn,
                         Status::IoError("APPEND payload shorter than its "
                                         "fixed prefix"));
        return false;  // framing is off; close
      }
      WireAppendRequest request;
      std::memcpy(&request, frame.payload.data(), sizeof(request));
      if (frame.payload.size() - sizeof(request) < request.name_len) {
        SendErrorCounted(conn, Status::IoError(
                                   "APPEND name_len passes the end of the "
                                   "payload"));
        return false;  // framing is off; close
      }
      if (request.flags != 0) {
        return SendErrorCounted(
            conn, Status::InvalidArgument(
                      "APPEND carries reserved flags this node does not "
                      "understand"));
      }
      if (request.count == 0) {
        return SendErrorCounted(
            conn, Status::InvalidArgument("APPEND of zero elements"));
      }
      const std::string name(frame.payload.begin() + sizeof(request),
                             frame.payload.begin() + sizeof(request) +
                                 request.name_len);
      auto found = FindExport(name);
      if (!found.ok()) return SendErrorCounted(conn, found.status());
      const ExportedDataset& dataset = **found;
      if (!dataset.append) {
        // Recoverable: static exports stay queryable on this connection.
        return SendErrorCounted(
            conn, Status::Unimplemented(
                      "dataset '" + name +
                      "' is a static export; only live datasets "
                      "(--live) accept appends"));
      }
      const uint64_t data_bytes =
          frame.payload.size() - sizeof(request) - request.name_len;
      // Divide, don't multiply: a huge count must not wrap into a product
      // that happens to match the payload.
      if (request.count > kMaxWirePayload / dataset.element_size ||
          data_bytes != request.count * dataset.element_size) {
        return SendErrorCounted(
            conn, Status::InvalidArgument(
                      "APPEND carries " + std::to_string(data_bytes) +
                      " element bytes where " + std::to_string(request.count) +
                      " elements of " + std::to_string(dataset.element_size) +
                      " bytes need " +
                      std::to_string(request.count * dataset.element_size)));
      }
      auto ack = dataset.append(
          frame.payload.data() + sizeof(request) + request.name_len,
          request.count);
      if (!ack.ok()) {
        // The disk under the dataset failed; the connection itself is fine.
        return SendErrorCounted(conn, ack.status());
      }
      return SendCounted(conn, WireOp::kAppendAck, &*ack, sizeof(*ack));
    }

    default:
      SendErrorCounted(conn, Status::Unimplemented(
                                 std::string("node does not speak op ") +
                                 WireOpName(frame.op) + " (" +
                                 std::to_string(frame.op) + ")"));
      return false;  // unknown op: assume version skew and close
  }
}

}  // namespace opaq
