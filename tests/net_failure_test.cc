// Fault injection for the network path: dying nodes, dying disks behind
// nodes, truncated and corrupted frames, refused connections, key-type
// skew, failed or too-old handshakes, and pull ops an export is not served
// through. Every failure must surface as a sticky `Status` from the client —
// no hangs (the suite itself would time out), no aborts, and runs wholly
// before the failure still delivered. The node, in turn, must survive
// malformed clients.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "io/block_device.h"
#include "io/data_file.h"
#include "io/extent.h"
#include "io/faulty_device.h"
#include "net/client.h"
#include "net/node_server.h"
#include "net/remote_source.h"
#include "opaq/engine.h"
#include "opaq/source.h"

namespace opaq {
namespace {

using Key = uint64_t;

/// A node whose dataset sits on a FaultyDevice.
struct FaultyNode {
  std::vector<Key> data;
  std::unique_ptr<FaultyDevice> device;
  std::unique_ptr<TypedDataFile<Key>> file;
  NodeServer server;

  FaultyNode(uint64_t n, FaultyDevice::Options fault_options,
             NodeServerOptions server_options = {})
      : server(server_options) {
    DatasetSpec spec;
    spec.n = n;
    spec.seed = 5;
    data = GenerateDataset<Key>(spec);
    auto inner = std::make_unique<MemoryBlockDevice>();
    OPAQ_CHECK_OK(WriteDataset(data, inner.get()));
    device = std::make_unique<FaultyDevice>(std::move(inner), fault_options);
    auto opened = TypedDataFile<Key>::Open(device.get());  // device read #1
    OPAQ_CHECK_OK(opened.status());
    file = std::make_unique<TypedDataFile<Key>>(std::move(opened).value());
    server.Export("data", file.get());
    OPAQ_CHECK_OK(server.Start());
  }

  std::string spec() const { return server.address() + "/data"; }
};

FaultyDevice::Options FailReadAt(uint64_t n) {
  FaultyDevice::Options options;
  options.fail_read_at = n;
  return options;
}

/// A fake "node" that runs `script` against the first accepted connection
/// — for injecting protocol-level garbage a real NodeServer never emits.
class ScriptedNode {
 public:
  explicit ScriptedNode(std::function<void(TcpConnection&)> script) {
    auto listener = TcpListener::Bind("127.0.0.1", 0);
    OPAQ_CHECK_OK(listener.status());
    listener_ = std::move(listener).value();
    thread_ = std::thread([this, script = std::move(script)] {
      auto conn = listener_.Accept();
      if (conn.ok()) script(*conn);
    });
  }

  ~ScriptedNode() {
    listener_.ShutdownNow();
    if (thread_.joinable()) thread_.join();
  }

  uint16_t port() const { return listener_.port(); }

 private:
  TcpListener listener_;
  std::thread thread_;
};

/// Reads one full frame off `conn` (a scripted node consuming the client's
/// request before answering with garbage).
void ConsumeFrame(TcpConnection& conn) {
  WireFrameHeader header;
  OPAQ_CHECK_OK(conn.ReadFull(&header, sizeof(header)));
  std::vector<uint8_t> payload(header.payload_len);
  if (!payload.empty()) {
    OPAQ_CHECK_OK(conn.ReadFull(payload.data(), payload.size()));
  }
}

TEST(NetFailureTest, NodeDiskErrorSurfacesAsStickyStatus) {
  // Device read #1 was the header; the 3rd data read fails, so with one
  // slice per run, runs 1 and 2 arrive intact and run 3 reports the node's
  // disk error — same contract as every local backend.
  for (IoMode mode : {IoMode::kSync, IoMode::kAsync}) {
    FaultyNode node(10000, FailReadAt(4));
    auto provider = RemoteRunProvider<Key>::Connect(node.spec());
    ASSERT_TRUE(provider.ok()) << provider.status().ToString();
    ReadOptions options;
    options.run_size = 1000;  // slice == run (default read bound is larger)
    options.io_mode = mode;
    auto source = provider->OpenRuns(options);
    std::vector<Key> buffer;
    for (int run = 0; run < 2; ++run) {
      auto more = source->NextRun(&buffer);
      ASSERT_TRUE(more.ok()) << IoModeName(mode);
      ASSERT_TRUE(*more);
      EXPECT_EQ(buffer, std::vector<Key>(node.data.begin() + run * 1000,
                                         node.data.begin() + (run + 1) * 1000))
          << IoModeName(mode);
    }
    auto failed = source->NextRun(&buffer);
    ASSERT_FALSE(failed.ok()) << IoModeName(mode);
    EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
    EXPECT_TRUE(buffer.empty());
    // Sticky: every later call repeats the failure.
    auto again = source->NextRun(&buffer);
    EXPECT_EQ(again.status().code(), StatusCode::kIoError);

    // The fault was one-shot and per-request: the node survives it, and a
    // fresh stream (new connection) reads everything.
    auto retry = provider->OpenRuns(options);
    uint64_t total = 0;
    for (;;) {
      auto more = retry->NextRun(&buffer);
      ASSERT_TRUE(more.ok());
      if (!*more) break;
      total += buffer.size();
    }
    EXPECT_EQ(total, node.data.size());
  }
}

TEST(NetFailureTest, EngineSurfacesNodeDiskError) {
  FaultyNode node(10000, FailReadAt(3));
  auto source = Source<Key>::OpenRemote(node.spec());
  ASSERT_TRUE(source.ok());
  OpaqConfig config;
  config.run_size = 1000;
  config.samples_per_run = 100;
  config.io_mode = IoMode::kAsync;
  auto session = Engine<Key>(config, *source).Build();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kIoError);
}

TEST(NetFailureTest, NodeDeathMidStreamSurfacesWithoutHanging) {
  // Small slices so the stream is far from fully buffered when the node
  // dies mid-run.
  NodeServerOptions small;
  small.max_read_bytes = 256 * sizeof(Key);
  auto slow_node = std::make_unique<FaultyNode>(200000,
                                                FaultyDevice::Options(), small);
  auto provider = RemoteRunProvider<Key>::Connect(slow_node->spec());
  ASSERT_TRUE(provider.ok());
  ReadOptions options;
  options.run_size = 4096;
  options.io_mode = IoMode::kAsync;
  options.prefetch_depth = 2;
  auto source = provider->OpenRuns(options);
  std::vector<Key> buffer;
  auto first = source->NextRun(&buffer);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(*first);

  slow_node->server.Stop();  // kill the node mid-run

  // The already-pipelined prefix may still arrive; after that the death
  // must surface as a sticky error — and never a hang.
  Status failure;
  for (int i = 0; i < 100; ++i) {
    auto more = source->NextRun(&buffer);
    if (!more.ok()) {
      failure = more.status();
      break;
    }
    ASSERT_TRUE(*more) << "stream ended cleanly despite the node dying";
  }
  EXPECT_EQ(failure.code(), StatusCode::kIoError) << failure.ToString();
  auto sticky = source->NextRun(&buffer);
  EXPECT_EQ(sticky.status().code(), StatusCode::kIoError);
}

TEST(NetFailureTest, AbandonedStreamShutsDownCleanly) {
  // Destroying a streaming source mid-flight (data still pending on both
  // the wire and the channel) must join its thread without hanging.
  FaultyNode node(100000, FaultyDevice::Options());
  auto provider = RemoteRunProvider<Key>::Connect(node.spec());
  ASSERT_TRUE(provider.ok());
  ReadOptions options;
  options.run_size = 1024;
  options.io_mode = IoMode::kAsync;
  options.prefetch_depth = 4;
  auto source = provider->OpenRuns(options);
  std::vector<Key> buffer;
  auto more = source->NextRun(&buffer);
  ASSERT_TRUE(more.ok());
  source.reset();  // abandon with ~97 runs unread
}

TEST(NetFailureTest, ConnectionRefusedIsCleanStatus) {
  // Grab an ephemeral port, then close it: connecting must fail fast.
  auto listener = TcpListener::Bind("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  const uint16_t dead_port = listener->port();
  listener->Close();
  auto source = Source<Key>::OpenRemote(
      "127.0.0.1:" + std::to_string(dead_port) + "/data");
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kIoError);
}

TEST(NetFailureTest, UnknownDatasetIsNotFound) {
  FaultyNode node(100, FaultyDevice::Options());
  auto source = Source<Key>::OpenRemote(node.server.address() + "/missing");
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kNotFound);
}

TEST(NetFailureTest, KeyTypeSkewIsRejectedAtHandshake) {
  // A u32 dataset served to a u64 client: caught at Connect, not at read.
  std::vector<uint32_t> data(100, 7);
  MemoryBlockDevice device;
  OPAQ_CHECK_OK(WriteDataset(data, &device));
  auto file = TypedDataFile<uint32_t>::Open(&device);
  ASSERT_TRUE(file.ok());
  NodeServer server;
  server.Export("data", &*file);
  ASSERT_TRUE(server.Start().ok());
  auto provider =
      RemoteRunProvider<uint64_t>::Connect(server.address() + "/data");
  ASSERT_FALSE(provider.ok());
  EXPECT_EQ(provider.status().code(), StatusCode::kInvalidArgument);
}

/// The `kHelloAck` a node announcing `max_version` sends.
void AckHello(TcpConnection& conn, uint16_t max_version) {
  ConsumeFrame(conn);  // HELLO
  WireHello ack;
  ack.max_version = max_version;
  std::vector<uint8_t> frame =
      EncodeFrame(WireOp::kHelloAck, &ack, sizeof(ack));
  conn.WriteFull(frame.data(), frame.size());
}

TEST(NetFailureTest, FailedHandshakeIsAnErrorNotADowngrade) {
  // A pre-v2 node rejects the version-2 HELLO frame with an error frame;
  // the client must report that, never fall back to streaming.
  ScriptedNode rejecting([](TcpConnection& conn) {
    ConsumeFrame(conn);  // HELLO
    std::vector<uint8_t> frame = EncodeErrorFrame(
        Status::IoError("unsupported wire protocol version 2"));
    conn.WriteFull(frame.data(), frame.size());
  });
  auto rejected = Source<Key>::OpenRemote(
      "127.0.0.1:" + std::to_string(rejecting.port()) + "/data");
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("handshake"), std::string::npos)
      << rejected.status().ToString();

  // A node that never answers HELLO times out as an error too.
  ScriptedNode silent([](TcpConnection& conn) {
    ConsumeFrame(conn);  // HELLO — then wait for the client to hang up
    uint8_t byte = 0;
    conn.ReadFull(&byte, 1);
  });
  NodeClientOptions impatient;
  impatient.receive_timeout_seconds = 0.2;
  auto timed_out = Source<Key>::OpenRemote(
      "127.0.0.1:" + std::to_string(silent.port()) + "/data", impatient);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kIoError);
}

TEST(NetFailureTest, NodeBelowTheWireFloorIsRefused) {
  ScriptedNode old_node([](TcpConnection& conn) { AckHello(conn, 3); });
  auto source = Source<Key>::OpenRemote(
      "127.0.0.1:" + std::to_string(old_node.port()) + "/data");
  ASSERT_FALSE(source.ok());
  EXPECT_EQ(source.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(source.status().message().find("v3"), std::string::npos)
      << source.status().ToString();
  EXPECT_NE(source.status().message().find(
                "v" + std::to_string(kMinNodeWireVersion)),
            std::string::npos)
      << source.status().ToString();
}

TEST(NetFailureTest, WrongPullOpIsRecoverable) {
  // Each export is served through one pull op; asking with the other is a
  // per-request error and the connection keeps serving.
  FaultyNode plain(1000, FaultyDevice::Options());
  std::vector<std::unique_ptr<BlockDevice>> owned;
  owned.push_back(std::make_unique<MemoryBlockDevice>());
  ExtentWriterOptions extent_options;
  extent_options.extent_elements = 256;
  ASSERT_TRUE(
      WriteExtents(plain.data, {owned[0].get()}, extent_options).ok());
  auto extent_file = ExtentFile::Open({owned[0].get()});
  ASSERT_TRUE(extent_file.ok()) << extent_file.status().ToString();
  NodeServer server;
  server.Export<Key>("packed", &*extent_file);
  server.Export("plain", plain.file.get());
  ASSERT_TRUE(server.Start().ok());

  auto client = NodeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  Key value = 0;
  Status range = client->ReadRange("packed", 0, 1, &value, sizeof(value));
  EXPECT_EQ(range.code(), StatusCode::kUnimplemented) << range.ToString();
  EXPECT_TRUE(client->Ping().ok()) << "connection should survive";
  ASSERT_TRUE(client->SendReadExtents("plain", 0, 1).ok());
  auto extents = client->ReceiveExtents();
  EXPECT_EQ(extents.status().code(), StatusCode::kUnimplemented)
      << extents.status().ToString();
  EXPECT_TRUE(client->Ping().ok()) << "connection should survive";
  server.Stop();
}

TEST(NetFailureTest, TruncatedHeaderFromNode) {
  ScriptedNode fake([](TcpConnection& conn) {
    ConsumeFrame(conn);  // the PING
    WireFrameHeader header;
    header.op = static_cast<uint16_t>(WireOp::kPong);
    conn.WriteFull(&header, sizeof(header) / 2);  // half a header, then EOF
  });
  auto client = NodeClient::Connect("127.0.0.1", fake.port());
  ASSERT_TRUE(client.ok());
  Status ping = client->Ping();
  ASSERT_FALSE(ping.ok());
  EXPECT_EQ(ping.code(), StatusCode::kIoError);
  EXPECT_NE(ping.message().find("closed"), std::string::npos);
}

TEST(NetFailureTest, TruncatedPayloadFromNode) {
  ScriptedNode fake([](TcpConnection& conn) {
    ConsumeFrame(conn);
    // A valid header promising 100 payload bytes; only 10 follow.
    std::vector<uint8_t> payload(100, 3);
    std::vector<uint8_t> frame = EncodeFrame(WireOp::kPong, payload);
    conn.WriteFull(frame.data(), sizeof(WireFrameHeader) + 10);
  });
  auto client = NodeClient::Connect("127.0.0.1", fake.port());
  ASSERT_TRUE(client.ok());
  Status ping = client->Ping();
  ASSERT_FALSE(ping.ok());
  EXPECT_EQ(ping.code(), StatusCode::kIoError);
}

TEST(NetFailureTest, CorruptedCrcFromNode) {
  ScriptedNode fake([](TcpConnection& conn) {
    ConsumeFrame(conn);
    std::vector<uint8_t> frame =
        EncodeFrame(WireOp::kPong, std::vector<uint8_t>{1, 2, 3});
    frame[12] ^= 0xFF;  // flip a CRC byte
    conn.WriteFull(frame.data(), frame.size());
  });
  auto client = NodeClient::Connect("127.0.0.1", fake.port());
  ASSERT_TRUE(client.ok());
  Status ping = client->Ping();
  ASSERT_FALSE(ping.ok());
  EXPECT_NE(ping.message().find("CRC"), std::string::npos)
      << ping.ToString();
}

TEST(NetFailureTest, ForeignMagicFromNode) {
  ScriptedNode fake([](TcpConnection& conn) {
    ConsumeFrame(conn);
    std::vector<uint8_t> garbage(sizeof(WireFrameHeader), 0xAB);
    conn.WriteFull(garbage.data(), garbage.size());
  });
  auto client = NodeClient::Connect("127.0.0.1", fake.port());
  ASSERT_TRUE(client.ok());
  Status ping = client->Ping();
  ASSERT_FALSE(ping.ok());
  EXPECT_NE(ping.message().find("magic"), std::string::npos);
}

TEST(NetFailureTest, CorruptRangeDataSurfacesThroughRunSource) {
  // A full scripted handshake + one poisoned RANGE_DATA: the run stream
  // must latch the CRC failure, not deliver corrupt elements.
  ScriptedNode fake([](TcpConnection& conn) {
    ConsumeFrame(conn);  // OPEN_DATASET
    WireDatasetInfo info;
    info.key_type = static_cast<uint32_t>(KeyTraits<Key>::kType);
    info.element_size = sizeof(Key);
    info.element_count = 64;
    info.max_read_elements = 64;
    std::vector<uint8_t> frame =
        EncodeFrame(WireOp::kDatasetInfo, &info, sizeof(info));
    conn.WriteFull(frame.data(), frame.size());
  });
  // The provider handshake uses its own connection; the run stream then
  // dials a second one — so scripted single-connection tests drive the
  // client layer directly instead.
  auto client = NodeClient::Connect("127.0.0.1", fake.port());
  ASSERT_TRUE(client.ok());
  auto info = client->OpenDataset("data");
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  ScriptedNode fake2([](TcpConnection& conn) {
    ConsumeFrame(conn);  // READ_RANGE
    std::vector<uint8_t> payload(64 * sizeof(Key), 5);
    std::vector<uint8_t> frame = EncodeFrame(WireOp::kRangeData, payload);
    frame[frame.size() - 1] ^= 0x01;  // corrupt the last payload byte
    conn.WriteFull(frame.data(), frame.size());
  });
  auto client2 = NodeClient::Connect("127.0.0.1", fake2.port());
  ASSERT_TRUE(client2.ok());
  std::vector<Key> values(64);
  Status read = client2->ReadRange("data", 0, 64, values.data(),
                                   values.size() * sizeof(Key));
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.message().find("CRC"), std::string::npos);
}

TEST(NetFailureTest, NodeClampsReadBoundToAtLeastOneElement) {
  // A read bound below one element must clamp to 1, never advertise 0 —
  // a zero bound would tell clients no read can ever succeed (and a
  // conforming client rejects it, see below).
  NodeServerOptions tiny;
  tiny.max_read_bytes = 1;  // below any element size
  FaultyNode node(50, FaultyDevice::Options(), tiny);
  auto client = NodeClient::Connect("127.0.0.1", node.server.port());
  ASSERT_TRUE(client.ok());
  auto info = client->OpenDataset("data");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->max_read_elements, 1u);
  Key value = 0;
  ASSERT_TRUE(client->ReadRange("data", 7, 1, &value, sizeof(value)).ok());
  EXPECT_EQ(value, node.data[7]);
}

TEST(NetFailureTest, ClientRejectsZeroReadBoundFromNode) {
  // The other side of the clamp: a (broken or hostile) node advertising
  // max_read_elements == 0 must be rejected at OpenDataset with a clear
  // Status — the slice loop would otherwise divide the stream into
  // zero-element requests forever.
  ScriptedNode fake([](TcpConnection& conn) {
    ConsumeFrame(conn);  // OPEN_DATASET
    WireDatasetInfo info;
    info.key_type = static_cast<uint32_t>(KeyTraits<Key>::kType);
    info.element_size = sizeof(Key);
    info.element_count = 100;
    info.max_read_elements = 0;
    std::vector<uint8_t> frame =
        EncodeFrame(WireOp::kDatasetInfo, &info, sizeof(info));
    conn.WriteFull(frame.data(), frame.size());
  });
  auto client = NodeClient::Connect("127.0.0.1", fake.port());
  ASSERT_TRUE(client.ok());
  auto info = client->OpenDataset("data");
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kIoError);
  EXPECT_NE(info.status().message().find("geometry"), std::string::npos);
}

TEST(NetFailureTest, NodeSurvivesGarbageClient) {
  FaultyNode node(1000, FaultyDevice::Options());
  {
    // A peer that speaks garbage: the node answers with an error frame (or
    // just hangs up) and MUST keep serving everyone else.
    auto conn = TcpConnection::Connect("127.0.0.1", node.server.port(), 5);
    ASSERT_TRUE(conn.ok());
    std::vector<uint8_t> garbage(64, 0xEE);
    ASSERT_TRUE(conn->WriteFull(garbage.data(), garbage.size()).ok());
    // Drain whatever the node answers until it hangs up on us.
    uint8_t sink[256];
    while (conn->ReadFull(sink, sizeof(sink)).ok()) {
    }
  }
  auto client = NodeClient::Connect("127.0.0.1", node.server.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
  auto info = client->OpenDataset("data");
  EXPECT_TRUE(info.ok()) << info.status().ToString();
}

TEST(NetFailureTest, OversizedFrameFromClientClosesConnection) {
  FaultyNode node(1000, FaultyDevice::Options());
  auto conn = TcpConnection::Connect("127.0.0.1", node.server.port(), 5);
  ASSERT_TRUE(conn.ok());
  WireFrameHeader header;
  header.op = static_cast<uint16_t>(WireOp::kReadRange);
  header.payload_len = kMaxWirePayload + 1;  // allocation-bomb claim
  ASSERT_TRUE(conn->WriteFull(&header, sizeof(header)).ok());
  // The node must answer with an error frame and hang up — never attempt
  // the allocation. (ReceiveFrame fails either on the error frame's
  // content or on the close, both acceptable here; the real assertion is
  // the node's survival below.)
  auto answer = ReceiveExpected(*conn, WireOp::kRangeData);
  EXPECT_FALSE(answer.ok());
  auto client = NodeClient::Connect("127.0.0.1", node.server.port());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
}

}  // namespace
}  // namespace opaq
