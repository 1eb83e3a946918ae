// Query-serving path tests (wire v3): hostile-byte rejection in the
// query codecs, end-to-end QueryServer/QueryClient round trips asserted
// byte-identical to a single-process QuerySession, the error policy
// (recoverable errors keep the connection; framing lies close it), exact
// coalescing (N concurrent exact batches -> ONE shared §4 pass), epoch
// refresh with atomic swap, and the real daemon binaries (fork/exec
// opaq_queryd / opaq_noded): SIGTERM mid-serve must exit 0 with the final
// counter report, and both must serve an f64 dataset in every storage
// layout (plain, striped, extent, live) byte-identically to local reads.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sketch_io.h"
#include "data/dataset.h"
#include "ingest/live_dataset.h"
#include "io/block_device.h"
#include "io/codec.h"
#include "io/data_file.h"
#include "io/extent.h"
#include "io/striped_data_file.h"
#include "io/tempdir.h"
#include "net/client.h"
#include "net/query_client.h"
#include "net/query_server.h"
#include "net/wire_query.h"
#include "opaq/engine.h"
#include "opaq/source.h"

namespace opaq {
namespace {

using Key = uint64_t;
using Request = QueryRequest<Key>;

std::vector<Key> TestData(uint64_t n, uint64_t seed = 7) {
  DatasetSpec spec;
  spec.n = n;
  spec.seed = seed;
  spec.distribution = Distribution::kZipf;
  return GenerateDataset<Key>(spec);
}

OpaqConfig SmallConfig() {
  OpaqConfig config;
  config.run_size = 4096;
  config.samples_per_run = 64;
  return config;
}

/// Builder over a shared (mutable between epochs) dataset: what the
/// refresh tests swap underneath the server.
std::function<Result<QuerySession<Key>>()> MakeBuilder(
    std::shared_ptr<const std::vector<Key>> data,
    OpaqConfig config = SmallConfig()) {
  return [data, config]() -> Result<QuerySession<Key>> {
    Source<Key> source = Source<Key>::FromVector(*data);
    Engine<Key> engine(config, source);
    return engine.Build();
  };
}

// ------------------------------------------------------ codec hostility ----

TEST(WireQueryCodecTest, QueryNameRejectsHostileBytes) {
  // Shorter than the fixed prefix: framing lie -> IoError.
  uint8_t tiny[4] = {1, 2, 3, 4};
  auto short_prefix = DecodeQueryName(tiny, sizeof(tiny));
  EXPECT_EQ(short_prefix.status().code(), StatusCode::kIoError);

  // name_len pointing past the payload end.
  WireQueryHeader header;
  header.name_len = 1000;
  header.num_requests = 1;
  std::vector<uint8_t> overrun(sizeof(header) + 4);
  std::memcpy(overrun.data(), &header, sizeof(header));
  auto past_end = DecodeQueryName(overrun.data(), overrun.size());
  EXPECT_EQ(past_end.status().code(), StatusCode::kIoError);

  // Zero requests: well-framed but meaningless -> InvalidArgument.
  header.name_len = 0;
  header.num_requests = 0;
  std::vector<uint8_t> empty(sizeof(header));
  std::memcpy(empty.data(), &header, sizeof(header));
  auto zero = DecodeQueryName(empty.data(), empty.size());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);

  // Request count over the protocol cap.
  header.num_requests = kMaxWireQueryRequests + 1;
  std::memcpy(empty.data(), &header, sizeof(header));
  auto over = DecodeQueryName(empty.data(), empty.size());
  EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(over.status().message().find("cap"), std::string::npos);
}

TEST(WireQueryCodecTest, QueryRequestsRejectHostileBytes) {
  const std::string name = "s";
  std::vector<Request> batch = {Request::Quantile(0.5)};
  std::vector<uint8_t> payload =
      EncodeQueryPayload<Key>(name, {batch.data(), batch.size()});
  auto named = DecodeQueryName(payload.data(), payload.size());
  ASSERT_TRUE(named.ok());

  // Truncated / padded payloads: the length must match the header exactly.
  auto shorter = DecodeQueryRequests<Key>(payload.data(), payload.size() - 1,
                                          named->first);
  EXPECT_EQ(shorter.status().code(), StatusCode::kIoError);
  std::vector<uint8_t> padded = payload;
  padded.push_back(0);
  auto longer =
      DecodeQueryRequests<Key>(padded.data(), padded.size(), named->first);
  EXPECT_EQ(longer.status().code(), StatusCode::kIoError);

  // A wrong-sized element type (u32 client against a u64 session) is the
  // same exact-length violation, caught before any field is trusted.
  auto wrong_type = DecodeQueryRequests<uint32_t>(
      payload.data(), payload.size(), named->first);
  EXPECT_EQ(wrong_type.status().code(), StatusCode::kIoError);

  // Unknown kind.
  std::vector<uint8_t> bad_kind = payload;
  WireQueryRequest record;
  std::memcpy(&record, bad_kind.data() + sizeof(WireQueryHeader) + 1,
              sizeof(record));
  record.kind = 99;
  std::memcpy(bad_kind.data() + sizeof(WireQueryHeader) + 1, &record,
              sizeof(record));
  auto kind = DecodeQueryRequests<Key>(bad_kind.data(), bad_kind.size(),
                                       named->first);
  EXPECT_EQ(kind.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(kind.status().message().find("kind"), std::string::npos);

  // Unknown flag bits.
  std::memcpy(&record, payload.data() + sizeof(WireQueryHeader) + 1,
              sizeof(record));
  record.flags = 0x80;
  std::vector<uint8_t> bad_flags = payload;
  std::memcpy(bad_flags.data() + sizeof(WireQueryHeader) + 1, &record,
              sizeof(record));
  auto flags = DecodeQueryRequests<Key>(bad_flags.data(), bad_flags.size(),
                                        named->first);
  EXPECT_EQ(flags.status().code(), StatusCode::kInvalidArgument);

  // q over the equi-depth cap.
  std::memcpy(&record, payload.data() + sizeof(WireQueryHeader) + 1,
              sizeof(record));
  record.q = kMaxWireEquiDepth + 1;
  std::vector<uint8_t> bad_q = payload;
  std::memcpy(bad_q.data() + sizeof(WireQueryHeader) + 1, &record,
              sizeof(record));
  auto q = DecodeQueryRequests<Key>(bad_q.data(), bad_q.size(), named->first);
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireQueryCodecTest, QueryResultsRejectHostileBytes) {
  QueryResults<Key> results;
  results.total_elements = 100;
  results.max_rank_error = 3;
  QueryResult<Key> result;
  result.kind = Request::Kind::kQuantile;
  QuantileEstimate<Key> estimate;
  estimate.lower = 1;
  estimate.upper = 2;
  result.estimates = {estimate};
  result.exact = {5};
  results.results.push_back(result);
  auto payload = EncodeQueryResultsPayload(results);
  ASSERT_TRUE(payload.ok());

  // Round-trips clean first.
  auto ok = DecodeQueryResultsPayload<Key>(payload->data(), payload->size());
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->results[0].exact, (std::vector<Key>{5}));

  // Truncations at every interesting boundary.
  for (size_t len : {size_t{0}, sizeof(WireQueryResultHeader) - 1,
                     sizeof(WireQueryResultHeader) + 4,
                     payload->size() - 1}) {
    auto cut = DecodeQueryResultsPayload<Key>(payload->data(), len);
    EXPECT_EQ(cut.status().code(), StatusCode::kIoError) << "len " << len;
  }

  // Allocation-bomb num_results: a count near 2^32 with a tiny payload
  // must be rejected by arithmetic BEFORE any reserve, not by bad_alloc.
  std::vector<uint8_t> bomb = *payload;
  WireQueryResultHeader bomb_header;
  std::memcpy(&bomb_header, bomb.data(), sizeof(bomb_header));
  bomb_header.num_results = 0xFFFFFFFFu;
  std::memcpy(bomb.data(), &bomb_header, sizeof(bomb_header));
  auto bombed = DecodeQueryResultsPayload<Key>(bomb.data(), bomb.size());
  EXPECT_EQ(bombed.status().code(), StatusCode::kIoError);
  EXPECT_NE(bombed.status().message().find("claims"), std::string::npos);

  // Trailing bytes past the last result.
  std::vector<uint8_t> padded = *payload;
  padded.push_back(0);
  auto trailing =
      DecodeQueryResultsPayload<Key>(padded.data(), padded.size());
  EXPECT_EQ(trailing.status().code(), StatusCode::kIoError);
  EXPECT_NE(trailing.status().message().find("trailing"), std::string::npos);

  // num_exact that matches neither 0 nor num_estimates.
  std::vector<uint8_t> bad_exact = *payload;
  WireQueryResultRecord record;
  std::memcpy(&record, bad_exact.data() + sizeof(WireQueryResultHeader),
              sizeof(record));
  record.num_exact = 2;
  std::memcpy(bad_exact.data() + sizeof(WireQueryResultHeader), &record,
              sizeof(record));
  auto mismatched =
      DecodeQueryResultsPayload<Key>(bad_exact.data(), bad_exact.size());
  EXPECT_EQ(mismatched.status().code(), StatusCode::kIoError);

  // Unknown clamp-flag bits in an estimate.
  std::vector<uint8_t> bad_clamp = *payload;
  const size_t estimate_offset =
      sizeof(WireQueryResultHeader) + sizeof(WireQueryResultRecord);
  WireQuantileEstimate wire;
  std::memcpy(&wire, bad_clamp.data() + estimate_offset, sizeof(wire));
  wire.clamp_flags = 0xF0;
  std::memcpy(bad_clamp.data() + estimate_offset, &wire, sizeof(wire));
  auto clamp =
      DecodeQueryResultsPayload<Key>(bad_clamp.data(), bad_clamp.size());
  EXPECT_EQ(clamp.status().code(), StatusCode::kIoError);
}

// ------------------------------------------------- server round trips ----

class QueryServerTest : public ::testing::Test {
 protected:
  void StartServer(QueryServerOptions options = QueryServerOptions()) {
    data_ = std::make_shared<const std::vector<Key>>(TestData(20000));
    server_ = std::make_unique<QueryServer>(options);
    OPAQ_CHECK_OK(server_->Serve<Key>("bench", MakeBuilder(data_)));
    OPAQ_CHECK_OK(server_->Start());
    auto local = MakeBuilder(data_)();
    OPAQ_CHECK_OK(local.status());
    local_ = std::make_unique<QuerySession<Key>>(std::move(local).value());
  }

  std::shared_ptr<const std::vector<Key>> data_;
  std::unique_ptr<QueryServer> server_;
  std::unique_ptr<QuerySession<Key>> local_;
};

TEST_F(QueryServerTest, StartWithoutSessionsRefuses) {
  QueryServer empty;
  Status status = empty.Start();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(QueryServerTest, AllRequestKindsAnswerByteIdentically) {
  StartServer();
  auto client = QueryClient<Key>::Connect("127.0.0.1", server_->port(),
                                          "bench");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ(client->info().total_elements, local_->total_elements());
  EXPECT_EQ(client->info().max_rank_error, local_->max_rank_error());
  EXPECT_EQ(client->info().epoch, 1u);
  EXPECT_EQ(client->info().exact_enabled, 1u);

  const std::vector<std::vector<Request>> batches = {
      {Request::Quantile(0.5), Request::Quantile(0.999)},
      {Request::RankOf(0), Request::RankOf((*data_)[3]),
       Request::RankOf(UINT64_MAX)},
      {Request::QuantileByRank(1), Request::QuantileByRank(20000)},
      {Request::EquiQuantiles(10)},
      {Request::Quantile(0.5, /*exact=*/true),
       Request::EquiQuantiles(4, /*exact=*/true)},
      {Request::Quantile(0.25), Request::RankOf(42),
       Request::QuantileByRank(77), Request::EquiQuantiles(3)},
  };
  for (const std::vector<Request>& batch : batches) {
    auto remote = client->QueryPayload({batch.data(), batch.size()});
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    auto answers = local_->Query({batch.data(), batch.size()});
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    auto expected = EncodeQueryResultsPayload(*answers);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(*remote, *expected)
        << "daemon bytes diverge from the local QuerySession";
  }
}

TEST_F(QueryServerTest, WrongKeyTypeFailsPrecondition) {
  StartServer();
  auto client = QueryClient<uint32_t>::Connect("127.0.0.1", server_->port(),
                                               "bench");
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(client.status().message().find("key type"), std::string::npos);
}

TEST_F(QueryServerTest, UnknownSessionIsNotFound) {
  StartServer();
  auto client = QueryClient<Key>::Connect("127.0.0.1", server_->port(),
                                          "nope");
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(server_->SessionInfo("nope").status().code(),
            StatusCode::kNotFound);
}

TEST_F(QueryServerTest, RecoverableErrorsKeepTheConnectionOpen) {
  StartServer();
  auto raw = NodeClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(raw.ok());

  // Unknown session: error frame, connection stays useful.
  const std::string missing = "missing";
  OPAQ_CHECK_OK(raw->SendRequest(WireOp::kOpenSession, missing.data(),
                                 missing.size()));
  auto not_found = raw->ReceiveResponse(WireOp::kSessionInfo);
  EXPECT_EQ(not_found.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(raw->Ping().ok());

  // Semantically invalid request (phi out of range): InvalidArgument from
  // the session, connection still open.
  std::vector<Request> bad_phi = {Request::Quantile(2.0)};
  std::vector<uint8_t> payload =
      EncodeQueryPayload<Key>("bench", {bad_phi.data(), bad_phi.size()});
  OPAQ_CHECK_OK(
      raw->SendRequest(WireOp::kQuery, payload.data(), payload.size()));
  auto invalid = raw->ReceiveResponse(WireOp::kQueryResult);
  EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(raw->Ping().ok());

  // A framing lie (payload shorter than the fixed prefix) closes the
  // connection: the stream offset can no longer be trusted.
  uint8_t garbage[4] = {9, 9, 9, 9};
  OPAQ_CHECK_OK(raw->SendRequest(WireOp::kQuery, garbage, sizeof(garbage)));
  auto io_error = raw->ReceiveResponse(WireOp::kQueryResult);
  EXPECT_EQ(io_error.status().code(), StatusCode::kIoError);
  EXPECT_FALSE(raw->Ping().ok());
}

TEST_F(QueryServerTest, ConcurrentExactBatchesShareOnePass) {
  QueryServerOptions options;
  options.exact_admission_delay_seconds = 0.1;
  StartServer(options);
  const std::vector<Request> batch = {
      Request::Quantile(0.5, /*exact=*/true),
      Request::QuantileByRank(10000, /*exact=*/true)};
  auto answers = local_->Query({batch.data(), batch.size()});
  ASSERT_TRUE(answers.ok());
  auto expected = EncodeQueryResultsPayload(*answers);
  ASSERT_TRUE(expected.ok());

  constexpr int kClients = 4;
  std::atomic<bool> go{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kClients; ++t) {
    workers.emplace_back([&]() {
      auto client = QueryClient<Key>::Connect("127.0.0.1", server_->port(),
                                              "bench");
      OPAQ_CHECK_OK(client.status());
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      auto payload = client->QueryPayload({batch.data(), batch.size()});
      OPAQ_CHECK_OK(payload.status());
      if (*payload != *expected) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0)
      << "coalesced exact answers must be byte-identical to solo answers";
  // All four batches arrived inside the 100ms admission window, so the
  // leader folded them into ONE shared §4 pass.
  EXPECT_EQ(server_->exact_passes(), 1u);
}

TEST_F(QueryServerTest, RefreshSwapsEpochsAtomically) {
  // The builder re-reads *data_holder each epoch — exactly how opaq_queryd
  // re-opens its data files on a refresh interval.
  auto data_holder = std::make_shared<std::vector<Key>>(TestData(10000));
  auto shared = std::make_shared<std::shared_ptr<const std::vector<Key>>>(
      std::make_shared<const std::vector<Key>>(*data_holder));
  QueryServer server;
  OPAQ_CHECK_OK(server.Serve<Key>(
      "live", [shared]() -> Result<QuerySession<Key>> {
        Source<Key> source = Source<Key>::FromVector(**shared);
        Engine<Key> engine(SmallConfig(), source);
        return engine.Build();
      }));
  OPAQ_CHECK_OK(server.Start());

  auto client = QueryClient<Key>::Connect("127.0.0.1", server.port(), "live");
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(client->info().epoch, 1u);
  EXPECT_EQ(client->info().total_elements, 10000u);

  // Twice as much data arrives; rebuild and swap.
  *shared = std::make_shared<const std::vector<Key>>(TestData(20000, 11));
  OPAQ_CHECK_OK(server.Refresh("live"));
  auto refreshed = client->OpenSession();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(refreshed->epoch, 2u);
  EXPECT_EQ(refreshed->total_elements, 20000u);

  // Answers now come from the new epoch and match a local session over the
  // new data byte for byte.
  Source<Key> source = Source<Key>::FromVector(**shared);
  Engine<Key> engine(SmallConfig(), source);
  auto local = engine.Build();
  ASSERT_TRUE(local.ok());
  const std::vector<Request> batch = {Request::Quantile(0.5),
                                      Request::EquiQuantiles(4)};
  auto remote = client->QueryPayload({batch.data(), batch.size()});
  ASSERT_TRUE(remote.ok());
  auto answers = local->Query({batch.data(), batch.size()});
  ASSERT_TRUE(answers.ok());
  auto expected = EncodeQueryResultsPayload(*answers);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*remote, *expected);
  server.Stop();
}

// ------------------------------------------------ daemon SIGTERM rows ----

struct DaemonRun {
  int exit_code = -1;
  std::string output;
  std::string address;
};

/// Forks/execs a daemon binary, waits for its "serving on HOST:PORT" line,
/// runs `while_serving(address)`, SIGTERMs it, and collects exit status +
/// full output (stdout and stderr). The real binaries, the real signal
/// path. A daemon that fails at startup just exits; its status is kept.
DaemonRun RunDaemonUntilSigterm(
    const char* binary, const std::vector<std::string>& args,
    const std::function<void(const std::string&)>& while_serving) {
  DaemonRun run;
  int fds[2];
  OPAQ_CHECK(pipe(fds) == 0);
  const pid_t pid = fork();
  OPAQ_CHECK(pid >= 0);
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    dup2(fds[1], STDERR_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary));
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    execv(binary, argv.data());
    _exit(127);
  }
  close(fds[1]);
  FILE* out = fdopen(fds[0], "r");
  OPAQ_CHECK(out != nullptr);
  char line[512];
  bool serving = false;
  while (fgets(line, sizeof(line), out) != nullptr) {
    run.output += line;
    if (!serving) {
      const std::string text(line);
      const size_t at = text.find("serving on ");
      if (at != std::string::npos) {
        serving = true;
        const size_t start = at + std::string("serving on ").size();
        size_t end = text.find(' ', start);
        if (end == std::string::npos) end = text.find('\n', start);
        run.address = text.substr(start, end - start);
        if (while_serving) while_serving(run.address);
        kill(pid, SIGTERM);
      }
    }
  }
  fclose(out);
  int status = 0;
  OPAQ_CHECK(waitpid(pid, &status, 0) == pid);
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

uint16_t PortOf(const std::string& address) {
  const size_t colon = address.rfind(':');
  OPAQ_CHECK(colon != std::string::npos) << address;
  return static_cast<uint16_t>(
      std::strtoul(address.c_str() + colon + 1, nullptr, 10));
}

std::string WriteTestDataFile(const TempDir& dir, const std::string& name,
                              uint64_t n) {
  const std::string path = dir.FilePath(name);
  auto device = FileBlockDevice::Make(path, FileBlockDevice::Mode::kCreate);
  OPAQ_CHECK_OK(device.status());
  DatasetSpec spec;
  spec.n = n;
  spec.seed = 3;
  OPAQ_CHECK_OK(GenerateDatasetToDevice<Key>(spec, device->get()));
  OPAQ_CHECK_OK((*device)->Sync());
  return path;
}

TEST(DaemonSignalTest, QuerydJoinsCleanlyOnSigterm) {
  auto dir = TempDir::Make("queryd_sig");
  OPAQ_CHECK_OK(dir.status());
  const std::string path = WriteTestDataFile(*dir, "d.opaq", 20000);
  DaemonRun run = RunDaemonUntilSigterm(
      OPAQ_QUERYD_BIN,
      {"--serve=bench=" + path, "--port=0", "--run-size=4096",
       "--samples=64"},
      [](const std::string& address) {
        // A live connection with a query in flight while the signal lands:
        // Stop() must join this connection's thread, not abandon it.
        auto client = QueryClient<Key>::Connect("127.0.0.1",
                                                PortOf(address), "bench");
        OPAQ_CHECK_OK(client.status());
        std::vector<Request> batch = {Request::Quantile(0.5)};
        OPAQ_CHECK_OK(
            client->Query({batch.data(), batch.size()}).status());
      });
  EXPECT_EQ(run.exit_code, 0) << run.output;
  // The final dump is the unified registry rendering: one FormatStatsText
  // block whose rows carry the net.* vocabulary plus the query server's own
  // metrics (the pre-registry ad-hoc counter lines are gone).
  EXPECT_NE(run.output.find("shutdown: signal received; final stats:"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("net.connections_accepted"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("query.exact_passes"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("query.batch_latency_us"), std::string::npos)
      << run.output;
}

TEST(DaemonSignalTest, NodedJoinsCleanlyOnSigterm) {
  auto dir = TempDir::Make("noded_sig");
  OPAQ_CHECK_OK(dir.status());
  const std::string path = WriteTestDataFile(*dir, "d.opaq", 20000);
  DaemonRun run = RunDaemonUntilSigterm(
      OPAQ_NODED_BIN, {"--export=sales=" + path, "--port=0"},
      [](const std::string& address) {
        auto client = NodeClient::Connect("127.0.0.1", PortOf(address));
        OPAQ_CHECK_OK(client.status());
        OPAQ_CHECK_OK(client->Ping());
      });
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("shutdown: signal received; final stats:"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("net.connections_accepted"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("node.exports"), std::string::npos)
      << run.output;
}

// ------------------------------- daemons x storage formats x key types ----

using F64 = double;

/// One dataset both daemons serve: a name plus its files (one path = a
/// plain or extent file, several = stripes) or its live directory.
struct ServedLayout {
  std::string name;
  std::vector<std::string> paths;
  bool live = false;
};

/// Writes the same f64 keys through the library in every layout the
/// daemons take: plain, striped x2, extent (delta, one file), extent
/// (zlib, striped x2) and a two-segment live directory.
std::vector<ServedLayout> WriteF64Layouts(const TempDir& dir) {
  DatasetSpec spec;
  spec.n = 20000;
  spec.seed = 5;
  spec.distribution = Distribution::kNormal;
  const std::vector<F64> data = GenerateDataset<F64>(spec);
  std::vector<std::unique_ptr<FileBlockDevice>> devices;
  auto open = [&](const std::vector<std::string>& paths) {
    std::vector<BlockDevice*> raw;
    for (const std::string& path : paths) {
      auto device =
          FileBlockDevice::Make(path, FileBlockDevice::Mode::kCreate);
      OPAQ_CHECK_OK(device.status());
      raw.push_back(device->get());
      devices.push_back(std::move(device).value());
    }
    return raw;
  };
  const std::vector<ServedLayout> layouts = {
      {"plain", {dir.FilePath("f.opaq")}},
      {"striped", {dir.FilePath("s.s0"), dir.FilePath("s.s1")}},
      {"delta", {dir.FilePath("d.ext")}},
      {"zlib", {dir.FilePath("z.s0"), dir.FilePath("z.s1")}},
      {"live", {dir.FilePath("live")}, true},
  };
  OPAQ_CHECK_OK(WriteDataset(data, open(layouts[0].paths)[0]));
  OPAQ_CHECK_OK(WriteStriped(data, open(layouts[1].paths), 1500).status());
  ExtentWriterOptions options;
  options.extent_elements = 1000;
  options.codec = ExtentCodec::kDelta;
  OPAQ_CHECK_OK(WriteExtents(data, open(layouts[2].paths), options).status());
  options.codec = CodecAvailable(ExtentCodec::kZlib) ? ExtentCodec::kZlib
                                                     : ExtentCodec::kRaw;
  OPAQ_CHECK_OK(WriteExtents(data, open(layouts[3].paths), options).status());
  for (auto& device : devices) OPAQ_CHECK_OK(device->Sync());
  auto live = LiveDataset<F64>::Create(layouts[4].paths[0]);
  OPAQ_CHECK_OK(live.status());
  OPAQ_CHECK_OK(live->Append({data.begin(), data.begin() + 12000}));
  OPAQ_CHECK_OK(live->Append({data.begin() + 12000, data.end()}));
  return layouts;
}

Source<F64> OpenLocal(const ServedLayout& layout) {
  auto source = layout.live ? Source<F64>::OpenLive(layout.paths[0])
                : layout.paths.size() == 1
                    ? Source<F64>::Open(layout.paths[0])
                    : Source<F64>::OpenStriped(layout.paths);
  OPAQ_CHECK_OK(source.status());
  return std::move(source).value();
}

QuerySession<F64> Sketch(const Source<F64>& source) {
  auto session = Engine<F64>(SmallConfig(), source).Build();
  OPAQ_CHECK_OK(session.status());
  return std::move(session).value();
}

std::vector<uint8_t> SketchBytes(const Source<F64>& source) {
  MemoryBlockDevice out;
  OPAQ_CHECK_OK(SaveSampleList(Sketch(source).sample_list(), &out));
  auto size = out.Size();
  OPAQ_CHECK_OK(size.status());
  std::vector<uint8_t> bytes(*size);
  OPAQ_CHECK_OK(out.ReadAt(0, bytes.data(), bytes.size()));
  return bytes;
}

const std::vector<QueryRequest<F64>> kDectiles = {
    QueryRequest<F64>::EquiQuantiles(10)};

/// A daemon's dataset list flags: static entries and live directories.
std::vector<std::string> EntryFlags(const std::vector<ServedLayout>& layouts,
                                    const std::string& static_flag,
                                    const std::string& live_flag) {
  std::string fixed, live;
  for (const ServedLayout& layout : layouts) {
    std::string& list = layout.live ? live : fixed;
    list += (list.empty() ? "" : ",") + layout.name + "=";
    for (size_t i = 0; i < layout.paths.size(); ++i) {
      list += (i == 0 ? "" : "+") + layout.paths[i];
    }
  }
  return {"--" + static_flag + "=" + fixed, "--" + live_flag + "=" + live};
}

TEST(DaemonFormatTest, NodedServesEveryLayoutByteIdentically) {
  auto dir = TempDir::Make("noded_formats");
  OPAQ_CHECK_OK(dir.status());
  const std::vector<ServedLayout> layouts = WriteF64Layouts(*dir);
  std::vector<std::string> args = EntryFlags(layouts, "export", "live");
  args.push_back("--port=0");
  std::vector<std::vector<uint8_t>> remote(layouts.size());
  DaemonRun run = RunDaemonUntilSigterm(
      OPAQ_NODED_BIN, args, [&](const std::string& address) {
        for (size_t i = 0; i < layouts.size(); ++i) {
          auto source =
              Source<F64>::OpenRemote(address + "/" + layouts[i].name);
          OPAQ_CHECK_OK(source.status());
          remote[i] = SketchBytes(*source);
        }
      });
  ASSERT_EQ(run.exit_code, 0) << run.output;
  for (size_t i = 0; i < layouts.size(); ++i) {
    EXPECT_FALSE(remote[i].empty()) << layouts[i].name;
    EXPECT_EQ(remote[i], SketchBytes(OpenLocal(layouts[i])))
        << layouts[i].name << " sketches differently through opaq_noded\n"
        << run.output;
  }
}

TEST(DaemonFormatTest, QuerydServesEveryLayoutByteIdentically) {
  auto dir = TempDir::Make("queryd_formats");
  OPAQ_CHECK_OK(dir.status());
  const std::vector<ServedLayout> layouts = WriteF64Layouts(*dir);
  std::vector<std::string> args = EntryFlags(layouts, "serve", "watch");
  const OpaqConfig config = SmallConfig();
  args.insert(args.end(),
              {"--port=0", "--run-size=" + std::to_string(config.run_size),
               "--samples=" + std::to_string(config.samples_per_run)});
  std::vector<std::vector<uint8_t>> remote(layouts.size());
  DaemonRun run = RunDaemonUntilSigterm(
      OPAQ_QUERYD_BIN, args, [&](const std::string& address) {
        for (size_t i = 0; i < layouts.size(); ++i) {
          auto client = QueryClient<F64>::Connect(
              "127.0.0.1", PortOf(address), layouts[i].name);
          OPAQ_CHECK_OK(client.status());
          auto payload =
              client->QueryPayload({kDectiles.data(), kDectiles.size()});
          OPAQ_CHECK_OK(payload.status());
          remote[i] = std::move(payload).value();
        }
      });
  ASSERT_EQ(run.exit_code, 0) << run.output;
  for (size_t i = 0; i < layouts.size(); ++i) {
    auto local =
        Sketch(OpenLocal(layouts[i])).Query({kDectiles.data(),
                                             kDectiles.size()});
    ASSERT_TRUE(local.ok());
    auto expected = EncodeQueryResultsPayload(*local);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(remote[i], *expected)
        << layouts[i].name << " answers differently through opaq_queryd\n"
        << run.output;
  }
}

TEST(DaemonFormatTest, DaemonsRefuseAnElementSizeThatDisagreesWithTheKey) {
  // f32-tagged files whose headers claim 8-byte elements, plain and
  // extent: serving them would copy 8 bytes per element into 4-byte key
  // buffers, so both daemons must refuse them at startup with exit 1.
  auto dir = TempDir::Make("daemon_element_size");
  OPAQ_CHECK_OK(dir.status());
  const std::string plain = dir->FilePath("p.opaq");
  const std::string extent = dir->FilePath("e.ext");
  {
    auto device = FileBlockDevice::Make(plain, FileBlockDevice::Mode::kCreate);
    OPAQ_CHECK_OK(device.status());
    auto file = DataFile::Create(device->get(), KeyType::kF32, 8, 64);
    OPAQ_CHECK_OK(file.status());
    const std::vector<uint64_t> values(64, 1);
    OPAQ_CHECK_OK(file->WriteElements(0, values.size(), values.data()));
    OPAQ_CHECK_OK((*device)->Sync());
  }
  {
    auto device =
        FileBlockDevice::Make(extent, FileBlockDevice::Mode::kCreate);
    OPAQ_CHECK_OK(device.status());
    ExtentWriterOptions options;
    options.extent_elements = 16;
    auto writer =
        ExtentWriter::Create({device->get()}, KeyType::kF32, 8, options);
    OPAQ_CHECK_OK(writer.status());
    const std::vector<uint64_t> values(64, 1);
    OPAQ_CHECK_OK(writer->Append(values.data(), values.size()));
    OPAQ_CHECK_OK(writer->Finish());
    OPAQ_CHECK_OK((*device)->Sync());
  }
  for (const std::string& path : {plain, extent}) {
    for (const auto& [binary, flag] :
         {std::pair<const char*, std::string>{OPAQ_NODED_BIN, "--export"},
          {OPAQ_QUERYD_BIN, "--serve"}}) {
      SCOPED_TRACE(std::string(binary) + " " + path);
      bool served = false;
      DaemonRun run = RunDaemonUntilSigterm(
          binary, {flag + "=bad=" + path, "--port=0"},
          [&](const std::string&) { served = true; });
      EXPECT_FALSE(served) << run.output;
      EXPECT_EQ(run.exit_code, 1) << run.output;
      EXPECT_NE(run.output.find("different key type"), std::string::npos)
          << run.output;
    }
  }
}

}  // namespace
}  // namespace opaq
