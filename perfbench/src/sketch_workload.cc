// sketch-plain and sketch-packed: one pass over a page-cached dataset of
// 16 Mi u64 keys, then the nine dectiles recovered exactly by one shared
// §4 pass, with the freshly built session served over loopback TCP.
//
// sketch-plain stores uniform keys with the paper's 10% duplicates as a
// plain file and reads it synchronously, so the sample phase is CPU-bound
// and selection dominates. sketch-packed stores Zipf (z = 0.86) keys as
// delta-coded 64 Ki-element extents read through the async prefetcher at
// its default depth, so the io layer and extent decode do real work.
//
// One measured pass is a `QueryServer::Refresh` whose session factory runs
// `Source::Open` -> `Engine::Build`, then the exact dectile batch in
// process, the exact dectile batch over a `QueryClient`, and a query phase
// in which two more connections send estimate batches back to back.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "perfbench.h"
#include "trace.h"

namespace perfbench {
namespace {

using opaq::QueryClient;
using opaq::QuerySession;
using opaq::Source;

constexpr uint64_t kKeys = uint64_t{16} << 20;
constexpr int kSetupRepeats = 3;
constexpr int kMinPasses = 5;
constexpr int kQueryClients = 2;
constexpr auto kQueryPhase = std::chrono::milliseconds(600);
constexpr size_t kLatencyWindow = 1000;
constexpr uint64_t kProbeSegmentKeys = uint64_t{1} << 20;
constexpr uint64_t kProbeSegments = 4;
constexpr const char* kSession = "bench";

/// Writes `keys` through the library's writer for the workload's storage
/// format and makes the file durable.
opaq::Status WriteDataFile(const std::vector<Key>& keys,
                           const std::string& path, bool packed) {
  auto device = opaq::FileBlockDevice::Make(
      path, opaq::FileBlockDevice::Mode::kCreate);
  if (!device.ok()) return device.status();
  if (packed) {
    opaq::ExtentWriterOptions writer;
    writer.codec = opaq::ExtentCodec::kDelta;
    auto stats = opaq::WriteExtents(keys, {device->get()}, writer);
    if (!stats.ok()) return stats.status();
  } else {
    OPAQ_RETURN_IF_ERROR(opaq::WriteDataset(keys, device->get()));
  }
  return (*device)->Sync();
}

/// What the session factory leaves behind for the pass that triggered it.
struct BuiltPass {
  std::mutex mutex;
  double build_seconds = 0;
  opaq::EngineStats stats;
  std::shared_ptr<const QuerySession<Key>> session;
};

struct PassTimes {
  double build_s = 0;
  double refresh_s = 0;
  double exact_s = 0;
  double exact_wire_s = 0;
  LatencyWindows queries{kLatencyWindow};
};

class SketchWorkload {
 public:
  SketchWorkload(const Options& options, bool packed)
      : options_(options),
        packed_(packed),
        config_(BenchConfig(packed ? opaq::IoMode::kAsync
                                   : opaq::IoMode::kSync)),
        path_(options.work_dir + "/" + options.workload + ".opaq") {}

  int Run() {
    if (!SetUp()) return Finish();
    if (options_.trace) {
      TracedRun();
    } else {
      MeasuredRun();
    }
    return Finish();
  }

 private:
  /// Makes the inputs from the seed, writes the dataset several times to
  /// time the set-up, then starts the server, whose first build is the
  /// untimed warm-up pass.
  bool SetUp() {
    opaq::DatasetSpec spec;
    spec.n = kKeys;
    spec.seed = options_.seed;
    spec.distribution =
        packed_ ? opaq::Distribution::kZipf : opaq::Distribution::kUniform;
    spec.duplicate_fraction = 0.1;
    spec.zipf_z = 0.86;
    std::vector<Key> keys = opaq::GenerateDataset<Key>(spec);
    truth_ = GroundTruth(keys, DectileRanks(kKeys));
    if (options_.trace) {
      probe_keys_.assign(keys.begin(),
                         keys.begin() + kProbeSegments * kProbeSegmentKeys);
    }

    for (int i = 0; i < kSetupRepeats; ++i) {
      const Clock::time_point start = Clock::now();
      opaq::Status written = WriteDataFile(keys, path_, packed_);
      if (!written.ok()) {
        report_.Fail("writing " + path_ + ": " + written.ToString());
        return false;
      }
      auto source = Source<Key>::Open(path_);
      if (!source.ok()) {
        report_.Fail("opening " + path_ + ": " + source.status().ToString());
        return false;
      }
      setup_seconds_.push_back(SecondsSince(start));
    }
    std::vector<Key>().swap(keys);
    stored_bytes_ = std::filesystem::file_size(path_);

    server_ = std::make_unique<opaq::QueryServer>();
    opaq::Status served = server_->Serve<Key>(
        kSession, [this]() -> opaq::Result<QuerySession<Key>> {
          return Build();
        });
    if (served.ok()) served = server_->Start();
    if (!served.ok()) {
      report_.Fail("starting the query server: " + served.ToString());
      return false;
    }
    auto client =
        QueryClient<Key>::Connect("127.0.0.1", server_->port(), kSession);
    if (!client.ok()) {
      report_.Fail("connecting: " + client.status().ToString());
      return false;
    }
    client_ = std::make_unique<QueryClient<Key>>(std::move(client).value());
    for (int c = 0; c < kQueryClients; ++c) {
      auto query_client =
          QueryClient<Key>::Connect("127.0.0.1", server_->port(), kSession);
      if (!query_client.ok()) {
        report_.Fail("connecting: " + query_client.status().ToString());
        return false;
      }
      query_clients_.push_back(std::make_unique<QueryClient<Key>>(
          std::move(query_client).value()));
    }

    std::shared_ptr<const QuerySession<Key>> session = Latest();
    first_list_ = SampleListBytes(session->sample_list());
    auto warm = session->Query(
        {exact_batch_.data(), exact_batch_.size()});
    report_.Attempt();
    if (!warm.ok()) {
      report_.Fail("warm-up exact batch: " + warm.status().ToString());
      return false;
    }
    CheckExactAnswers(*warm, truth_, "warm-up exact batch", &report_);

    std::printf("data keys=%llu logical_bytes=%llu stored_bytes=%llu "
                "runs=%llu samples=%zu max_rank_error=%llu format=%s\n",
                static_cast<unsigned long long>(kKeys),
                static_cast<unsigned long long>(kKeys * sizeof(Key)),
                static_cast<unsigned long long>(stored_bytes_),
                static_cast<unsigned long long>(built_.stats.runs),
                session->sample_list().samples().size(),
                static_cast<unsigned long long>(session->max_rank_error()),
                packed_ ? "extent/delta/64Ki async depth 2"
                        : "plain sync");
    return report_.ok();
  }

  /// The session factory: open the file and sketch it, recording what the
  /// build measured for the pass that triggered it.
  opaq::Result<QuerySession<Key>> Build() {
    auto source = Source<Key>::Open(path_);
    if (!source.ok()) return source.status();
    opaq::EngineStats stats;
    const Clock::time_point start = Clock::now();
    auto session = BuildSession(config_, *source, &stats);
    const double seconds = SecondsSince(start);
    if (!session.ok()) return session;
    std::lock_guard<std::mutex> lock(built_.mutex);
    built_.build_seconds = seconds;
    built_.stats = stats;
    built_.session = std::make_shared<const QuerySession<Key>>(*session);
    return session;
  }

  std::shared_ptr<const QuerySession<Key>> Latest() {
    std::lock_guard<std::mutex> lock(built_.mutex);
    return built_.session;
  }

  /// One measured pass; failures are counted in the report.
  PassTimes Pass(uint64_t pass_index) {
    PassTimes times;
    report_.Attempt();
    {
      Span span("server.refresh");
      const Clock::time_point start = Clock::now();
      opaq::Status refreshed = server_->Refresh(kSession);
      times.refresh_s = SecondsSince(start);
      if (!refreshed.ok()) {
        report_.Fail("refresh: " + refreshed.ToString());
        return times;
      }
    }
    std::shared_ptr<const QuerySession<Key>> session = Latest();
    {
      std::lock_guard<std::mutex> lock(built_.mutex);
      times.build_s = built_.build_seconds;
    }
    if (SampleListBytes(session->sample_list()) != first_list_) {
      report_.Fail("pass " + std::to_string(pass_index) +
                   ": sample list differs from the first pass's");
    }

    report_.Attempt();
    {
      Span span("exact.query");
      const Clock::time_point start = Clock::now();
      auto exact = session->Query({exact_batch_.data(), exact_batch_.size()});
      times.exact_s = SecondsSince(start);
      if (!exact.ok()) {
        report_.Fail("exact batch: " + exact.status().ToString());
      } else {
        CheckExactAnswers(*exact, truth_, "exact batch", &report_);
      }
    }

    report_.Attempt();
    {
      Span span("client.exact_query");
      const Clock::time_point start = Clock::now();
      auto exact =
          client_->Query({exact_batch_.data(), exact_batch_.size()});
      times.exact_wire_s = SecondsSince(start);
      if (!exact.ok()) {
        report_.Fail("exact batch over the wire: " +
                     exact.status().ToString());
      } else {
        CheckExactAnswers(*exact, truth_, "exact batch over the wire",
                          &report_);
      }
    }
    QueryPhase(pass_index, &times.queries);
    return times;
  }

  /// The pass's query phase: every query connection sends estimate batches
  /// back to back (a closed loop) for `kQueryPhase`.
  void QueryPhase(uint64_t pass_index, LatencyWindows* windows) {
    struct Log {
      LatencyWindows windows{kLatencyWindow};
      uint64_t attempted = 0;
      std::vector<std::string> failures;
    };
    std::vector<Log> logs(query_clients_.size());
    const Clock::time_point deadline = Clock::now() + kQueryPhase;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < query_clients_.size(); ++c) {
      threads.emplace_back([&, c] {
        QueryClient<Key>& client = *query_clients_[c];
        for (uint64_t b = 0; Clock::now() < deadline; ++b) {
          const auto batch = EstimateBatch(
              (pass_index * query_clients_.size() + c) << 32 | b, kKeys);
          ++logs[c].attempted;
          Span span("client.query");
          const Clock::time_point start = Clock::now();
          auto answers = client.Query({batch.data(), batch.size()});
          logs[c].windows.Add(SecondsSince(start) * 1e6);
          if (!answers.ok()) {
            logs[c].failures.push_back("query: " +
                                       answers.status().ToString());
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const Log& log : logs) {
      report_.Attempt(log.attempted);
      for (const std::string& failure : log.failures) report_.Fail(failure);
      windows->Merge(log.windows);
    }
  }

  void MeasuredRun() {
    ResetPeakRss();
    std::vector<double> build_s, refresh_s, exact_s, exact_wire_s;
    LatencyWindows queries(kLatencyWindow);
    const Clock::time_point start = Clock::now();
    uint64_t passes = 0;
    while (passes < kMinPasses || SecondsSince(start) < options_.seconds) {
      const PassTimes times = Pass(passes++);
      std::printf("pass build_s=%.4f refresh_s=%.4f exact_s=%.4f "
                  "exact_wire_s=%.4f query_p50_us=%.2f\n",
                  times.build_s, times.refresh_s, times.exact_s,
                  times.exact_wire_s, times.queries.P50());
      build_s.push_back(times.build_s);
      refresh_s.push_back(times.refresh_s);
      exact_s.push_back(times.exact_s);
      exact_wire_s.push_back(times.exact_wire_s);
      queries.Merge(times.queries);
    }
    const double peak_rss = PeakRssMb();
    std::printf("samples passes=%llu query_windows=%zu x %zu batches "
                "exact_batches=%zu setup_repeats=%d measured_s=%.3f\n",
                static_cast<unsigned long long>(passes), queries.windows(),
                queries.window(), exact_wire_s.size(), kSetupRepeats,
                SecondsSince(start));
    report_.Add("setup_s", Median(setup_seconds_), "s");
    report_.Add("sketch_mkeys_per_s",
                static_cast<double>(kKeys) / Median(build_s) / 1e6,
                "Mkeys/s");
    report_.Add("exact_s", Median(exact_s), "s");
    report_.Add("peak_rss_mb", peak_rss, "MB");
    report_.Add("query_p50_us", queries.P50(), "us");
    report_.Add("query_p90_us", queries.P90(), "us");
    report_.Add("exact_query_ms", Median(exact_wire_s) * 1e3, "ms");
    report_.Add("freshness_ms", Median(refresh_s) * 1e3, "ms");
  }

  /// One pass with every span on, then each layer's probe; see layers.h.
  void TracedRun() {
    const TracedQueries queries = CompareTracedQueries(client_.get());
    const size_t mark = Tracer::Mark();
    const uint64_t passes_before = server_->exact_passes();
    const PassTimes traced = Pass(1);
    const double exact_passes =
        static_cast<double>(server_->exact_passes() - passes_before);
    std::shared_ptr<const QuerySession<Key>> session = Latest();
    opaq::EngineStats stats;
    {
      std::lock_guard<std::mutex> lock(built_.mutex);
      stats = built_.stats;
    }
    const Source<Key>& source = session->sources().front();
    const LayerReplay replay =
        ReplaySampling(source, config_, session->sample_list(), &report_);
    const double read_gbps = DrainGbps(source, config_, &report_);

    // A plain file holds no extents: its decode probe runs on a packed copy
    // of the workload's first keys, and its stored ratio is file bytes over
    // logical bytes.
    std::string extent_path = path_;
    double stored_ratio = static_cast<double>(stored_bytes_) /
                          static_cast<double>(kKeys * sizeof(Key));
    if (packed_) {
      stored_ratio = static_cast<double>(stats.extents.packed_bytes) /
                     static_cast<double>(stats.extents.unpacked_bytes);
    } else {
      extent_path = options_.work_dir + "/decode-probe.opaq";
      WritePackedCopy(probe_keys_, extent_path);
      std::printf("note extent.decode_gbps decodes a packed copy of %zu "
                  "keys; this workload's pass decodes nothing\n",
                  probe_keys_.size());
    }
    const double decode_gbps =
        DecodeGbps(extent_path, config_.verify_checksums, &report_);
    const ExactSplit exact = SplitExactPass(*session, truth_, &report_);
    const double estimate_ns = EstimateNsPerRequest(*session);
    const double codec_us = WireCodecMicros(*session);

    // No live dataset here: the ingest rows append the workload's first
    // keys as segments of a throwaway live dataset, stored like the workload.
    std::vector<std::vector<Key>> segments;
    for (uint64_t first = 0; first < probe_keys_.size();
         first += kProbeSegmentKeys) {
      segments.emplace_back(probe_keys_.begin() + first,
                            probe_keys_.begin() + first + kProbeSegmentKeys);
    }
    const IngestProbe ingest = ProbeIngest(
        segments, options_.work_dir + "/ingest-probe", packed_, config_,
        &report_);
    std::printf("note ingest.append_ms and ingest.absorb_ms append %zu "
                "segments of %llu keys to a throwaway live dataset\n",
                segments.size(),
                static_cast<unsigned long long>(kProbeSegmentKeys));

    const BuildAttribution build = AttributeBuild(mark, replay);
    report_.Add("io.wait_s", build.io_wait_seconds, "s");
    report_.Add("io.read_gbps", read_gbps, "GB/s");
    report_.Add("extent.decode_gbps", decode_gbps, "GB/s");
    report_.Add("extent.stored_ratio", stored_ratio, "ratio");
    report_.Add("select.ns_per_key",
                replay.select_seconds * 1e9 / static_cast<double>(kKeys),
                "ns");
    report_.Add("merge.ms", replay.merge_seconds * 1e3, "ms");
    report_.Add("build.unattributed_s", build.unattributed_seconds, "s");
    report_.Add("exact.scan_s", exact.scan_seconds, "s");
    report_.Add("exact.select_ms", exact.select_seconds * 1e3, "ms");
    report_.Add("exact.kept_per_answer", exact.kept_per_answer, "count");
    report_.Add("estimate.ns_per_request", estimate_ns, "ns");
    report_.Add("wire.codec_us", codec_us, "us");
    report_.Add("net.rtt_other_us",
                queries.untraced_p50_us - 8 * estimate_ns / 1e3 - codec_us,
                "us");
    report_.Add("server.batches_per_pass", 1.0 / exact_passes, "count");
    report_.Add("ingest.append_ms", ingest.append_ms, "ms");
    report_.Add("ingest.absorb_ms", ingest.absorb_ms, "ms");
    report_.Add("ingest.refresh_ms", traced.refresh_s * 1e3, "ms");
    report_.Add("ingest.segments",
                static_cast<double>(session->sources().size()), "count");
    report_.Add("trace.overhead_pct", queries.overhead_pct(), "%");
  }

  int Finish() {
    client_.reset();
    query_clients_.clear();
    if (server_ != nullptr) server_->Stop();
    return FinishRun(options_, report_);
  }

  const Options& options_;
  const bool packed_;
  const opaq::OpaqConfig config_;
  const std::string path_;
  const std::vector<opaq::QueryRequest<Key>> exact_batch_ =
      DectileRequests(kKeys, /*exact=*/true);
  Report report_;
  std::vector<Key> truth_;
  std::vector<Key> probe_keys_;  // the first keys, kept for layer probes
  std::vector<double> setup_seconds_;
  uint64_t stored_bytes_ = 0;
  std::vector<uint8_t> first_list_;
  BuiltPass built_;
  std::unique_ptr<opaq::QueryServer> server_;
  std::unique_ptr<QueryClient<Key>> client_;
  std::vector<std::unique_ptr<QueryClient<Key>>> query_clients_;
};

}  // namespace

int RunSketchWorkload(const Options& options, bool packed) {
  return SketchWorkload(options, packed).Run();
}

}  // namespace perfbench
