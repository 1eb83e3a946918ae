// serve-live: a `QueryServer` in this process serves a live dataset over
// loopback TCP while a writer appends to it.
//
// The dataset starts as one 16 Mi-key segment. During the measured phase
// two `QueryClient` connections send 8-request estimate batches back to
// back (a closed loop: each waits for its reply), every 3000th batch on
// the first connection is exact-flagged, and one writer thread durably
// appends a 1 Mi-key segment every 250 ms and then calls
// `QueryServer::Refresh`. The session refreshes through the same
// incremental refresher `opaq_queryd --watch` registers: open the unabsorbed
// tail with `Source::OpenLive`, sketch it with `Engine::Build`, and
// `QuerySession::Absorb` it. Three load threads fit the four cores this
// benchmark targets.
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "perfbench.h"
#include "trace.h"

namespace perfbench {
namespace {

using opaq::Engine;
using opaq::QueryClient;
using opaq::QueryRequest;
using opaq::QuerySession;
using opaq::Source;

constexpr uint64_t kBaseKeys = uint64_t{16} << 20;
constexpr uint64_t kSegmentKeys = uint64_t{1} << 20;
constexpr auto kAppendInterval = std::chrono::milliseconds(250);
constexpr uint64_t kExactEvery = 3000;
constexpr int kClients = 2;
constexpr int kSetupRepeats = 3;
constexpr int kExactRepeats = 3;
constexpr uint64_t kGateBatches = 256;
constexpr size_t kLatencyWindow = 1000;
constexpr uint64_t kDecodeProbeKeys = uint64_t{4} << 20;
constexpr const char* kSession = "live";

std::vector<Key> SegmentKeys(uint64_t seed, uint64_t index, uint64_t n) {
  opaq::DatasetSpec spec;
  spec.n = n;
  spec.seed = seed * 1000003 + index;
  spec.distribution = opaq::Distribution::kUniform;
  spec.duplicate_fraction = 0.1;
  return opaq::GenerateDataset<Key>(spec);
}

/// What one load thread measured: a client's estimate round trips and, in
/// `micros`, its exact round trips; or, in `micros`, the writer's times from
/// append to served.
struct ThreadLog {
  LatencyWindows estimates{kLatencyWindow};
  std::vector<double> micros;
  uint64_t attempted = 0;
  std::vector<std::string> failures;
};

class ServeWorkload {
 public:
  explicit ServeWorkload(const Options& options)
      : options_(options), config_(BenchConfig(opaq::IoMode::kSync)) {}

  int Run() {
    if (SetUp()) {
      if (options_.trace) {
        TracedRun();
      } else {
        MeasuredRun();
      }
    }
    if (server_ != nullptr) server_->Stop();
    return FinishRun(options_, report_);
  }

 private:
  /// Creates the live dataset with its base segment and starts the server
  /// over it, several times to time the set-up; the last one stays up.
  bool SetUp() {
    const std::vector<Key> base = SegmentKeys(options_.seed, 0, kBaseKeys);
    for (int i = 0; i < kSetupRepeats; ++i) {
      if (server_ != nullptr) server_->Stop();
      server_.reset();
      dir_ = options_.work_dir + "/live-" + std::to_string(i);
      std::filesystem::remove_all(dir_);
      std::filesystem::create_directories(dir_);
      const Clock::time_point start = Clock::now();
      auto live = opaq::LiveDataset<Key>::Create(dir_);
      opaq::Status status = live.status();
      if (status.ok()) status = live->Append(base);
      if (status.ok()) {
        server_ = std::make_unique<opaq::QueryServer>();
        status = server_->Serve<Key>(
            kSession, [this] { return BuildAll(); },
            [this](const QuerySession<Key>& current) {
              return Absorb(current);
            });
      }
      if (status.ok()) status = server_->Start();
      if (!status.ok()) {
        report_.Fail("set-up: " + status.ToString());
        return false;
      }
      setup_seconds_.push_back(SecondsSince(start));
      if (i + 1 == kSetupRepeats) live_.emplace(std::move(live).value());
    }
    for (int i = 0; i + 1 < kSetupRepeats; ++i) {
      std::filesystem::remove_all(options_.work_dir + "/live-" +
                                  std::to_string(i));
    }
    std::printf("data base_keys=%llu segment_keys=%llu append_every_ms=%lld "
                "clients=%d exact_every=%llu samples=%zu\n",
                static_cast<unsigned long long>(kBaseKeys),
                static_cast<unsigned long long>(kSegmentKeys),
                static_cast<long long>(kAppendInterval.count()), kClients,
                static_cast<unsigned long long>(kExactEvery),
                Latest()->sample_list().samples().size());
    return true;
  }

  /// The session factory: sketch the whole live dataset (epoch 1, and the
  /// fallback when the refresher cannot absorb).
  opaq::Result<QuerySession<Key>> BuildAll() {
    auto source = Source<Key>::OpenLive(dir_);
    if (!source.ok()) return source.status();
    auto session = Engine<Key>(config_, *source).Build();
    if (session.ok()) Publish(*session);
    return session;
  }

  /// The incremental refresher of `opaq_queryd --watch`: sketch only the
  /// segments appended since `current` and absorb their sample list.
  opaq::Result<QuerySession<Key>> Absorb(const QuerySession<Key>& current) {
    Span span("ingest.absorb");
    auto info = opaq::ReadLiveManifestInfo(dir_);
    if (!info.ok()) return info.status();
    const uint64_t have = current.total_elements();
    if (info->total_elements == have) return current;
    if (info->total_elements < have) {
      return opaq::Status::FailedPrecondition("live dataset shrank");
    }
    auto tail = Source<Key>::OpenLive(dir_, have);
    if (!tail.ok()) return tail.status();
    const Clock::time_point start = Clock::now();
    auto delta = BuildSession(config_, *tail);
    const double build_seconds = SecondsSince(start);
    if (!delta.ok()) return delta.status();
    QuerySession<Key> next = current;
    OPAQ_RETURN_IF_ERROR(next.Absorb(delta->sample_list(), {*tail}));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      tail_build_seconds_.push_back(build_seconds);
      tail_keys_.push_back(delta->total_elements());
    }
    Publish(next);
    return next;
  }

  void Publish(const QuerySession<Key>& session) {
    auto copy = std::make_shared<const QuerySession<Key>>(session);
    std::lock_guard<std::mutex> lock(mutex_);
    latest_ = std::move(copy);
  }

  std::shared_ptr<const QuerySession<Key>> Latest() {
    std::lock_guard<std::mutex> lock(mutex_);
    return latest_;
  }

  /// One closed-loop connection until `stop_`.
  void ClientLoop(int id, ThreadLog* log) {
    auto client =
        QueryClient<Key>::Connect("127.0.0.1", server_->port(), kSession);
    ++log->attempted;
    if (!client.ok()) {
      log->failures.push_back("connect: " + client.status().ToString());
      return;
    }
    for (uint64_t b = 1; !stop_.load(std::memory_order_relaxed); ++b) {
      auto batch = EstimateBatch(b * kClients + static_cast<uint64_t>(id),
                                 kBaseKeys);
      const bool exact = id == 0 && b % kExactEvery == 0;
      if (exact) {
        batch[0] = QueryRequest<Key>::Quantile(
            static_cast<double>(b / kExactEvery % 99 + 1) / 100.0, true);
      }
      ++log->attempted;
      Span span(exact ? "client.exact_query" : "client.query");
      const Clock::time_point start = Clock::now();
      auto answers = client->Query({batch.data(), batch.size()});
      const double micros = SecondsSince(start) * 1e6;
      if (exact) {
        log->micros.push_back(micros);
      } else {
        log->estimates.Add(micros);
      }
      if (!answers.ok()) {
        log->failures.push_back("query: " + answers.status().ToString());
        continue;
      }
      if (exact) {
        const auto& result = answers->results[0];
        if (result.exact.size() != 1 ||
            result.exact[0] < result.estimates[0].lower ||
            result.exact[0] > result.estimates[0].upper) {
          log->failures.push_back("exact answer outside its bracket");
        }
      }
    }
  }

  /// Appends a segment every interval and refreshes the server after each.
  void WriterLoop(ThreadLog* log) {
    const Clock::time_point start = Clock::now();
    for (uint64_t i = 1; !stop_.load(); ++i) {
      {
        std::unique_lock<std::mutex> lock(stop_mutex_);
        if (stop_cv_.wait_until(lock, start + i * kAppendInterval,
                                [this] { return stop_.load(); })) {
          return;
        }
      }
      const std::vector<Key> keys = SegmentKeys(options_.seed, i, kSegmentKeys);
      ++log->attempted;
      const uint64_t op = Tracer::NewOp();  // one append, until served
      const Clock::time_point appended = Clock::now();
      opaq::Status status;
      {
        Span span("ingest.append", op);
        status = live_->Append(keys);
      }
      if (status.ok()) {
        Span span("server.refresh", op);
        status = server_->Refresh(kSession);
      }
      if (!status.ok()) {
        log->failures.push_back("append+refresh: " + status.ToString());
        continue;
      }
      log->micros.push_back(SecondsSince(appended) * 1e6);
      ++appends_;
    }
  }

  /// The load phase: clients and writer for `--seconds`.
  void Load(LatencyWindows* estimates, std::vector<double>* exact_us,
            std::vector<double>* freshness_us) {
    std::vector<ThreadLog> logs(kClients + 1);
    stop_ = false;
    std::vector<std::thread> threads;
    for (int id = 0; id < kClients; ++id) {
      threads.emplace_back([this, id, &logs] { ClientLoop(id, &logs[id]); });
    }
    threads.emplace_back([this, &logs] { WriterLoop(&logs[kClients]); });
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options_.seconds));
    {
      std::lock_guard<std::mutex> lock(stop_mutex_);
      stop_ = true;
    }
    stop_cv_.notify_all();
    for (std::thread& thread : threads) thread.join();
    for (int id = 0; id <= kClients; ++id) {
      ThreadLog& log = logs[id];
      report_.Attempt(log.attempted);
      for (const std::string& failure : log.failures) report_.Fail(failure);
      std::vector<double>* out = id == kClients ? freshness_us : exact_us;
      out->insert(out->end(), log.micros.begin(), log.micros.end());
      estimates->Merge(log.estimates);
    }
  }

  /// The gates after the last refresh. The served sample list must equal a
  /// full rebuild over the live directory, and a burst of batches
  /// answered by the server must be byte-identical to that build's answers.
  /// Returns the rebuilt session.
  std::unique_ptr<QuerySession<Key>> CheckServedState() {
    std::shared_ptr<const QuerySession<Key>> served = Latest();
    report_.Attempt();
    auto source = Source<Key>::OpenLive(dir_);
    if (!source.ok()) {
      report_.Fail("open live: " + source.status().ToString());
      return nullptr;
    }
    auto rebuilt = BuildSession(config_, *source);
    if (!rebuilt.ok()) {
      report_.Fail("full rebuild: " + rebuilt.status().ToString());
      return nullptr;
    }
    auto reference =
        std::make_unique<QuerySession<Key>>(std::move(rebuilt).value());
    if (SampleListBytes(served->sample_list()) !=
        SampleListBytes(reference->sample_list())) {
      report_.Fail("served sample list differs from a full rebuild");
    }

    auto client =
        QueryClient<Key>::Connect("127.0.0.1", server_->port(), kSession);
    if (!client.ok()) {
      report_.Fail("connect: " + client.status().ToString());
      return reference;
    }
    const uint64_t n = reference->total_elements();
    for (uint64_t b = 0; b <= kGateBatches; ++b) {
      const auto batch = b == kGateBatches ? DectileRequests(n, true)
                                           : EstimateBatch(b, n);
      report_.Attempt();
      auto payload = client->QueryPayload({batch.data(), batch.size()});
      auto answers = reference->Query({batch.data(), batch.size()});
      if (!payload.ok() || !answers.ok()) {
        report_.Fail("gate batch " + std::to_string(b) + " failed");
        continue;
      }
      auto expected = opaq::EncodeQueryResultsPayload(*answers);
      OPAQ_CHECK_OK(expected.status());
      if (*payload != *expected) {
        report_.Fail("gate batch " + std::to_string(b) +
                     ": served bytes differ from the in-process session");
      }
      if (b == kGateBatches) {
        auto decoded = opaq::DecodeQueryResultsPayload<Key>(
            payload->data(), payload->size());
        OPAQ_CHECK_OK(decoded.status());
        CheckExactAnswers(*decoded, {}, "served exact dectiles", &report_);
      }
    }
    return reference;
  }

  /// The exact dectile batch in process on the served session.
  double TimeExactBatch() {
    std::shared_ptr<const QuerySession<Key>> served = Latest();
    const auto batch = DectileRequests(served->total_elements(), true);
    report_.Attempt();
    Span span("exact.query");
    const Clock::time_point start = Clock::now();
    auto answers = served->Query({batch.data(), batch.size()});
    const double seconds = SecondsSince(start);
    if (!answers.ok()) {
      report_.Fail("exact batch: " + answers.status().ToString());
    } else {
      CheckExactAnswers(*answers, {}, "exact batch", &report_);
    }
    return seconds;
  }

  /// Bytes of the live dataset's segment files.
  uint64_t StoredBytes() const {
    uint64_t stored = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().filename().string().rfind("seg-", 0) == 0) {
        stored += entry.file_size();
      }
    }
    return stored;
  }

  double TailMkeysPerSecond() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> rates;
    for (size_t i = 0; i < tail_build_seconds_.size(); ++i) {
      rates.push_back(static_cast<double>(tail_keys_[i]) /
                      tail_build_seconds_[i] / 1e6);
    }
    return Median(rates);
  }

  void MeasuredRun() {
    ResetPeakRss();
    LatencyWindows estimates(kLatencyWindow);
    std::vector<double> exact_us, freshness_us;
    Load(&estimates, &exact_us, &freshness_us);
    const double peak_rss = PeakRssMb();
    std::vector<double> exact_s;
    for (int i = 0; i < kExactRepeats; ++i) {
      exact_s.push_back(TimeExactBatch());
    }
    CheckServedState();
    std::shared_ptr<const QuerySession<Key>> served = Latest();
    std::printf("data final_keys=%llu stored_bytes=%llu segments=%zu "
                "samples=%zu\n",
                static_cast<unsigned long long>(served->total_elements()),
                static_cast<unsigned long long>(StoredBytes()),
                served->sources().size(),
                served->sample_list().samples().size());
    std::printf("samples query_windows=%zu x %zu batches exact_batches=%zu "
                "appends=%llu tail_builds=%zu exact_repeats=%d "
                "setup_repeats=%d\n",
                estimates.windows(), estimates.window(), exact_us.size(),
                static_cast<unsigned long long>(appends_.load()),
                tail_build_seconds_.size(), kExactRepeats, kSetupRepeats);
    report_.Add("setup_s", Median(setup_seconds_), "s");
    report_.Add("sketch_mkeys_per_s", TailMkeysPerSecond(), "Mkeys/s");
    report_.Add("exact_s", Median(exact_s), "s");
    report_.Add("peak_rss_mb", peak_rss, "MB");
    report_.Add("query_p50_us", estimates.P50(), "us");
    report_.Add("query_p90_us", estimates.P90(), "us");
    report_.Add("exact_query_ms", Median(exact_us) / 1e3, "ms");
    report_.Add("freshness_ms", Median(freshness_us) / 1e3, "ms");
  }

  /// The load phase with every span on, then each layer's probe; see
  /// layers.h.
  void TracedRun() {
    auto client =
        QueryClient<Key>::Connect("127.0.0.1", server_->port(), kSession);
    OPAQ_CHECK_OK(client.status());
    const TracedQueries queries = CompareTracedQueries(&*client);
    const size_t mark = Tracer::Mark();
    const uint64_t passes_before = server_->exact_passes();
    LatencyWindows estimates(kLatencyWindow);
    std::vector<double> exact_us, freshness_us;
    Load(&estimates, &exact_us, &freshness_us);
    const double passes =
        static_cast<double>(server_->exact_passes() - passes_before);
    std::shared_ptr<const QuerySession<Key>> served = Latest();

    const size_t rebuild_mark = Tracer::Mark();
    std::unique_ptr<QuerySession<Key>> reference = CheckServedState();
    if (reference == nullptr) return;
    const Source<Key>& source = reference->sources().front();
    const LayerReplay replay = ReplaySampling(
        source, config_, reference->sample_list(), &report_);
    const double read_gbps = DrainGbps(source, config_, &report_);
    const ExactSplit exact = SplitExactPass(*served, {}, &report_);
    const double estimate_ns = EstimateNsPerRequest(*served);
    const double codec_us = WireCodecMicros(*served);
    // Live segments are stored plain: the decode probe runs on a packed
    // copy of keys drawn like the base segment's.
    const std::string extent_path = options_.work_dir + "/decode-probe.opaq";
    WritePackedCopy(SegmentKeys(options_.seed, 0, kDecodeProbeKeys),
                    extent_path);
    const double decode_gbps =
        DecodeGbps(extent_path, config_.verify_checksums, &report_);

    const uint64_t stored = StoredBytes();
    const BuildAttribution build = AttributeBuild(rebuild_mark, replay);
    report_.Add("io.wait_s", build.io_wait_seconds, "s");
    report_.Add("io.read_gbps", read_gbps, "GB/s");
    report_.Add("extent.decode_gbps", decode_gbps, "GB/s");
    report_.Add("extent.stored_ratio",
                static_cast<double>(stored) /
                    static_cast<double>(reference->total_elements() *
                                        sizeof(Key)),
                "ratio");
    report_.Add("select.ns_per_key",
                replay.select_seconds * 1e9 /
                    static_cast<double>(reference->total_elements()),
                "ns");
    report_.Add("merge.ms", replay.merge_seconds * 1e3, "ms");
    report_.Add("build.unattributed_s", build.unattributed_seconds, "s");
    report_.Add("exact.scan_s", exact.scan_seconds, "s");
    report_.Add("exact.select_ms", exact.select_seconds * 1e3, "ms");
    report_.Add("exact.kept_per_answer", exact.kept_per_answer, "count");
    report_.Add("estimate.ns_per_request", estimate_ns, "ns");
    report_.Add("wire.codec_us", codec_us, "us");
    report_.Add("net.rtt_other_us",
                estimates.P50() - 8 * estimate_ns / 1e3 -
                    codec_us,
                "us");
    report_.Add("server.batches_per_pass",
                static_cast<double>(exact_us.size()) / passes, "count");
    report_.Add("ingest.append_ms",
                Median(Tracer::Totals("ingest.append", mark).durations) * 1e3,
                "ms");
    report_.Add("ingest.absorb_ms",
                Median(Tracer::Totals("ingest.absorb", mark).durations) * 1e3,
                "ms");
    report_.Add("ingest.refresh_ms",
                Median(Tracer::Totals("server.refresh", mark).durations) *
                    1e3,
                "ms");
    report_.Add("ingest.segments",
                static_cast<double>(served->sources().size()), "count");
    report_.Add("trace.overhead_pct", queries.overhead_pct(), "%");
    std::printf("note extent.decode_gbps decodes a packed copy of %llu "
                "keys; live segments are stored plain\n",
                static_cast<unsigned long long>(kDecodeProbeKeys));
  }

  const Options& options_;
  const opaq::OpaqConfig config_;
  Report report_;
  std::string dir_;
  std::vector<double> setup_seconds_;
  std::optional<opaq::LiveDataset<Key>> live_;
  std::unique_ptr<opaq::QueryServer> server_;

  std::mutex mutex_;  // guards the fields below, written by the refresher
  std::shared_ptr<const QuerySession<Key>> latest_;
  std::vector<double> tail_build_seconds_;
  std::vector<uint64_t> tail_keys_;

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> appends_{0};
};

}  // namespace

int RunServeWorkload(const Options& options) {
  return ServeWorkload(options).Run();
}

}  // namespace perfbench
