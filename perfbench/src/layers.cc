#include "layers.h"

#include <cstdio>
#include <optional>
#include <string>

#include "trace.h"

namespace perfbench {

LayerReplay ReplaySampling(const opaq::Source<Key>& source,
                           const opaq::OpaqConfig& config,
                           const opaq::SampleList<Key>& expected,
                           Report* report) {
  LayerReplay replay;
  // Seeded like the engine's single-shard sketch, so selection takes the
  // same pivots on the same runs.
  opaq::Xoshiro256 rng(config.seed);
  opaq::SampleListBuilder<Key> lists(config.subrun_size());
  auto runs = source.OpenRuns(config.read_options());
  std::vector<Key> run;
  std::vector<Key> copy;
  while (true) {
    report->Attempt();
    auto more = runs->NextRun(&run);
    if (!more.ok()) {
      report->Fail("replay read: " + more.status().ToString());
      return replay;
    }
    if (!*more) break;
    copy.assign(run.begin(), run.end());
    Span span("select.run");
    const Clock::time_point start = Clock::now();
    std::vector<Key> samples = opaq::RegularSamplesBySubrunSize(
        copy.data(), copy.size(), config.subrun_size(),
        config.select_algorithm, rng);
    replay.select_seconds += SecondsSince(start);
    lists.AddRunSamples(std::move(samples), copy.size());
  }
  opaq::SampleList<Key> list;
  {
    Span span("merge.finalize");
    const Clock::time_point start = Clock::now();
    list = lists.Finalize();
    replay.merge_seconds = SecondsSince(start);
  }
  if (SampleListBytes(list) != SampleListBytes(expected)) {
    report->Fail("replayed sample list differs from the build's");
  }
  return replay;
}

BuildAttribution AttributeBuild(size_t mark, const LayerReplay& replay) {
  const SpanTotals build = Tracer::Totals("engine.build", mark);
  const double io_wait = Tracer::Totals("io.next_run", mark).total_seconds;
  const double runs = Tracer::Totals("sample.run", mark).total_seconds;
  const double covered = io_wait + runs + replay.merge_seconds;
  std::printf("attribution build_wall_s=%.4f io_wait_s=%.4f "
              "sample_runs_s=%.4f replayed_select_s=%.4f merge_s=%.4f "
              "covered=%.1f%%%s\n",
              build.total_seconds, io_wait, runs, replay.select_seconds,
              replay.merge_seconds, 100.0 * covered / build.total_seconds,
              covered >= 0.9 * build.total_seconds ? "" : " (below 90%)");
  BuildAttribution attribution;
  attribution.io_wait_seconds = io_wait;
  // Self time already excludes the io.next_run and sample.run children.
  attribution.unattributed_seconds =
      build.self_seconds - replay.merge_seconds;
  return attribution;
}

double DrainGbps(const opaq::Source<Key>& source,
                 const opaq::OpaqConfig& config, Report* report) {
  Span span("io.drain");
  const Clock::time_point start = Clock::now();
  auto runs = source.OpenRuns(config.read_options());
  std::vector<Key> run;
  uint64_t keys = 0;
  while (true) {
    report->Attempt();
    auto more = runs->NextRun(&run);
    if (!more.ok()) {
      report->Fail("drain read: " + more.status().ToString());
      break;
    }
    if (!*more) break;
    keys += run.size();
  }
  return static_cast<double>(keys * sizeof(Key)) / SecondsSince(start) / 1e9;
}

ExactSplit SplitExactPass(const opaq::QuerySession<Key>& session,
                          const std::vector<Key>& truth, Report* report) {
  ExactSplit split;
  std::vector<opaq::QuantileEstimate<Key>> brackets;
  for (uint64_t rank : DectileRanks(session.total_elements())) {
    brackets.push_back(session.estimator().QuantileByRank(rank));
  }
  const uint64_t budget =
      session.exact_memory_budget() != 0
          ? session.exact_memory_budget()
          : opaq::internal_exact::DefaultExactBudget(brackets);
  opaq::internal_exact::BracketAccumulator<Key> acc(brackets.size());
  report->Attempt();
  {
    Span span("exact.scan");
    const Clock::time_point start = Clock::now();
    for (const opaq::Source<Key>& source : session.sources()) {
      opaq::Status scanned = opaq::internal_exact::AccumulateBrackets(
          source.provider(), brackets, session.config().read_options(),
          budget, &acc);
      if (!scanned.ok()) {
        report->Fail("exact scan: " + scanned.ToString());
        return split;
      }
    }
    split.scan_seconds = SecondsSince(start);
  }
  split.kept_per_answer =
      static_cast<double>(acc.held) / static_cast<double>(brackets.size());
  Span span("exact.select");
  const Clock::time_point start = Clock::now();
  auto values = opaq::internal_exact::SelectWithinBrackets(brackets, &acc);
  split.select_seconds = SecondsSince(start);
  if (!values.ok()) {
    report->Fail("exact selection: " + values.status().ToString());
  } else if (!truth.empty() && *values != truth) {
    report->Fail("split exact pass differs from ground truth");
  }
  return split;
}

double DecodeGbps(const std::string& path, bool verify_checksums,
                  Report* report) {
  auto device = opaq::FileBlockDevice::Make(
      path, opaq::FileBlockDevice::Mode::kOpen);
  OPAQ_CHECK_OK(device.status());
  auto file = opaq::ExtentFile::Open({device->get()});
  OPAQ_CHECK_OK(file.status());
  std::vector<uint8_t> packed;
  std::vector<Key> out(file->extent_elements());
  uint64_t bytes = 0;
  Span span("extent.decode_all");
  const Clock::time_point start = Clock::now();
  for (uint64_t e = 0; e < file->num_extents(); ++e) {
    report->Attempt();
    opaq::Status decoded =
        file->DecodeExtent(e, verify_checksums, &packed, out.data());
    if (!decoded.ok()) report->Fail("decode: " + decoded.ToString());
    bytes += file->ExtentLength(e) * sizeof(Key);
  }
  return static_cast<double>(bytes) / SecondsSince(start) / 1e9;
}

void WritePackedCopy(const std::vector<Key>& keys, const std::string& path) {
  auto device = opaq::FileBlockDevice::Make(
      path, opaq::FileBlockDevice::Mode::kCreate);
  OPAQ_CHECK_OK(device.status());
  opaq::ExtentWriterOptions writer;
  writer.codec = opaq::ExtentCodec::kDelta;
  OPAQ_CHECK_OK(opaq::WriteExtents(keys, {device->get()}, writer).status());
}

IngestProbe ProbeIngest(const std::vector<std::vector<Key>>& segments,
                        const std::string& dir, bool pack,
                        const opaq::OpaqConfig& config, Report* report) {
  IngestProbe probe;
  opaq::LiveDatasetOptions options;
  options.pack = pack;
  auto live = opaq::LiveDataset<Key>::Create(dir, options);
  OPAQ_CHECK_OK(live.status());
  std::vector<double> append_s, absorb_s;
  std::optional<opaq::QuerySession<Key>> session;
  for (const std::vector<Key>& segment : segments) {
    report->Attempt();
    const uint64_t have = session ? session->total_elements() : 0;
    Clock::time_point start = Clock::now();
    opaq::Status status;
    {
      Span span("ingest.append");
      status = live->Append(segment);
    }
    append_s.push_back(SecondsSince(start));
    if (!status.ok()) {
      report->Fail("probe append: " + status.ToString());
      break;
    }
    Span span("ingest.absorb");
    start = Clock::now();
    auto tail = opaq::Source<Key>::OpenLive(dir, have);
    OPAQ_CHECK_OK(tail.status());
    auto delta = opaq::Engine<Key>(config, *tail).Build();
    OPAQ_CHECK_OK(delta.status());
    if (!session) {
      session.emplace(std::move(delta).value());
    } else {
      status = session->Absorb(delta->sample_list(), {*tail});
    }
    absorb_s.push_back(SecondsSince(start));
    if (!status.ok()) report->Fail("probe absorb: " + status.ToString());
  }
  probe.append_ms = Median(append_s) * 1e3;
  probe.absorb_ms = Median(absorb_s) * 1e3;
  return probe;
}

TracedQueries CompareTracedQueries(opaq::QueryClient<Key>* client) {
  constexpr int kWindows = 40;
  constexpr size_t kWindow = 200;
  const uint64_t n = client->info().total_elements;
  LatencyWindows untraced(kWindow), traced(kWindow);
  uint64_t b = 0;
  for (int w = 0; w < kWindows; ++w) {
    const bool tracing = w % 2 == 1;
    Tracer::SetEnabled(tracing);
    for (size_t i = 0; i < kWindow; ++i, ++b) {
      const auto batch = EstimateBatch(b, n);
      Span span("client.query");
      const Clock::time_point start = Clock::now();
      auto answers = client->Query({batch.data(), batch.size()});
      (tracing ? traced : untraced).Add(SecondsSince(start) * 1e6);
      OPAQ_CHECK_OK(answers.status());
    }
  }
  Tracer::SetEnabled(true);
  return {untraced.P50(), traced.P50()};
}

double EstimateNsPerRequest(const opaq::QuerySession<Key>& session) {
  constexpr uint64_t kBatches = 200000;
  const uint64_t n = session.total_elements();
  std::vector<std::vector<opaq::QueryRequest<Key>>> batches;
  for (uint64_t i = 0; i < 64; ++i) batches.push_back(EstimateBatch(i, n));
  uint64_t checksum = 0;
  Span span("estimate.loop");
  const Clock::time_point start = Clock::now();
  for (uint64_t i = 0; i < kBatches; ++i) {
    const auto& batch = batches[i % batches.size()];
    auto answers = session.Query({batch.data(), batch.size()});
    checksum += answers.ok() ? answers->results.size() : 0;
  }
  const double seconds = SecondsSince(start);
  OPAQ_CHECK_EQ(checksum, kBatches * 8);
  return seconds * 1e9 / static_cast<double>(kBatches * 8);
}

double WireCodecMicros(const opaq::QuerySession<Key>& session) {
  constexpr uint64_t kRounds = 50000;
  const auto batch = EstimateBatch(7, session.total_elements());
  auto answers = session.Query({batch.data(), batch.size()});
  OPAQ_CHECK_OK(answers.status());
  uint64_t checksum = 0;
  Span span("wire.codec_loop");
  const Clock::time_point start = Clock::now();
  for (uint64_t i = 0; i < kRounds; ++i) {
    const std::vector<uint8_t> request =
        opaq::EncodeQueryPayload<Key>("bench", {batch.data(), batch.size()});
    auto name = opaq::DecodeQueryName(request.data(), request.size());
    OPAQ_CHECK_OK(name.status());
    auto decoded = opaq::DecodeQueryRequests<Key>(
        request.data(), request.size(), name->first);
    OPAQ_CHECK_OK(decoded.status());
    auto reply = opaq::EncodeQueryResultsPayload(*answers);
    OPAQ_CHECK_OK(reply.status());
    auto results =
        opaq::DecodeQueryResultsPayload<Key>(reply->data(), reply->size());
    OPAQ_CHECK_OK(results.status());
    checksum += decoded->size() + results->results.size();
  }
  const double seconds = SecondsSince(start);
  OPAQ_CHECK_EQ(checksum, kRounds * 16);
  return seconds * 1e6 / static_cast<double>(kRounds);
}

}  // namespace perfbench
