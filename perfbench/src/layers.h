// Per-layer probes of the traced run: each times one layer's public call on
// the workload's own data, inside a span named after the layer.
#ifndef PERFBENCH_SRC_LAYERS_H_
#define PERFBENCH_SRC_LAYERS_H_

#include <string>
#include <vector>

#include "perfbench.h"

namespace perfbench {

struct LayerReplay {
  double select_seconds = 0;  // RegularSamplesBySubrunSize, summed over runs
  double merge_seconds = 0;   // SampleListBuilder::Finalize
};

/// Re-runs the sample phase's CPU work outside `Engine::Build`: selection on
/// a copy of each run of `source`, then the final merge. The replayed list
/// must be byte-identical to `expected` (the build's), or the report fails.
LayerReplay ReplaySampling(const opaq::Source<Key>& source,
                           const opaq::OpaqConfig& config,
                           const opaq::SampleList<Key>& expected,
                           Report* report);

struct BuildAttribution {
  double io_wait_seconds = 0;       // io.next_run spans
  double unattributed_seconds = 0;  // the build's self time minus the merge
};

/// Attributes the one traced `Engine::Build` recorded since `mark` to io
/// wait (`io.next_run`), work on runs (`sample.run`) and the replayed
/// merge, and prints the coverage, flagged when below 90% of the build.
BuildAttribution AttributeBuild(size_t mark, const LayerReplay& replay);

/// Delivered (unpacked) GB/s of draining `source` with no consumer.
double DrainGbps(const opaq::Source<Key>& source,
                 const opaq::OpaqConfig& config, Report* report);

struct ExactSplit {
  double scan_seconds = 0;    // internal_exact::AccumulateBrackets
  double select_seconds = 0;  // internal_exact::SelectWithinBrackets
  double kept_per_answer = 0;
};

/// The §4 pass for the dectile brackets of `session`, split into its
/// filter scan (over every attached source in turn) and its in-memory
/// selection. When `truth` is non-empty the answers must equal it.
ExactSplit SplitExactPass(const opaq::QuerySession<Key>& session,
                          const std::vector<Key>& truth, Report* report);

/// Unpacked GB/s of `ExtentFile::DecodeExtent` over every extent of the
/// extent file at `path`, on one thread.
double DecodeGbps(const std::string& path, bool verify_checksums,
                  Report* report);

/// Writes `keys` as a delta-packed extent file at `path`, for the decode
/// probe of workloads whose own storage holds no extents.
void WritePackedCopy(const std::vector<Key>& keys, const std::string& path);

struct IngestProbe {
  double append_ms = 0;  // p50 durable LiveDataset::Append of one segment
  double absorb_ms = 0;  // p50 tail OpenLive + Engine::Build + Absorb
};

/// Ingest layer probe for workloads without a live dataset: appends
/// `segments` to a fresh live dataset in `dir` one at a time, stored like
/// the workload's data (`pack`), absorbing each into a session.
IngestProbe ProbeIngest(const std::vector<std::vector<Key>>& segments,
                        const std::string& dir, bool pack,
                        const opaq::OpaqConfig& config, Report* report);

/// Mean `QuerySession::Query` cost per request over a long loop of
/// 8-request estimate batches.
double EstimateNsPerRequest(const opaq::QuerySession<Key>& session);

struct TracedQueries {
  double untraced_p50_us = 0;
  double traced_p50_us = 0;
  double overhead_pct() const {
    return 100.0 * (traced_p50_us - untraced_p50_us) / untraced_p50_us;
  }
};

/// p50 round trips of estimate batches on one connection, in windows that
/// alternate between tracing off and on, so drift of a shared host cancels
/// out of the comparison. Leaves tracing on.
TracedQueries CompareTracedQueries(opaq::QueryClient<Key>* client);

/// Microseconds to encode and decode one estimate batch and its answers
/// with the wire codecs, as client and server both do per round trip.
double WireCodecMicros(const opaq::QuerySession<Key>& session);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_LAYERS_H_
