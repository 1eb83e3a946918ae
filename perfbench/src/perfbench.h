// Shared pieces of the repository benchmark: options, timing, statistics,
// the metric report, and the helpers every workload needs to talk to the
// opaq library (sample-list bytes, dectile requests, ground truth).
#ifndef PERFBENCH_SRC_PERFBENCH_H_
#define PERFBENCH_SRC_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "opaq/opaq.h"

namespace perfbench {

using Key = uint64_t;
using Clock = std::chrono::steady_clock;

/// The command line: `--workload`, `--seed`, `--seconds`, `--trace` and
/// `--work-dir` (where data files, the live dataset and the trace go).
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
};

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Order statistics over a sample of timings; `Percentile` takes the
/// nearest-rank element, so it is always a value that was measured.
double Median(std::vector<double> values);
double Percentile(std::vector<double> values, double p);

/// Round-trip latencies summarised per window of consecutive samples. The
/// reported percentiles are medians over windows, so a slow stretch of a
/// shared host moves them less than it moves a pooled percentile.
class LatencyWindows {
 public:
  explicit LatencyWindows(size_t window) : window_(window) {}
  void Add(double micros);
  /// Appends `other`'s finished windows (from another thread).
  void Merge(const LatencyWindows& other);
  double P50() const { return Median(p50s_); }
  double P90() const { return Median(p90s_); }
  size_t windows() const { return p50s_.size(); }
  size_t window() const { return window_; }

 private:
  size_t window_;
  std::vector<double> current_;
  std::vector<double> p50s_;
  std::vector<double> p90s_;
};

/// Peak resident set size since the last `ResetPeakRss` (Linux VmHWM).
void ResetPeakRss();
double PeakRssMb();

/// One line naming the machine and the build: nproc, CPU model, compiler
/// and build type.
std::string MachineFingerprint();

/// Collects a run's metrics and operation counts and prints the final JSON
/// line. A failed correctness gate counts as a failed operation and makes
/// the process exit non-zero.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  void Attempt(uint64_t operations = 1) { attempted_ += operations; }
  /// Records a failed operation or correctness gate (printed to stderr).
  void Fail(const std::string& what);
  bool ok() const { return failed_ == 0; }
  /// Prints every metric by name and unit, then the JSON result line.
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// The benchmark's sketch configuration: the library's defaults (m = 1 Mi,
/// s = 1024, introselect) with the given I/O mode.
opaq::OpaqConfig BenchConfig(opaq::IoMode io_mode);

/// 1-based ranks of the nine dectiles of `n` elements, ceil(d * n / 10).
std::vector<uint64_t> DectileRanks(uint64_t n);

/// The nine dectile requests, exact-flagged or not.
std::vector<opaq::QueryRequest<Key>> DectileRequests(uint64_t n, bool exact);

/// An estimate batch of 8 requests (quantiles, ranks and by-rank brackets),
/// varied deterministically by `index` like the query daemon's loadgen.
std::vector<opaq::QueryRequest<Key>> EstimateBatch(uint64_t index,
                                                   uint64_t n);

/// `SaveSampleList` bytes: the persisted form two sketches are compared in.
std::vector<uint8_t> SampleListBytes(const opaq::SampleList<Key>& list);

/// True values at `ranks` (1-based), by `nth_element` on a copy of `keys`.
std::vector<Key> GroundTruth(std::vector<Key> keys,
                             const std::vector<uint64_t>& ranks);

/// Checks one answered exact batch: every exact value lies inside its
/// certified bracket and, when `truth` is non-empty, equals it. Failures go
/// to `report`.
void CheckExactAnswers(const opaq::QueryResults<Key>& results,
                       const std::vector<Key>& truth, const char* label,
                       Report* report);

/// Ends a run: writes the trace of a traced run to the work directory,
/// prints the report and returns the exit code (0 only if every gate held).
int FinishRun(const Options& options, const Report& report);

int RunSketchWorkload(const Options& options, bool packed);
int RunServeWorkload(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PERFBENCH_H_
