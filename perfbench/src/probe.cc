#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "perfbench.h"
#include "trace.h"

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t n = values.size();
  std::sort(values.begin(), values.end());
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

void LatencyWindows::Add(double micros) {
  current_.push_back(micros);
  if (current_.size() < window_) return;
  p50s_.push_back(Percentile(current_, 0.5));
  p90s_.push_back(Percentile(current_, 0.9));
  current_.clear();
}

void LatencyWindows::Merge(const LatencyWindows& other) {
  p50s_.insert(p50s_.end(), other.p50s_.begin(), other.p50s_.end());
  p90s_.insert(p90s_.end(), other.p90s_.begin(), other.p90s_.end());
}

void ResetPeakRss() {
  // "5" resets the VmHWM high-water mark to the current RSS (Linux >= 4.0).
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string MachineFingerprint() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  utsname uts{};
  uname(&uts);
  std::ostringstream out;
  out << "nproc=" << std::thread::hardware_concurrency() << " cpu=\"" << cpu
      << "\" kernel=" << uts.release << " compiler=\"" << PERFBENCH_COMPILER
      << "\" build=" << PERFBENCH_BUILD_TYPE;
  return out.str();
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Fail(const std::string& what) {
  ++failed_;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

void Report::Print() const {
  for (const Metric& metric : metrics_) {
    std::printf("metric %-26s %14.6f %s\n", metric.name.c_str(),
                metric.value, metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed_ == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int FinishRun(const Options& options, const Report& report) {
  if (options.trace) {
    const std::string path =
        options.work_dir + "/trace-" + options.workload + ".json";
    if (Tracer::WriteChromeTrace(path)) {
      std::printf("trace %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "could not write the trace to %s\n", path.c_str());
    }
  }
  report.Print();
  return report.ok() ? 0 : 1;
}

opaq::OpaqConfig BenchConfig(opaq::IoMode io_mode) {
  opaq::OpaqConfig config;
  config.io_mode = io_mode;
  return config;
}

std::vector<uint64_t> DectileRanks(uint64_t n) {
  std::vector<uint64_t> ranks;
  for (uint64_t d = 1; d <= 9; ++d) ranks.push_back((d * n + 9) / 10);
  return ranks;
}

std::vector<opaq::QueryRequest<Key>> DectileRequests(uint64_t n,
                                                     bool exact) {
  std::vector<opaq::QueryRequest<Key>> batch;
  for (uint64_t rank : DectileRanks(n)) {
    batch.push_back(opaq::QueryRequest<Key>::QuantileByRank(rank, exact));
  }
  return batch;
}

std::vector<opaq::QueryRequest<Key>> EstimateBatch(uint64_t index,
                                                   uint64_t n) {
  using Request = opaq::QueryRequest<Key>;
  std::vector<Request> batch;
  for (uint64_t i = 0; i < 8; ++i) {
    const uint64_t salt = index * 1315423911u + i;
    switch (salt % 3) {
      case 0:
        batch.push_back(
            Request::Quantile(static_cast<double>(salt % 997 + 1) / 998.0));
        break;
      case 1:
        batch.push_back(Request::RankOf(salt * 2654435761u));
        break;
      default:
        batch.push_back(Request::QuantileByRank(salt % n + 1));
        break;
    }
  }
  return batch;
}

std::vector<uint8_t> SampleListBytes(const opaq::SampleList<Key>& list) {
  opaq::MemoryBlockDevice device;
  OPAQ_CHECK_OK(opaq::SaveSampleList(list, &device));
  auto size = device.Size();
  OPAQ_CHECK_OK(size.status());
  std::vector<uint8_t> bytes(*size);
  OPAQ_CHECK_OK(device.ReadAt(0, bytes.data(), bytes.size()));
  return bytes;
}

std::vector<Key> GroundTruth(std::vector<Key> keys,
                             const std::vector<uint64_t>& ranks) {
  std::vector<Key> truth;
  for (uint64_t rank : ranks) {
    auto nth = keys.begin() + static_cast<std::ptrdiff_t>(rank - 1);
    std::nth_element(keys.begin(), nth, keys.end());
    truth.push_back(*nth);
  }
  return truth;
}

void CheckExactAnswers(const opaq::QueryResults<Key>& results,
                       const std::vector<Key>& truth, const char* label,
                       Report* report) {
  size_t answer = 0;
  for (const opaq::QueryResult<Key>& result : results.results) {
    for (size_t i = 0; i < result.exact.size(); ++i, ++answer) {
      const opaq::QuantileEstimate<Key>& bracket = result.estimates[i];
      const Key value = result.exact[i];
      if (value < bracket.lower || value > bracket.upper) {
        report->Fail(std::string(label) + ": exact answer " +
                     std::to_string(answer) + " outside its bracket");
      }
      if (!truth.empty() &&
          (answer >= truth.size() || value != truth[answer])) {
        report->Fail(std::string(label) + ": exact answer " +
                     std::to_string(answer) + " differs from ground truth");
      }
    }
  }
  if (!truth.empty() && answer != truth.size()) {
    report->Fail(std::string(label) + ": expected " +
                 std::to_string(truth.size()) + " exact answers, got " +
                 std::to_string(answer));
  }
}

}  // namespace perfbench
