// opaq_perfbench: runs one workload of the repository benchmark.
//
//   opaq_perfbench --workload=sketch-plain|sketch-packed|serve-live
//                  --seed=N --seconds=S --trace=0|1 --work-dir=DIR
//
// With --trace=0 it measures the end-to-end metrics with tracing off; with
// --trace=1 it records spans around every library call, derives the
// per-layer metrics from them and writes DIR/trace-<workload>.json. The
// last line of stdout is the JSON result. The exit code is 0 only when
// every correctness gate held.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench.h"

namespace perfbench {
namespace {

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "workload", &value)) {
      options.workload = value;
    } else if (ParseFlag(arg, "seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "seconds", &value)) {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(arg, "trace", &value)) {
      options.trace = value == "1";
    } else if (ParseFlag(arg, "work-dir", &value)) {
      options.work_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (options.work_dir.empty() || options.seconds <= 0) {
    std::fprintf(stderr, "--work-dir and a positive --seconds are required\n");
    return 2;
  }
  std::printf("machine %s\n", MachineFingerprint().c_str());
  std::printf("run workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);
  if (options.workload == "sketch-plain") {
    return RunSketchWorkload(options, /*packed=*/false);
  }
  if (options.workload == "sketch-packed") {
    return RunSketchWorkload(options, /*packed=*/true);
  }
  if (options.workload == "serve-live") return RunServeWorkload(options);
  std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
