// opaq_queryd — the OPAQ query-serving daemon: sketch once, serve millions.
// At startup it runs the paper's one pass over every --serve dataset (plain
// striped or extent files, any key type) and keeps the finished QuerySession
// in memory; from then on every batched phi-quantile / rank-bracket /
// equi-depth request is answered off the sample list in O(1) per bracket —
// no data I/O on the query path. Exact-flagged requests are admission-
// controlled: concurrent arrivals coalesce into ONE shared §4 second pass
// per round (the paper's "additional quantiles cost one extra pass",
// lifted across connections).
//
//   opaq_queryd --serve=sales=/data/sales.opaq --port=34602
//   opaq_queryd --serve=logs=/d0/l.s0+/d1/l.s1      # striped dataset
//   opaq_queryd --serve=a=a.opaq --refresh-interval=300   # epoch rebuilds
//
// Each --serve entry is name=path (plain or extent file) or name=p0+p1+...
// (stripes, logical order), exactly like opaq_noded --export; each --watch
// entry is name=DIR of a live dataset, served by `QueryServer::ServeLive`
// (incremental refreshes). With
// --refresh-interval=N the daemon re-sketches every session every N
// seconds in the background and atomically swaps the new epoch in;
// in-flight queries finish against the epoch they started with. The
// daemon serves until SIGINT/SIGTERM (or --duration seconds); shutdown is
// ordered — every connection thread is joined and the final counters
// print. `--help` is generated from the flag table below.
//
// SECURITY: the protocol is unauthenticated — the default bind address
// stays on 127.0.0.1; bind 0.0.0.0 only on networks where every peer is
// trusted (see README "Query serving").

#include <chrono>
#include <cstdint>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "opaq/io.h"
#include "opaq/net.h"
#include "opaq/opaq.h"
#include "opaq/status.h"
#include "opaq/util.h"

namespace opaq {
namespace queryd {
namespace {

int Fail(const Status& status) {
  std::cerr << "opaq_queryd: error: " << status.ToString() << std::endl;
  return 1;
}

const CommandSpec& Spec() {
  static const CommandSpec kSpec = {
      "opaq_queryd",
      nullptr,
      "sketches local OPAQ datasets once at startup, then serves batched "
      "quantile / rank / equi-depth queries over TCP (wire protocol v3 "
      "queries, v6 stats) off the in-memory sample lists",
      nullptr,
      Concat({
          {"serve", "", "NAME=PATH[+PATH...][,NAME=PATH...]",
           "sessions to build and serve: name=path for a plain or extent "
           "file, name=p0+p1+... for a striped one"},
          {"watch", "", "NAME=DIR[,NAME=DIR...]",
           "LIVE sessions over live dataset directories (see `opaq_cli "
           "append`): refreshes are incremental — only newly appended "
           "segments are sketched and Absorb'd into the serving session "
           "(epoch swap); pair with --refresh-interval"},
          {"run-size", std::to_string(OpaqConfig().run_size),
           "OpaqConfig::run_size", "sketch run size (elements per run)",
           false, FlagType::kInt},
          {"samples", std::to_string(OpaqConfig().samples_per_run),
           "OpaqConfig::samples_per_run",
           "samples kept per run (s; rank error ~ n/s)", false,
           FlagType::kInt},
          {"seed", std::to_string(OpaqConfig().seed), "OpaqConfig::seed",
           "sampling offset seed", false, FlagType::kInt},
          {"refresh-interval", "0", "epoch refresh period",
           "seconds between background session rebuilds (epoch swap; 0 = "
           "never refresh)",
           false, FlagType::kDouble, 0},
          {"exact-delay-ms", "0",
           "QueryServerOptions::exact_admission_delay_seconds",
           "batching window in ms for exact-flagged requests", false,
           FlagType::kDouble, 0},
      }, ServingFlags("34602"))};
  return kSpec;
}

/// Registers one --serve session; the first file's header names the key
/// type. The builder re-opens the file(s) and re-runs the one sketching
/// pass on every call, so each Refresh sees the bytes currently on disk
/// (that IS the epoch semantics — a rewritten dataset is picked up at the
/// next refresh).
Status ServeFiles(QueryServer* server, const ExportSpecEntry& entry,
                  const OpaqConfig& config) {
  auto device =
      FileBlockDevice::Make(entry.paths[0], FileBlockDevice::Mode::kOpen);
  if (!device.ok()) return device.status();
  auto prefix = ProbeDataFile(device->get());
  if (!prefix.ok()) return prefix.status();
  return VisitKeyType(prefix->key_type, [&](auto tag) {
    using K = typename decltype(tag)::type;
    return server->Serve<K>(
        entry.name,
        [paths = entry.paths, config]() -> Result<QuerySession<K>> {
          auto source = paths.size() == 1 ? Source<K>::Open(paths[0])
                                          : Source<K>::OpenStriped(paths);
          if (!source.ok()) return source.status();
          return Engine<K>(config, std::move(source).value()).Build();
        });
  });
}

/// Registers one --watch session; the live manifest names the key type.
Status ServeLive(QueryServer* server, const ExportSpecEntry& entry,
                 const OpaqConfig& config) {
  auto info = ReadLiveManifestInfo(entry.paths[0]);
  if (!info.ok()) return info.status();
  return VisitKeyType(info->key_type, [&](auto tag) {
    return server->ServeLive<typename decltype(tag)::type>(
        entry.name, entry.paths[0], config);
  });
}

int Main(int argc, char** argv) {
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) return Fail(flags.status());
  const CommandSpec& spec = Spec();
  auto help = flags->TryGetBool("help", false);
  if (help.ok() && *help) {
    PrintCommandHelp(spec, std::cout);
    return 0;
  }
  Status valid = help.ok() ? ValidateFlags(*flags, spec) : help.status();
  if (valid.ok() && !flags->Has("serve") && !flags->Has("watch")) {
    valid = Status::InvalidArgument("nothing to serve: need --serve/--watch");
  }
  const CommandFlags args(*flags, spec);
  OpaqConfig config;
  if (valid.ok()) {
    config.run_size = static_cast<uint64_t>(args.GetInt("run-size"));
    config.samples_per_run = static_cast<uint64_t>(args.GetInt("samples"));
    config.seed = static_cast<uint64_t>(args.GetInt("seed"));
    valid = config.Validate();
  }
  if (!valid.ok()) return UsageError(valid, spec);
  auto entries = ParseDaemonEntries(*flags, "serve", "watch");
  if (!entries.ok()) return Fail(entries.status());

  QueryServerOptions options;
  options.bind_address = args.GetString("bind");
  options.port = static_cast<uint16_t>(args.GetInt("port"));
  options.response_delay_seconds = args.GetDouble("delay-ms") / 1000.0;
  options.exact_admission_delay_seconds =
      args.GetDouble("exact-delay-ms") / 1000.0;
  const double refresh_interval = args.GetDouble("refresh-interval");

  QueryServer server(options);
  for (const bool live : {false, true}) {
    const std::string kind = live ? "live session" : "session";
    for (const ExportSpecEntry& entry :
         live ? entries->live : entries->fixed) {
      WallTimer build_timer;
      Status served = live ? ServeLive(&server, entry, config)
                           : ServeFiles(&server, entry, config);
      if (!served.ok()) {
        return Fail(Status(served.code(), kind + " '" + entry.name +
                                              "': " + served.message()));
      }
      auto info = server.SessionInfo(entry.name);
      if (!info.ok()) return Fail(info.status());
      std::cout << kind << " " << entry.name << ": " << info->total_elements
                << " elements sketched to " << info->num_samples
                << " samples (max rank error " << info->max_rank_error
                << ") in " << build_timer.ElapsedSeconds() << " s"
                << (live ? "; refreshes absorb new segments incrementally"
                         : "")
                << "\n";
    }
  }

  // Latch SIGINT/SIGTERM BEFORE Start so no window exists where a signal
  // kills the daemon mid-setup with connection threads unjoined.
  Status signals = ShutdownSignal::Install();
  if (!signals.ok()) return Fail(signals);
  Status started = server.Start();
  if (!started.ok()) return Fail(started);
  std::cout << "serving on " << server.address() << " (protocol v"
            << kQueryWireVersion << ".." << kMaxWireVersion
            << ", unauthenticated; trusted networks only)" << std::endl;

  // Background epoch refresher: rebuild every session each interval and
  // swap atomically; queries keep being answered from the old epoch while
  // a build runs (--watch sessions refresh incrementally via Absorb).
  // Stopped through its own promise (the shutdown latch's pipe has exactly
  // one waiter: main); `refreshes` is read only after the join.
  std::promise<void> stop_refreshing;
  uint64_t refreshes = 0;
  std::thread refresher;
  if (refresh_interval > 0) {
    refresher = std::thread([&, stop = stop_refreshing.get_future()] {
      while (stop.wait_for(std::chrono::duration<double>(refresh_interval)) ==
             std::future_status::timeout) {
        for (const auto* list : {&entries->fixed, &entries->live}) {
          for (const ExportSpecEntry& entry : *list) {
            Status refreshed = server.Refresh(entry.name);
            if (!refreshed.ok()) {
              // The old epoch keeps serving; just log and retry next tick.
              std::cerr << "opaq_queryd: refresh of '" << entry.name
                        << "' failed (still serving the previous epoch): "
                        << refreshed.ToString() << std::endl;
            }
          }
        }
        ++refreshes;
      }
    });
  }

  // Serve until --duration elapses or a signal arrives, whichever first
  // (printing stats every --stats-interval seconds on the way); either way
  // Stop() joins every connection thread and the final stats print.
  const bool signalled =
      ServeUntilShutdown(&server, args.GetDouble("duration"),
                         args.GetDouble("stats-interval"), std::cout);
  if (refresher.joinable()) {
    stop_refreshing.set_value();
    refresher.join();
  }
  server.Stop();
  server.metrics_registry()->GetCounter("query.refreshes")->Set(refreshes);
  std::cout << (signalled ? "shutdown: signal received; final stats:\n"
                          : "shutdown: final stats:\n")
            << FormatStatsText(server.StatsSnapshot()) << std::flush;
  return 0;
}

}  // namespace
}  // namespace queryd
}  // namespace opaq

int main(int argc, char** argv) { return opaq::queryd::Main(argc, argv); }
