// opaq_noded — the OPAQ data-node daemon: exports local datasets (plain,
// striped, or compressed-extent files, any key type) over the wire
// protocol so remote `Engine`s can consume them as shards via
// `Source::OpenRemote`. Every export is typed, so the node is a full
// COMPUTE node: it answers `SampleRuns` / `ExactPass` by running the
// paper's sample phase and §4 filter scan over its own disks and shipping
// only the O(s) results. Clients that stream instead pull each export
// through one op: extent exports ship their stored (packed) extents
// verbatim (`kReadExtents`) and the client decodes, so compression cuts
// bytes-on-wire too; plain, striped and live exports serve element ranges
// (`kReadRange`). Clients need wire v4 or newer. The on-disk format and
// key type are read from each export's header — point --export at any OPAQ
// file; `NodeServer`'s typed `Export` overloads bind the compute hooks, so
// this file only opens files and prints.
//
//   opaq_noded --export=sales=/data/sales.opaq --port=34601
//   opaq_noded --export=logs=/d0/l.s0+/d1/l.s1+/d2/l.s2   # striped dataset
//   opaq_noded --export=a=a.opaq,b=b.opaq --port=0        # 0 = ephemeral
//
// Each --export entry is name=path (plain file) or name=p0+p1+... (the
// stripes of one striped file, logical order); paths may contain '=' —
// only the first '=' of an entry separates the name. Duplicate dataset
// names are a startup error. The node prints one line per dataset plus its
// bound address, then serves until SIGINT/SIGTERM (or for --duration
// seconds, for scripted runs); shutdown is ordered — every connection
// thread is joined and the final traffic counters print. `--help` is
// generated from the flag table below.
//
// SECURITY: the protocol is unauthenticated — the default bind address
// stays on 127.0.0.1; bind 0.0.0.0 only on networks where every peer is
// trusted (see README "Distributed mode").

#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "opaq/ingest.h"
#include "opaq/io.h"
#include "opaq/net.h"
#include "opaq/status.h"
#include "opaq/telemetry.h"
#include "opaq/util.h"

namespace opaq {
namespace noded {
namespace {

int Fail(const Status& status) {
  std::cerr << "opaq_noded: error: " << status.ToString() << std::endl;
  return 1;
}

const CommandSpec& Spec() {
  static const CommandSpec kSpec = {
      "opaq_noded",
      nullptr,
      "serves local OPAQ datasets to remote engines over TCP (wire protocol "
      "v6: node-side compute, range or packed-extent streaming, appends, "
      "stats; clients need v4 or newer)",
      nullptr,
      Concat({
          {"export", "", "NAME=PATH[+PATH...][,NAME=PATH...]",
           "datasets to serve: name=path for a plain or extent file, "
           "name=p0+p1+... for the stripes of a striped one (first '=' "
           "separates the name; duplicate names are an error)"},
          {"live", "", "NAME=DIR[,NAME=DIR...]",
           "live (appendable) dataset directories to serve; the node also "
           "accepts wire v5 APPEND for these (create one first with "
           "`opaq_cli append --live=DIR`)"},
          {"max-read-bytes",
           std::to_string(NodeServerOptions().max_read_bytes),
           "NodeServerOptions::max_read_bytes", "per-request read bound",
           false, FlagType::kInt, 1},
      }, ServingFlags("34601"))};
  return kSpec;
}

using Devices = std::vector<std::unique_ptr<FileBlockDevice>>;

/// Registers `file`, opened over `devices`; the export's owner handle keeps
/// both alive for the server's lifetime.
template <typename K, typename File>
Result<const ExportedDataset*> ExportOpened(NodeServer* server,
                                            const std::string& name,
                                            Devices devices,
                                            Result<File> file) {
  if (!file.ok()) return file.status();
  auto opened = std::make_shared<std::pair<Devices, File>>(
      std::move(devices), std::move(file).value());
  return &server->Export<K>(name, &opened->second, opened);
}

/// Opens one --export entry and registers it. The first file's header
/// names the format and key type: one path is a plain or extent file,
/// several are the stripes of one striped or extent file.
Result<const ExportedDataset*> ExportFiles(NodeServer* server,
                                           const ExportSpecEntry& entry) {
  Devices devices;
  std::vector<BlockDevice*> raw;
  for (const std::string& path : entry.paths) {
    auto device = FileBlockDevice::Make(path, FileBlockDevice::Mode::kOpen);
    if (!device.ok()) return device.status();
    raw.push_back(device->get());
    devices.push_back(std::move(device).value());
  }
  auto prefix = ProbeDataFile(raw[0]);
  if (!prefix.ok()) return prefix.status();
  return VisitKeyType(
      prefix->key_type, [&](auto tag) -> Result<const ExportedDataset*> {
        using K = typename decltype(tag)::type;
        if (prefix->magic == ExtentFileHeader::kMagic) {
          auto file = ExtentFile::Open(raw);
          if (file.ok()) OPAQ_RETURN_IF_ERROR(CheckExtentKeyType<K>(*file));
          return ExportOpened<K>(server, entry.name, std::move(devices),
                                 std::move(file));
        }
        if (raw.size() == 1) {
          return ExportOpened<K>(server, entry.name, std::move(devices),
                                 TypedDataFile<K>::Open(raw[0]));
        }
        return ExportOpened<K>(server, entry.name, std::move(devices),
                               StripedDataFile<K>::Open(raw));
      });
}

/// Opens one --live directory as an appendable export; its manifest names
/// the key type.
Result<ExportedDataset> OpenLive(const std::string& dir) {
  auto info = ReadLiveManifestInfo(dir);
  if (!info.ok()) return info.status();
  return VisitKeyType(info->key_type, [&](auto tag) {
    return OpenLiveExport<typename decltype(tag)::type>(dir);
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
  if (valid.ok() && !flags->Has("export") && !flags->Has("live")) {
    valid = Status::InvalidArgument("nothing to serve: need --export/--live");
  }
  if (!valid.ok()) return UsageError(valid, spec);
  auto entries = ParseDaemonEntries(*flags, "export", "live");
  if (!entries.ok()) return Fail(entries.status());

  const CommandFlags args(*flags, spec);
  NodeServerOptions options;
  options.bind_address = args.GetString("bind");
  options.port = static_cast<uint16_t>(args.GetInt("port"));
  options.max_read_bytes = static_cast<uint64_t>(args.GetInt("max-read-bytes"));
  options.response_delay_seconds = args.GetDouble("delay-ms") / 1000.0;

  NodeServer server(options);
  for (const ExportSpecEntry& entry : entries->fixed) {
    auto dataset = ExportFiles(&server, entry);
    if (!dataset.ok()) {
      return Fail(Status(dataset.status().code(),
                         "export '" + entry.name + "': " +
                             dataset.status().message()));
    }
    const ExportedDataset& exported = **dataset;
    std::cout << "export " << entry.name << ": " << exported.element_count
              << " elements x " << exported.element_size << " bytes ("
              << entry.paths.size()
              << (entry.paths.size() == 1 ? " file" : " stripes");
    if (exported.extent_elements > 0) {
      std::cout << ", " << exported.num_extents << " extents, codec "
                << ExtentCodecName(exported.extent_codec);
    }
    std::cout << ")\n";
  }
  for (const ExportSpecEntry& entry : entries->live) {
    auto dataset = OpenLive(entry.paths[0]);
    if (!dataset.ok()) {
      return Fail(Status(dataset.status().code(),
                         "live export '" + entry.name + "': " +
                             dataset.status().message()));
    }
    std::cout << "live export " << entry.name << ": "
              << dataset->element_count << " elements x "
              << dataset->element_size << " bytes (" << entry.paths[0]
              << ", appendable)\n";
    server.Export(entry.name, std::move(dataset).value());
  }
  // Latch SIGINT/SIGTERM BEFORE Start so no window exists where a signal
  // kills the daemon mid-setup with connection threads unjoined.
  Status signals = ShutdownSignal::Install();
  if (!signals.ok()) return Fail(signals);
  Status started = server.Start();
  if (!started.ok()) return Fail(started);
  std::cout << "serving on " << server.address() << " (protocol v"
            << kMaxWireVersion << ", clients v" << kMinNodeWireVersion
            << "+, unauthenticated; trusted networks only)" << std::endl;

  // Serve until --duration elapses or a signal arrives, whichever first
  // (printing stats every --stats-interval seconds on the way); either way
  // Stop() joins every connection thread and the final stats print.
  const bool signalled =
      ServeUntilShutdown(&server, args.GetDouble("duration"),
                         args.GetDouble("stats-interval"), std::cout);
  server.Stop();
  std::cout << (signalled ? "shutdown: signal received; final stats:\n"
                          : "shutdown: final stats:\n")
            << FormatStatsText(server.StatsSnapshot()) << std::flush;
  return 0;
}

}  // namespace
}  // namespace noded
}  // namespace opaq

int main(int argc, char** argv) { return opaq::noded::Main(argc, argv); }
