#ifndef OPAQ_NET_EXPORT_SPEC_H_
#define OPAQ_NET_EXPORT_SPEC_H_

#include <string>
#include <vector>

#include "util/flags.h"
#include "util/status.h"

namespace opaq {

/// One parsed `--export` entry: a dataset name plus the path(s) backing it
/// (one path = a plain data file, several = the stripes of one striped
/// file, logical order).
struct ExportSpecEntry {
  std::string name;
  std::vector<std::string> paths;
};

/// Parses `opaq_noded`'s `--export` value:
/// "name=path[+path...][,name=path...]". Each entry splits on its FIRST
/// '=' — names cannot contain '=', but paths can ("ds=/data/run=3.opaq"
/// works). Duplicate dataset names are a hard error (silently letting the
/// last one win would serve different bytes than the operator listed), as
/// are empty names, empty path lists, and empty stripe paths.
Result<std::vector<ExportSpecEntry>> ParseExportSpecs(
    const std::string& text);

/// A daemon's two dataset lists: static datasets (`opaq_noded --export`,
/// `opaq_queryd --serve`) and live dataset directories (`--live`,
/// `--watch`).
struct DaemonEntries {
  std::vector<ExportSpecEntry> fixed;
  std::vector<ExportSpecEntry> live;
};

/// Parses the two lists from the flags named `static_flag` and `live_flag`
/// (either may be absent). Each live entry must name exactly one directory,
/// and no name may appear in both lists.
Result<DaemonEntries> ParseDaemonEntries(const Flags& flags,
                                         const std::string& static_flag,
                                         const std::string& live_flag);

}  // namespace opaq

#endif  // OPAQ_NET_EXPORT_SPEC_H_
