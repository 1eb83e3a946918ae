#include "net/export_spec.h"

#include <set>
#include <sstream>
#include <utility>

namespace opaq {

Result<std::vector<ExportSpecEntry>> ParseExportSpecs(
    const std::string& text) {
  std::vector<ExportSpecEntry> entries;
  std::set<std::string> seen;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    const auto eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= item.size()) {
      return Status::InvalidArgument("bad --export entry '" + item +
                                     "': want name=path[+path...]");
    }
    ExportSpecEntry entry;
    entry.name = item.substr(0, eq);
    if (!seen.insert(entry.name).second) {
      return Status::InvalidArgument(
          "duplicate dataset name '" + entry.name +
          "' in --export: each name must map to exactly one dataset");
    }
    const std::string path_list = item.substr(eq + 1);
    if (path_list.back() == '+') {
      // getline() would silently drop the empty token after a trailing '+'.
      return Status::InvalidArgument(
          "empty stripe path in --export entry '" + item + "'");
    }
    std::stringstream paths(path_list);
    std::string path;
    while (std::getline(paths, path, '+')) {
      if (path.empty()) {
        return Status::InvalidArgument(
            "empty stripe path in --export entry '" + item + "'");
      }
      entry.paths.push_back(path);
    }
    if (entry.paths.empty()) {
      return Status::InvalidArgument("no paths in --export entry '" + item +
                                     "'");
    }
    entries.push_back(std::move(entry));
  }
  if (entries.empty()) {
    return Status::InvalidArgument("--export names no datasets");
  }
  return entries;
}

Result<DaemonEntries> ParseDaemonEntries(const Flags& flags,
                                         const std::string& static_flag,
                                         const std::string& live_flag) {
  DaemonEntries entries;
  if (flags.Has(static_flag)) {
    auto fixed = ParseExportSpecs(flags.GetString(static_flag, ""));
    if (!fixed.ok()) return fixed.status();
    entries.fixed = std::move(fixed).value();
  }
  if (!flags.Has(live_flag)) return entries;
  auto live = ParseExportSpecs(flags.GetString(live_flag, ""));
  if (!live.ok()) return live.status();
  entries.live = std::move(live).value();
  for (const ExportSpecEntry& entry : entries.live) {
    if (entry.paths.size() != 1) {
      return Status::InvalidArgument(
          "--" + live_flag + " entry '" + entry.name +
          "': a live dataset is one directory, not a striped path list");
    }
    for (const ExportSpecEntry& other : entries.fixed) {
      if (other.name == entry.name) {
        return Status::InvalidArgument("name '" + entry.name +
                                       "' appears in both --" + static_flag +
                                       " and --" + live_flag);
      }
    }
  }
  return entries;
}

}  // namespace opaq
