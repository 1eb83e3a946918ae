#include "util/command_flags.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>

#include "util/check.h"

namespace opaq {

namespace {

/// How a usage line names the command: "opaq sketch", "opaq_noded".
std::string Invocation(const CommandSpec& spec) {
  std::string out = spec.program;
  if (spec.command != nullptr) out += std::string(" ") + spec.command;
  return out;
}

/// The range check of one numeric flag value against the table's bounds.
Status CheckRange(const FlagSpec& flag, double value) {
  if (value >= flag.min && value <= flag.max) return Status::OK();
  std::ostringstream os;
  os << "--" << flag.name << " must be in [" << flag.min << ", " << flag.max
     << "]";
  return Status::InvalidArgument(os.str());
}

}  // namespace

std::vector<FlagSpec> Concat(std::vector<FlagSpec> a,
                             const std::vector<FlagSpec>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

const FlagSpec& CommandFlags::Spec(const char* name) const {
  const FlagSpec* found = nullptr;
  for (const FlagSpec& flag : spec_.flags) {
    if (std::strcmp(flag.name, name) == 0) found = &flag;
  }
  OPAQ_CHECK(found != nullptr) << "flag --" << name << " is not in '"
                               << Invocation(spec_) << "'s flag table";
  return *found;
}

int64_t CommandFlags::GetInt(const char* name) const {
  return flags_.GetInt(name,
                       std::strtoll(Spec(name).def.c_str(), nullptr, 10));
}

double CommandFlags::GetDouble(const char* name) const {
  return flags_.GetDouble(name,
                          std::strtod(Spec(name).def.c_str(), nullptr));
}

std::string CommandFlags::GetString(const char* name) const {
  return flags_.GetString(name, Spec(name).def);
}

bool CommandFlags::Has(const char* name) const {
  Spec(name);  // declared?
  return flags_.Has(name);
}

Status ValidateFlags(const Flags& flags, const CommandSpec& spec) {
  const std::string see = "; see: " + Invocation(spec) + " --help";
  for (const std::string& key : flags.keys()) {
    if (key == "help") continue;
    bool known = false;
    for (const FlagSpec& flag : spec.flags) {
      if (key == flag.name) known = true;
    }
    if (!known) {
      return Status::InvalidArgument("unknown flag --" + key + " for '" +
                                     Invocation(spec) + "'" + see);
    }
  }
  for (const FlagSpec& flag : spec.flags) {
    if (flag.required && !flags.Has(flag.name)) {
      return Status::InvalidArgument("'" + Invocation(spec) + "' needs --" +
                                     flag.name + " (" + flag.maps_to + ")" +
                                     see);
    }
    if (!flags.Has(flag.name)) continue;
    if (flag.type == FlagType::kInt) {
      auto value = flags.TryGetInt(flag.name, 0);
      if (!value.ok()) return value.status();
      OPAQ_RETURN_IF_ERROR(CheckRange(flag, static_cast<double>(*value)));
    } else if (flag.type == FlagType::kDouble) {
      auto value = flags.TryGetDouble(flag.name, 0.0);
      if (!value.ok()) return value.status();
      OPAQ_RETURN_IF_ERROR(CheckRange(flag, *value));
    }
  }
  // A subcommand's own name is its first positional; anything further is
  // only legal for specs that declare positionals (merge's input sketches).
  const size_t consumed = spec.command != nullptr ? 1 : 0;
  if (spec.positional == nullptr && flags.positional().size() > consumed) {
    return Status::InvalidArgument(
        "'" + Invocation(spec) + "' takes no positional arguments (got '" +
        flags.positional()[consumed] + "'); did you mean a --flag?" + see);
  }
  return Status::OK();
}

void PrintCommandHelp(const CommandSpec& spec, std::ostream& os) {
  os << "usage: " << Invocation(spec);
  if (!spec.flags.empty()) os << " [flags]";
  if (spec.positional != nullptr) os << " " << spec.positional;
  os << "\n  " << spec.summary << "\n";
  if (spec.flags.empty()) return;
  os << "\nflags (default -> what it sets):\n";
  size_t width = 0;
  auto label = [](const FlagSpec& flag) {
    return "--" + std::string(flag.name) + "=" +
           (flag.def.empty() ? "..." : flag.def);
  };
  for (const FlagSpec& flag : spec.flags) {
    width = std::max(width, label(flag).size());
  }
  for (const FlagSpec& flag : spec.flags) {
    std::string head = label(flag);
    os << "  " << head << std::string(width - head.size() + 2, ' ')
       << flag.maps_to << (flag.required ? "  (required)" : "") << "\n"
       << std::string(width + 4, ' ') << flag.help << "\n";
  }
}

int UsageError(const Status& error, const CommandSpec& spec) {
  std::cerr << "error: " << error.message() << "\n\n";
  PrintCommandHelp(spec, std::cerr);
  return 2;
}

}  // namespace opaq
