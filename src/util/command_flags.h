#ifndef OPAQ_UTIL_COMMAND_FLAGS_H_
#define OPAQ_UTIL_COMMAND_FLAGS_H_

#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "util/flags.h"
#include "util/status.h"

namespace opaq {

/// How a flag's text value must parse. Typed entries are pre-validated by
/// `ValidateFlags` before any handler runs, so `--n=` or `--budget=lots`
/// is a usage error (help + exit 2), never an abort inside a getter.
enum class FlagType { kString, kInt, kDouble };

/// One flag of one command: its name (dash style), its default as text
/// ("" = no default), the config field or call it maps to, a one-line
/// description, whether the command refuses to run without it, how its
/// value must parse, and the inclusive range a numeric value must fall in.
/// The table is the single source of truth — lookup defaults, validation
/// and --help are all generated from it, so they cannot drift apart.
struct FlagSpec {
  const char* name;
  std::string def;
  const char* maps_to;
  const char* help;
  bool required = false;
  FlagType type = FlagType::kString;
  double min = -std::numeric_limits<double>::infinity();
  double max = std::numeric_limits<double>::infinity();
};

/// `a` followed by `b`: flag tables are assembled from shared groups.
std::vector<FlagSpec> Concat(std::vector<FlagSpec> a,
                             const std::vector<FlagSpec>& b);

class CommandFlags;

/// One command's flag table. A multi-command tool (`opaq_cli`) has one
/// spec per subcommand, named by its first positional argument; a
/// single-command tool (the daemons) leaves `command` null.
struct CommandSpec {
  const char* program;
  const char* command;     // e.g. "sketch"; nullptr for single-command tools
  const char* summary;
  const char* positional;  // e.g. "IN1 IN2 [IN3 ...]"; nullptr if none
  std::vector<FlagSpec> flags;
  int (*run)(const CommandFlags& flags) = nullptr;
};

/// Flag access bound to one command's table: defaults come from the table,
/// and asking for a flag the table does not declare dies loudly (catching
/// code/table drift in the smoke tests). Only valid after `ValidateFlags`
/// accepted the flags, so the getters never abort on user input.
class CommandFlags {
 public:
  CommandFlags(const Flags& flags, const CommandSpec& spec)
      : flags_(flags), spec_(spec) {}

  int64_t GetInt(const char* name) const;
  double GetDouble(const char* name) const;
  std::string GetString(const char* name) const;
  bool Has(const char* name) const;
  const Flags& raw() const { return flags_; }

 private:
  const FlagSpec& Spec(const char* name) const;

  const Flags& flags_;
  const CommandSpec& spec_;
};

/// Rejects flags the table does not declare, refuses to run without the
/// table's required flags, parse- and range-checks every provided numeric
/// value, and rejects positional arguments the spec does not declare — up
/// front, before any data access. `--help` is always accepted.
Status ValidateFlags(const Flags& flags, const CommandSpec& spec);

/// The generated help: usage line, summary, and one row per flag with its
/// default and what it sets.
void PrintCommandHelp(const CommandSpec& spec, std::ostream& os);

/// Bad input is usage, not an internal error: prints `error` and the
/// command's help to stderr and returns 2, the usage exit code every tool
/// shares.
int UsageError(const Status& error, const CommandSpec& spec);

}  // namespace opaq

#endif  // OPAQ_UTIL_COMMAND_FLAGS_H_
