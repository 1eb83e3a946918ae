#ifndef OPAQ_INCLUDE_OPAQ_UTIL_H_
#define OPAQ_INCLUDE_OPAQ_UTIL_H_

/// Public utility surface for tools and demos: the `--key=value` flag
/// parser and the flag tables (`CommandSpec`) every tool's validation and
/// --help are generated from, the daemons' SIGINT/SIGTERM latch,
/// wall/phase timers, project PRNGs, and text-table formatting.

#include "util/command_flags.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/shutdown.h"
#include "util/table.h"
#include "util/timer.h"

#endif  // OPAQ_INCLUDE_OPAQ_UTIL_H_
