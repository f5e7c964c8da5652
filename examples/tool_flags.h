// tool_flags.h: the command-line flags csv_join_tool and
// corpus_discovery_tool share — --threads, --support, --spill-dir,
// --memory-budget and --failpoints — parsed, reported and validated in one
// place, so both tools accept the same values and reject the same bad value
// with the same message. Each tool's own flags stay in its own loop.
//
// Header-only: the examples build one binary per *.cpp file.

#ifndef TJ_EXAMPLES_TOOL_FLAGS_H_
#define TJ_EXAMPLES_TOOL_FLAGS_H_

#include <cstdio>
#include <cstring>

#include "common/failpoint.h"
#include "common/status.h"
#include "common/strings.h"
#include "join/join_engine.h"
#include "table/column.h"
#include "table/spill_arena.h"

namespace tj::cli {

/// Exit code of a rejected command line.
inline constexpr int kUsageExit = 2;

/// Usage lines of the shared flags; each tool's usage text ends with them.
inline constexpr char kSharedUsage[] =
    "  --threads N: worker threads (0 = all cores, default; at most 1024)\n"
    "  --support F: fraction of the learning pairs a transformation must\n"
    "      cover to be applied for the join, in [0, 1] (default 0.05)\n"
    "  --spill-dir DIR: keep table bytes in mmap-backed files under DIR\n"
    "      (inputs larger than RAM; ingest streams block-wise)\n"
    "  --memory-budget BYTES: resident cell-byte budget (k/m/g suffixes\n"
    "      ok; requires --spill-dir); cells past it are released to their\n"
    "      spill files and faulted back in on demand\n"
    "  --failpoints SPEC: arm fault-injection sites, e.g.\n"
    "      'mmap/sync=p:0.5,errno:EIO;mmap/ftruncate=errno:ENOSPC'\n"
    "      (requires a -DTJ_FAILPOINTS=ON build)\n";

/// A tool's usage printer: prints its usage text, returns kUsageExit.
using UsageFn = int (*)(const char* argv0);

/// The one report of a flag value that does not parse or is out of range:
/// "invalid FLAG value 'V'", then the tool's usage. Returns kUsageExit.
inline int InvalidValue(UsageFn usage, const char* argv0, const char* flag,
                        const char* value) {
  std::fprintf(stderr, "invalid %s value '%s'\n", flag, value);
  return usage(argv0);
}

/// What ParseSharedFlag did with argv[*i].
enum class SharedFlag {
  kNotShared,  // not a shared flag (or no value follows): the tool's turn
  kParsed,     // consumed with its value; *i now indexes the value
  kRejected,   // reported on stderr; the tool exits with kUsageExit
};

/// Parses argv[*i] and the value after it when argv[*i] is a shared flag:
/// --threads into *num_threads (unsigned, 0 = all cores, at most 1024: a
/// typo must not ask the OS for millions of threads), --support into
/// join->min_join_support, --spill-dir and --memory-budget into *storage.
/// --failpoints arms its sites at once. Ranges that depend on more than one
/// flag are left to PrepareOptions.
inline SharedFlag ParseSharedFlag(int argc, char** argv, int* i,
                                  UsageFn usage, int* num_threads,
                                  JoinOptions* join, StorageOptions* storage) {
  if (*i + 1 >= argc) return SharedFlag::kNotShared;
  const char* flag = argv[*i];
  const char* value = argv[*i + 1];
  const auto invalid = [&] {
    InvalidValue(usage, argv[0], flag, value);
    return SharedFlag::kRejected;
  };
  if (std::strcmp(flag, "--threads") == 0) {
    // Unsigned: from_chars then rejects any sign or padding, so "-2" and
    // "-0" are errors rather than a clamp or all cores.
    unsigned threads = 0;
    if (!ParseWhole(value, &threads) || threads > 1024) return invalid();
    *num_threads = static_cast<int>(threads);
  } else if (std::strcmp(flag, "--support") == 0) {
    if (!ParseWhole(value, &join->min_join_support)) return invalid();
  } else if (std::strcmp(flag, "--spill-dir") == 0) {
    storage->spill_dir = value;
  } else if (std::strcmp(flag, "--memory-budget") == 0) {
    if (!ParseByteSize(value, &storage->memory_budget_bytes)) return invalid();
  } else if (std::strcmp(flag, "--failpoints") == 0) {
    if (!failpoint::CompiledIn()) {
      std::fprintf(stderr,
                   "--failpoints requires a -DTJ_FAILPOINTS=ON build\n");
      return SharedFlag::kRejected;
    }
    const Status armed = failpoint::ConfigureFromSpec(value);
    if (!armed.ok()) {
      std::fprintf(stderr, "invalid --failpoints spec: %s\n",
                   armed.ToString().c_str());
      return SharedFlag::kRejected;
    }
  } else {
    return SharedFlag::kNotShared;
  }
  ++*i;
  return SharedFlag::kParsed;
}

/// Reports options a ValidateOptions call rejected; returns kUsageExit.
inline int InvalidOptions(const Status& status) {
  std::fprintf(stderr, "invalid options: %s\n", status.ToString().c_str());
  return kUsageExit;
}

/// The step between parsing and work: rejects what the library's
/// ValidateOptions rejects (--support outside [0, 1], --memory-budget
/// without --spill-dir) with a message instead of a downstream abort or an
/// undefined float-to-integer cast, then creates the spill directory.
/// Returns 0 when the tool may go on, otherwise the exit code (kUsageExit
/// for invalid options, 1 when the spill directory cannot be created).
inline int PrepareOptions(const JoinOptions& join,
                          const StorageOptions& storage) {
  const Status valid_join = ValidateOptions(join);
  if (!valid_join.ok()) return InvalidOptions(valid_join);
  const Status valid_storage = ValidateOptions(storage);
  if (!valid_storage.ok()) return InvalidOptions(valid_storage);
  if (storage.spill_enabled()) {
    const Status spill_ready = EnsureSpillDir(storage.spill_dir);
    if (!spill_ready.ok()) {
      std::fprintf(stderr, "error: %s\n", spill_ready.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace tj::cli

#endif  // TJ_EXAMPLES_TOOL_FLAGS_H_
