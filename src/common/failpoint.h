// Failpoints: named fault-injection sites for the storage I/O seams.
//
// A failpoint is a named site placed immediately before a syscall (open,
// ftruncate, mmap, msync, madvise, pread, write, rename). When the site is
// configured, evaluating it can return a nonzero errno value; the call site
// then skips the real syscall and fails exactly as if the kernel had
// returned that errno. This is how the fault-injection test suite proves the
// out-of-core storage stack degrades instead of aborting: every injected
// failure must surface as a clean Status or a logged heap fallback.
//
// Compile-out contract: sites are evaluated through the TJ_FAILPOINT macro,
// which expands to the literal 0 unless the build defines TJ_FAILPOINTS
// (cmake -DTJ_FAILPOINTS=ON). A production build therefore carries zero
// overhead — not even a branch — at every seam. The registry functions below
// always exist (tools can link them unconditionally); without the compile
// flag they simply never observe an evaluation.
//
// Determinism: each configured site owns a SplitMix64 stream seeded from
// config.seed mixed with the site-name hash, advanced once per probability
// draw. Re-configuring a site resets its stream and hit counter, so a given
// (site set, seed) replays the same activation pattern — serial runs are
// exactly reproducible, and threaded runs draw from the same deterministic
// per-site sequence (only the interleaving across sites varies).
//
// Thread safety: all registry functions are safe to call concurrently;
// evaluation takes a mutex only while at least one site is configured.

#ifndef TJ_COMMON_FAILPOINT_H_
#define TJ_COMMON_FAILPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace tj {

/// Per-site injection policy.
struct FailpointConfig {
  /// Chance that an evaluation (after `skip`) injects, in [0, 1]. 1.0 fires
  /// on every evaluation; fractional values draw from the site's seeded
  /// deterministic stream.
  double probability = 1.0;
  /// The errno delivered at the seam (default EIO = 5). 0 is normalized to
  /// EIO so a configured site can never inject "success".
  int fail_errno = 5;
  /// Total injections allowed; -1 = unlimited, 1 = one-shot.
  int max_hits = -1;
  /// Number of initial evaluations that always pass (lets a test arm "the
  /// N-th ftruncate" instead of the first).
  int skip = 0;
  /// Seed of the site's deterministic probability stream.
  uint64_t seed = 1;
};

namespace failpoint {

/// True when the library was compiled with TJ_FAILPOINTS (i.e. the sites
/// actually evaluate). Tools use this to reject --failpoints on a build
/// whose seams were compiled out.
bool CompiledIn();

/// Installs (or replaces) the config of `site`, resetting its hit counter
/// and probability stream.
void Configure(std::string_view site, const FailpointConfig& config);

/// Removes one site / every site. Cleared sites stop injecting immediately;
/// hit counts are forgotten.
void Clear(std::string_view site);
void ClearAll();

/// Configures sites from a compact spec string — the CLI surface:
///   "site[=key:value[,key:value...]][;site2...]"
/// keys: p (probability in [0, 1]), errno (1..4096 or
/// EIO/ENOSPC/ENOMEM/EMFILE/EINTR), hits (max injections: -1 unlimited, or
/// 0..INT_MAX), skip (0..INT_MAX), seed (unsigned 64-bit). Each number is
/// read whole: a leading space or '+', a sign on the seed, trailing bytes or
/// a value past its field's width is InvalidArgument. A bare site name
/// means "always fail with EIO". Example:
///   "mmap/ftruncate=p:0.5,errno:ENOSPC,seed:7;catalog/save-rename=hits:1"
Status ConfigureFromSpec(std::string_view spec);

/// Injections delivered by one site / by all sites since configuration.
uint64_t Hits(std::string_view site);
uint64_t TotalHits();

/// Names of the currently configured sites (sorted).
std::vector<std::string> ActiveSites();

/// Evaluates a site: returns the errno to inject, or 0 to proceed with the
/// real syscall. Called through TJ_FAILPOINT — use the macro, not this.
int Evaluate(const char* site);

}  // namespace failpoint
}  // namespace tj

#if defined(TJ_FAILPOINTS)
#define TJ_FAILPOINT(site) ::tj::failpoint::Evaluate(site)
#else
#define TJ_FAILPOINT(site) 0
#endif

#endif  // TJ_COMMON_FAILPOINT_H_
