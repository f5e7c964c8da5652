#include "common/failpoint.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <mutex>
#include <unordered_map>

#include "common/hash.h"
#include "common/strings.h"

namespace tj {
namespace failpoint {
namespace {

struct SiteState {
  FailpointConfig config;
  uint64_t rng = 0;       // SplitMix64 state of the probability stream
  uint64_t hits = 0;      // injections delivered
  int skip_left = 0;      // evaluations still passing unconditionally
};

std::mutex& RegistryMutex() {
  static std::mutex* m = new std::mutex;
  return *m;
}

std::unordered_map<std::string, SiteState>& Registry() {
  static auto* r = new std::unordered_map<std::string, SiteState>;
  return *r;
}

/// Lock-free "any site configured?" gate: the fast path of Evaluate on a
/// compiled-in but unconfigured build is one relaxed load.
std::atomic<size_t> g_active_sites{0};
std::atomic<uint64_t> g_total_hits{0};

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double NextUnit(uint64_t* state) {
  // 53 mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

int ParseErrnoToken(std::string_view token, bool* ok) {
  *ok = true;
  if (token == "EIO") return EIO;
  if (token == "ENOSPC") return ENOSPC;
  if (token == "ENOMEM") return ENOMEM;
  if (token == "EMFILE") return EMFILE;
  if (token == "EINTR") return EINTR;
  int value = 0;
  if (!ParseWhole(token, &value) || value <= 0 || value > 4096) {
    *ok = false;
    return 0;
  }
  return value;
}

}  // namespace

bool CompiledIn() {
#if defined(TJ_FAILPOINTS)
  return true;
#else
  return false;
#endif
}

void Configure(std::string_view site, const FailpointConfig& config) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  SiteState& state = Registry()[std::string(site)];
  state.config = config;
  if (state.config.fail_errno <= 0) state.config.fail_errno = EIO;
  if (state.config.probability < 0.0) state.config.probability = 0.0;
  if (state.config.probability > 1.0) state.config.probability = 1.0;
  // Mixing the site-name hash in keeps two sites sharing one seed on
  // distinct (still deterministic) streams.
  state.rng = config.seed ^ (HashString(site) | 1);
  state.hits = 0;
  state.skip_left = config.skip > 0 ? config.skip : 0;
  g_active_sites.store(Registry().size(), std::memory_order_release);
}

void Clear(std::string_view site) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  Registry().erase(std::string(site));
  g_active_sites.store(Registry().size(), std::memory_order_release);
}

void ClearAll() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  Registry().clear();
  g_active_sites.store(0, std::memory_order_release);
  g_total_hits.store(0, std::memory_order_release);
}

Status ConfigureFromSpec(std::string_view spec) {
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t end = std::min(spec.find(';', pos), spec.size());
    std::string_view entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;

    const size_t eq = entry.find('=');
    const std::string_view site = entry.substr(0, eq);
    if (site.empty()) {
      return Status::InvalidArgument("failpoint spec: empty site name");
    }
    FailpointConfig config;
    if (eq != std::string_view::npos) {
      std::string_view opts = entry.substr(eq + 1);
      size_t opos = 0;
      while (opos <= opts.size()) {
        const size_t oend = std::min(opts.find(',', opos), opts.size());
        const std::string_view kv = opts.substr(opos, oend - opos);
        opos = oend + 1;
        if (kv.empty()) continue;
        const size_t colon = kv.find(':');
        if (colon == std::string_view::npos) {
          return Status::InvalidArgument(
              "failpoint spec: expected key:value, got '" + std::string(kv) +
              "'");
        }
        const std::string_view key = kv.substr(0, colon);
        const std::string_view value = kv.substr(colon + 1);
        // Every number is read whole at its field's width (ParseWhole): no
        // leading space or '+', no wrap, and no sign on the seed.
        const auto bad = [&](const char* what) {
          return Status::InvalidArgument("failpoint spec: bad " +
                                         std::string(what) + " '" +
                                         std::string(value) + "'");
        };
        if (key == "p") {
          // Written so that NaN fails too.
          if (!ParseWhole(value, &config.probability) ||
              !(config.probability >= 0.0 && config.probability <= 1.0)) {
            return bad("probability");
          }
        } else if (key == "errno") {
          bool ok = false;
          config.fail_errno = ParseErrnoToken(value, &ok);
          if (!ok) return bad("errno");
        } else if (key == "hits") {
          if (!ParseWhole(value, &config.max_hits) || config.max_hits < -1) {
            return bad("hits");
          }
        } else if (key == "skip") {
          if (!ParseWhole(value, &config.skip) || config.skip < 0) {
            return bad("skip");
          }
        } else if (key == "seed") {
          if (!ParseWhole(value, &config.seed)) return bad("seed");
        } else {
          return Status::InvalidArgument("failpoint spec: unknown key '" +
                                         std::string(key) + "'");
        }
      }
    }
    Configure(site, config);
  }
  return Status::OK();
}

uint64_t Hits(std::string_view site) {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  const auto it = Registry().find(std::string(site));
  return it == Registry().end() ? 0 : it->second.hits;
}

uint64_t TotalHits() { return g_total_hits.load(std::memory_order_acquire); }

std::vector<std::string> ActiveSites() {
  std::lock_guard<std::mutex> lock(RegistryMutex());
  std::vector<std::string> sites;
  sites.reserve(Registry().size());
  for (const auto& [name, state] : Registry()) sites.push_back(name);
  std::sort(sites.begin(), sites.end());
  return sites;
}

int Evaluate(const char* site) {
  if (g_active_sites.load(std::memory_order_acquire) == 0) return 0;
  std::lock_guard<std::mutex> lock(RegistryMutex());
  const auto it = Registry().find(site);
  if (it == Registry().end()) return 0;
  SiteState& state = it->second;
  if (state.skip_left > 0) {
    --state.skip_left;
    return 0;
  }
  if (state.config.max_hits >= 0 &&
      state.hits >= static_cast<uint64_t>(state.config.max_hits)) {
    return 0;
  }
  if (state.config.probability < 1.0 &&
      NextUnit(&state.rng) >= state.config.probability) {
    return 0;
  }
  ++state.hits;
  g_total_hits.fetch_add(1, std::memory_order_acq_rel);
  return state.config.fail_errno;
}

}  // namespace failpoint
}  // namespace tj
