#include "core/skeleton.h"

#include <algorithm>
#include <unordered_set>

#include "common/hash.h"
#include "text/char_class.h"

namespace tj {
namespace {

/// Splits one placeholder block at separator characters into alternating
/// sub-placeholder / literal blocks. Returns an empty vector when the block
/// contains no separator (no distinct variant exists).
std::vector<SkeletonBlock> TokenizeBlock(const SkeletonBlock& block,
                                         std::string_view target,
                                         const LcpTable& lcp,
                                         int max_matches) {
  const std::string_view text =
      target.substr(block.begin, block.end - block.begin);
  bool has_separator = false;
  for (char c : text) {
    if (IsSeparatorChar(c)) {
      has_separator = true;
      break;
    }
  }
  if (!has_separator) return {};

  std::vector<SkeletonBlock> out;
  size_t i = 0;
  while (i < text.size()) {
    const bool sep = IsSeparatorChar(text[i]);
    size_t k = i;
    while (k < text.size() && IsSeparatorChar(text[k]) == sep) ++k;
    SkeletonBlock sub;
    sub.begin = block.begin + static_cast<uint32_t>(i);
    sub.end = block.begin + static_cast<uint32_t>(k);
    if (sep) {
      // Separator runs become literal blocks (<(L: ' ')> in the paper's
      // "Victor R. Kasumba" example).
      sub.is_placeholder = false;
    } else {
      sub.is_placeholder = true;
      // A substring of a placeholder is itself a placeholder; re-anchor its
      // source occurrences.
      lcp.MatchPositions(sub.begin, sub.end - sub.begin, &sub.src_positions);
      if (max_matches > 0 &&
          sub.src_positions.size() > static_cast<size_t>(max_matches)) {
        sub.src_positions.resize(static_cast<size_t>(max_matches));
      }
    }
    out.push_back(std::move(sub));
    i = k;
  }
  return out;
}

/// Structural fingerprint for skeleton dedup (block kinds and spans).
uint64_t SkeletonFingerprint(const Skeleton& s) {
  uint64_t h = Mix64(0x736b656cULL);  // "skel"
  for (const auto& b : s.blocks) {
    h = HashCombine(h, (static_cast<uint64_t>(b.begin) << 33) |
                           (static_cast<uint64_t>(b.end) << 1) |
                           (b.is_placeholder ? 1 : 0));
  }
  return h;
}

}  // namespace

std::vector<Skeleton> EnumerateSkeletons(std::string_view target,
                                         const LcpTable& lcp,
                                         const DiscoveryOptions& options) {
  std::vector<Skeleton> result;
  if (target.empty()) return result;
  std::unordered_set<uint64_t> seen;
  auto add = [&](Skeleton s) {
    if (s.num_placeholders > options.max_placeholders) return;
    if (seen.insert(SkeletonFingerprint(s)).second) {
      result.push_back(std::move(s));
    }
  };

  Skeleton base = BuildMaximalSkeleton(lcp, kMaxMatchesPerPlaceholder);

  // Chance matches fragment constant target regions into many short
  // placeholders (e.g. '@ualberta.ca' against a source containing 'a' and
  // 'l'). When the base exceeds the placeholder cap, keep only the longest
  // max_placeholders placeholders and demote the rest to literals — their
  // literal blocks fuse with neighbours during transformation normalization,
  // so constants split across blocks still produce the intended literal.
  if (base.num_placeholders > options.max_placeholders &&
      options.max_placeholders > 0) {
    std::vector<size_t> placeholder_blocks;
    for (size_t i = 0; i < base.blocks.size(); ++i) {
      if (base.blocks[i].is_placeholder) placeholder_blocks.push_back(i);
    }
    std::stable_sort(placeholder_blocks.begin(), placeholder_blocks.end(),
                     [&](size_t a, size_t b) {
                       return base.blocks[a].length() > base.blocks[b].length();
                     });
    for (size_t k = static_cast<size_t>(options.max_placeholders);
         k < placeholder_blocks.size(); ++k) {
      SkeletonBlock& block = base.blocks[placeholder_blocks[k]];
      block.is_placeholder = false;
      block.src_positions.clear();
      --base.num_placeholders;
    }
  }

  // Pre-compute each placeholder's tokenized variant (empty = no variant).
  std::vector<std::vector<SkeletonBlock>> variants(base.blocks.size());
  std::vector<size_t> splittable;  // indices of blocks with a variant
  if (options.tokenize_placeholders) {
    for (size_t i = 0; i < base.blocks.size(); ++i) {
      if (!base.blocks[i].is_placeholder) continue;
      variants[i] = TokenizeBlock(base.blocks[i], target, lcp,
                                  kMaxMatchesPerPlaceholder);
      if (!variants[i].empty()) splittable.push_back(i);
    }
  }

  // Enumerate subsets of splittable placeholders. When the subset count
  // would exceed kMaxSkeletonsPerRow, fall back to base + all-tokenized.
  const size_t k = splittable.size();
  const bool full_enumeration = k < 20 && (1ULL << k) <= kMaxSkeletonsPerRow;
  const size_t num_masks = full_enumeration ? (1ULL << k) : 1;

  for (size_t mask = 0; mask < num_masks; ++mask) {
    Skeleton s;
    for (size_t i = 0; i < base.blocks.size(); ++i) {
      bool tokenized = false;
      if (!variants[i].empty()) {
        if (full_enumeration) {
          // Find i's bit position within `splittable`.
          for (size_t b = 0; b < k; ++b) {
            if (splittable[b] == i && (mask & (1ULL << b))) tokenized = true;
          }
        }
        // In fallback mode only the base (mask 0) is produced here; the
        // all-tokenized variant is added below.
      }
      if (tokenized) {
        for (const auto& sub : variants[i]) {
          if (sub.is_placeholder) ++s.num_placeholders;
          s.blocks.push_back(sub);
        }
      } else {
        if (base.blocks[i].is_placeholder) ++s.num_placeholders;
        s.blocks.push_back(base.blocks[i]);
      }
    }
    add(std::move(s));
  }

  if (!full_enumeration) {
    Skeleton s;
    for (size_t i = 0; i < base.blocks.size(); ++i) {
      if (!variants[i].empty()) {
        for (const auto& sub : variants[i]) {
          if (sub.is_placeholder) ++s.num_placeholders;
          s.blocks.push_back(sub);
        }
      } else {
        if (base.blocks[i].is_placeholder) ++s.num_placeholders;
        s.blocks.push_back(base.blocks[i]);
      }
    }
    add(std::move(s));
  }

  // The all-literal skeleton <(L: target)> (§4.1.3 example) — the target may
  // be a constant; also the only skeleton for rows whose base exceeds the
  // placeholder cap.
  if (!target.empty()) {
    Skeleton s;
    SkeletonBlock whole;
    whole.is_placeholder = false;
    whole.begin = 0;
    whole.end = static_cast<uint32_t>(target.size());
    s.blocks.push_back(whole);
    add(std::move(s));
  }

  return result;
}

}  // namespace tj
