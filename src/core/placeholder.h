// Placeholder detection (paper §4.1, Definition 4): contiguous blocks of the
// target that can be emitted by a non-constant unit applied to the source —
// i.e. common substrings — generalized to skeletons of placeholder and
// literal blocks covering the whole target (§4.1.3).

#ifndef TJ_CORE_PLACEHOLDER_H_
#define TJ_CORE_PLACEHOLDER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "text/lcp.h"

namespace tj {

/// One block of a skeleton: a span [begin, end) of the target that is either
/// a placeholder (occurs in the source at `src_positions`) or a literal.
struct SkeletonBlock {
  bool is_placeholder = false;
  uint32_t begin = 0;
  uint32_t end = 0;
  /// Source positions where the block's text occurs (placeholders only;
  /// capped by kMaxMatchesPerPlaceholder).
  std::vector<uint32_t> src_positions;

  uint32_t length() const { return end - begin; }
};

/// A decomposition of the entire target into alternating placeholder/literal
/// blocks ("transformation skeleton", §4.1.1).
struct Skeleton {
  std::vector<SkeletonBlock> blocks;
  int num_placeholders = 0;
};

/// Builds the canonical maximal-length-placeholder skeleton by greedy
/// leftmost-longest matching: at each target position take the longest block
/// that occurs in the source; positions with no occurrence merge into
/// literal blocks. `max_matches` caps src_positions per placeholder (0 means
/// unlimited).
Skeleton BuildMaximalSkeleton(const LcpTable& lcp, int max_matches);

}  // namespace tj

#endif  // TJ_CORE_PLACEHOLDER_H_
