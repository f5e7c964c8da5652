#include "core/coverage.h"

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <tuple>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace tj {
namespace {

/// Per-row memo of unit evaluations. Units repeat across the Cartesian-
/// product transformations, so each unit is evaluated at most once per row;
/// the paper's negative-unit cache is the kBad state.
///
/// The memo is allocated once per worker and invalidated per row with an
/// epoch counter — resetting multi-megabyte state vectors per row would
/// otherwise dominate the runtime on large inputs. The same epoch
/// invalidates the row's split table: the positions of each delimiter in
/// the source, found on the delimiter's first use, which Split and
/// SplitSubstr then index instead of rescanning the source.
class RowUnitCache {
 public:
  /// With `use_memo` false (the paper's no-cache ablation) every evaluation
  /// recomputes from scratch and no negative knowledge is retained.
  RowUnitCache(size_t num_units, bool use_memo) : use_memo_(use_memo) {
    if (use_memo_) {
      // Epoch and state share one word (epoch << 2 | state): the pruning
      // scan that touches every transformation's units per row then costs
      // one 4-byte load per unit instead of two scattered ones.
      packed_.assign(num_units, 0);
      output_.resize(num_units);
    }
  }

  enum State : uint8_t {
    kUnknown = 0,
    kOk = 1,   // unit applies; output is a substring of the target
    kBad = 2,  // unit fails or its output is not in the target
  };

  /// Starts a new row: logically clears every memo entry and the split
  /// table in O(1).
  void BeginRow() {
    ++current_epoch_;
    split_bounds_.clear();
  }

  State state(UnitId id) const {
    if (!use_memo_) return kUnknown;
    const uint32_t packed = packed_[id];
    if ((packed >> 2) != current_epoch_) return kUnknown;
    return static_cast<State>(packed & 3u);
  }

  /// Evaluates (or recalls) unit `id` on this row. Returns kOk/kBad and, for
  /// kOk, sets *out to the unit's output. `unit_evals` counts memo misses.
  /// With kPieces (the walk) Split and SplitSubstr read their piece from the
  /// split table; without it (the scan) every unit runs Unit::Eval, so the
  /// scan stays an oracle independent of the table.
  template <bool kPieces>
  State Evaluate(const UnitInterner& interner, UnitId id,
                 std::string_view source, std::string_view target,
                 uint64_t* unit_evals, std::string_view* out) {
    if (!use_memo_) {
      ++*unit_evals;
      const auto produced = Apply<kPieces>(interner.Get(id), source);
      if (!produced.has_value() ||
          (!produced->empty() &&
           target.find(*produced) == std::string_view::npos)) {
        return kBad;
      }
      *out = *produced;
      return kOk;
    }
    if ((packed_[id] >> 2) != current_epoch_) {
      ++*unit_evals;
      const auto produced = Apply<kPieces>(interner.Get(id), source);
      if (!produced.has_value() ||
          (!produced->empty() &&
           target.find(*produced) == std::string_view::npos)) {
        packed_[id] = (current_epoch_ << 2) | kBad;
      } else {
        packed_[id] = (current_epoch_ << 2) | kOk;
        output_[id] = *produced;
      }
    }
    const auto state = static_cast<State>(packed_[id] & 3u);
    if (state == kOk) *out = output_[id];
    return state;
  }

  /// Piece `index` of this row's `source` split on `delim`, empty pieces
  /// kept (NthSplitPiece's result), or nullopt when there is no such piece.
  std::optional<std::string_view> Piece(std::string_view source, char delim,
                                        int32_t index) {
    if (index < 0) return std::nullopt;
    const auto c = static_cast<unsigned char>(delim);
    if (split_epoch_[c] != current_epoch_) {
      // Entry k is where piece k starts; one final entry |source| + 1
      // closes the last piece, so piece k is [b[k], b[k + 1] - 1).
      split_epoch_[c] = current_epoch_;
      split_first_[c] = static_cast<uint32_t>(split_bounds_.size());
      split_bounds_.push_back(0);
      for (size_t j = 0; j < source.size(); ++j) {
        if (source[j] == delim) {
          split_bounds_.push_back(static_cast<uint32_t>(j + 1));
        }
      }
      split_bounds_.push_back(static_cast<uint32_t>(source.size() + 1));
      split_pieces_[c] = static_cast<uint32_t>(split_bounds_.size()) -
                         split_first_[c] - 1;
    }
    if (static_cast<uint32_t>(index) >= split_pieces_[c]) return std::nullopt;
    const uint32_t* b = split_bounds_.data() + split_first_[c] + index;
    return source.substr(b[0], b[1] - 1 - b[0]);
  }

 private:
  template <bool kPieces>
  std::optional<std::string_view> Apply(const Unit& unit,
                                        std::string_view source) {
    if constexpr (kPieces) {
      if (unit.kind == UnitKind::kSplit) {
        return Piece(source, unit.c1, unit.index);
      }
      if (unit.kind == UnitKind::kSplitSubstr) {
        const auto piece = Piece(source, unit.c1, unit.index);
        if (!piece.has_value()) return std::nullopt;
        return SliceOrFail(*piece, unit.start, unit.end);
      }
    }
    return unit.Eval(source);
  }

  const bool use_memo_;
  // 30-bit row epoch: a cache instance lives for one coverage pass over at
  // most a few thousand rows, nowhere near the billion BeginRow calls a
  // wrap would take.
  uint32_t current_epoch_ = 0;
  std::vector<uint32_t> packed_;
  std::vector<std::string_view> output_;
  // Split table, per delimiter byte: the epoch it was built in, its first
  // entry in split_bounds_ and its piece count. Positions are 32-bit: a
  // cell is far below 4 GiB.
  std::array<uint32_t, 256> split_epoch_{};
  std::array<uint32_t, 256> split_first_{};
  std::array<uint32_t, 256> split_pieces_{};
  std::vector<uint32_t> split_bounds_;
};

using CoveringPair = std::pair<uint32_t, uint32_t>;  // (transformation, row)

/// True iff `out` is `target[offset, offset + |out|)`.
bool MatchesAt(std::string_view target, size_t offset, std::string_view out) {
  return out.size() <= target.size() - offset &&
         target.compare(offset, out.size(), out) == 0;
}

// ---------------------------------------------------------------------------
// Paper path: the row-major scan of §4.1.5.
// ---------------------------------------------------------------------------

/// Evaluates every transformation against rows [begin, end), appending
/// covering pairs in row-major order. The store's CSR arena makes the scan
/// two contiguous streams (offsets, units), with no pointer chased per
/// transformation per row. Rows are independent (the cache is
/// reset per row), so the counters accumulated into `stats` are exact
/// regardless of how the row space is sharded.
void EvaluateRowRange(const TransformationStore& store,
                      const UnitInterner& interner,
                      const std::vector<ExamplePair>& rows, size_t begin,
                      size_t end, const DiscoveryOptions& options,
                      RowUnitCache* cache,
                      std::vector<CoveringPair>* covering,
                      DiscoveryStats* stats) {
  const size_t num_t = store.size();
  for (size_t row = begin; row < end; ++row) {
    const std::string_view src = rows[row].source;
    const std::string_view tgt = rows[row].target;
    cache->BeginRow();

    for (TransformationId t = 0; t < num_t; ++t) {
      const std::span<const UnitId> t_units = store.Units(t);
      const size_t t_size = t_units.size();

      if (options.enable_neg_cache) {
        // The paper's pruning: skip the transformation outright if any of
        // its units is already known not to cover this row.
        bool pruned = false;
        for (size_t i = 0; i < t_size; ++i) {
          if (cache->state(t_units[i]) == RowUnitCache::kBad) {
            pruned = true;
            break;
          }
        }
        if (pruned) {
          ++stats->cache_hits;
          continue;
        }
      }

      ++stats->full_evaluations;
      size_t offset = 0;
      bool covers = true;
      for (size_t i = 0; i < t_size; ++i) {
        std::string_view out;
        if (cache->Evaluate<false>(interner, t_units[i], src, tgt,
                                   &stats->unit_evals,
                                   &out) == RowUnitCache::kBad ||
            !MatchesAt(tgt, offset, out)) {
          covers = false;
          break;
        }
        offset += out.size();
      }
      if (covers && offset == tgt.size()) {
        covering->emplace_back(static_cast<uint32_t>(t),
                               static_cast<uint32_t>(row));
        ++stats->covering_pairs;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Default path: one walk per row over a prefix trie of the unit sequences.
// ---------------------------------------------------------------------------

/// What fixes a root child's first output byte at offset 0, where the
/// child survives only if that byte is target[0]. A probed unit never
/// outputs an empty string when it applies, and its first byte is:
///   kLiteral      the literal's first byte;
///   kSubstr       source[start], for Substr(start, end);
///   kSplitSubstr  piece_index[start] on `delim`, for SplitSubstr.
/// Everything else is kAlways, visited on every row: its output can be
/// empty or its head is not known cheaply (Split, TwoCharSplitSubstr, empty
/// literals, start == end), or it fails on every row (a negative field,
/// end < start).
struct HeadProbe {
  enum Kind : uint8_t { kAlways, kLiteral, kSubstr, kSplitSubstr };
  Kind kind = kAlways;
  uint8_t byte = 0;  // kLiteral
  char delim = 0;    // kSplitSubstr
  int32_t index = 0;  // kSplitSubstr
  int32_t start = 0;  // kSubstr, kSplitSubstr

  static constexpr int kNoByte = -1;

  static HeadProbe Of(const Unit& u) {
    HeadProbe probe;
    const bool nonempty_range = u.start >= 0 && u.start < u.end;
    if (u.kind == UnitKind::kLiteral && !u.literal.empty()) {
      probe.kind = kLiteral;
      probe.byte = static_cast<uint8_t>(u.literal[0]);
    } else if (u.kind == UnitKind::kSubstr && nonempty_range) {
      probe.kind = kSubstr;
      probe.start = u.start;
    } else if (u.kind == UnitKind::kSplitSubstr && nonempty_range &&
               u.index >= 0) {
      probe.kind = kSplitSubstr;
      probe.delim = u.c1;
      probe.index = u.index;
      probe.start = u.start;
    }
    return probe;
  }

  /// The first byte a probed unit outputs on `source` (0-255), or kNoByte
  /// when it fails there. Not for kAlways.
  int ByteOn(std::string_view source, RowUnitCache* cache) const {
    if (kind == kLiteral) return byte;
    const std::optional<std::string_view> from =
        kind == kSplitSubstr ? cache->Piece(source, delim, index) : source;
    if (!from.has_value() || static_cast<size_t>(start) >= from->size()) {
      return kNoByte;
    }
    return static_cast<unsigned char>((*from)[static_cast<size_t>(start)]);
  }

  auto operator<=>(const HeadProbe&) const = default;
};

/// The store's unit sequences as a prefix trie, nodes in pre-order so a
/// subtree is the index range [i, end[i]). Node i stands for the prefix
/// ending in unit[i] at depth[i] (the root's children are depth 1). Four
/// parallel arrays keep a node at 13 bytes — about the size of the arena
/// unit references it stands for, since Cartesian-product generation makes
/// sequences share prefixes.
///
/// The root's children are ordered by head probe, so the children sharing
/// one form a contiguous node range: a root group. Below the root, children
/// ascend by unit id.
struct UnitTrie {
  static constexpr uint32_t kNoTerminal = std::numeric_limits<uint32_t>::max();
  /// Set in a terminal field when several ids end at the node (only with
  /// enable_dedup off): the low bits index `shared_terminals`.
  static constexpr uint32_t kShared = 1u << 31;
  static constexpr size_t kMaxDepth = std::numeric_limits<uint8_t>::max();

  struct RootGroup {
    HeadProbe probe;
    uint32_t begin;  // first node
    uint32_t end;    // one past the group's last node
  };

  std::vector<UnitId> unit;
  std::vector<uint8_t> depth;
  std::vector<uint32_t> end;       // one past the node's last descendant
  std::vector<uint32_t> terminal;  // id ending here, kNoTerminal, or kShared|k
  /// Terminal field of the root: empty sequences, reached with nothing
  /// matched.
  uint32_t root_terminal = kNoTerminal;
  /// Runs of [count, id, id, ...] for terminal fields flagged kShared.
  std::vector<uint32_t> shared_terminals;
  std::vector<RootGroup> root_groups;
  size_t max_depth = 0;

  /// Calls fn(id) for every id a terminal field holds, ascending.
  template <typename Fn>
  void ForEachTerminal(uint32_t term, Fn&& fn) const {
    if (term == kNoTerminal) return;
    if ((term & kShared) == 0) {
      fn(term);
      return;
    }
    const uint32_t* run = shared_terminals.data() + (term & ~kShared);
    for (uint32_t k = 1; k <= run[0]; ++k) fn(run[k]);
  }

  /// Maps every terminal id through `new_id` (no kShared fields).
  void Renumber(const std::vector<TransformationId>& new_id) {
    for (uint32_t& term : terminal) {
      if (term != kNoTerminal) term = new_id[term];
    }
    if (root_terminal != kNoTerminal) root_terminal = new_id[root_terminal];
  }
};

/// Builds the trie top-down. At each node a stable counting pass groups the
/// node's ids on their next unit; each sequence's key is read from the
/// store's arena once per level and kept for the scatter, never once per
/// comparison as a sort would. Ranges of at most kSmallRange ids are
/// grouped by a stable insertion sort on those keys instead. Both are
/// stable, so the ids ending at one node ascend: with `keep` (the seal)
/// the node keeps the smallest and sets it in `keep`; without it
/// (enable_dedup off) all ids stay terminals.
class TrieBuilder {
 public:
  TrieBuilder(const TransformationStore& store, const UnitInterner& interner,
              DynamicBitset* keep, UnitTrie* trie)
      : store_(store), interner_(interner), keep_(keep), trie_(trie) {}

  /// False when some sequence is deeper than UnitTrie::kMaxDepth (never
  /// generated: skeletons have at most 2 * max_placeholders + 1 blocks);
  /// `keep` is still filled, but depth bytes wrap, so do not walk it.
  bool Build() {
    const size_t num_t = store_.size();
    TJ_CHECK(num_t < UnitTrie::kShared);
    size_t arena = 0;  // every node spells a distinct prefix: at most this
    for (TransformationId t = 0; t < num_t; ++t) {
      const size_t length = store_.Units(t).size();
      trie_->max_depth = std::max(trie_->max_depth, length);
      arena += length;
    }
    trie_->unit.reserve(arena);
    trie_->depth.reserve(arena);
    trie_->end.reserve(arena);
    trie_->terminal.reserve(arena);
    count_.assign(interner_.size() + 1, 0);
    ids_.resize(num_t);
    for (TransformationId t = 0; t < num_t; ++t) ids_[t] = t;
    keys_.resize(num_t);
    scatter_.resize(num_t);
    Partition(0, num_t, 0);

    // The root's children, reordered by head probe (then unit id).
    struct RootChild {
      HeadProbe probe;
      UnitId unit;
      uint32_t begin, end;
    };
    std::vector<RootChild> children;
    uint32_t begin = 0;
    for (const Run& run : runs_) {
      if (run.key == 0) {
        trie_->root_terminal = Terminals(begin, run.end);
      } else {
        const UnitId u = run.key - 1;
        children.push_back({HeadProbe::Of(interner_.Get(u)), u, begin,
                            run.end});
      }
      begin = run.end;
    }
    runs_.clear();
    std::sort(children.begin(), children.end(),
              [](const RootChild& a, const RootChild& b) {
                return std::tie(a.probe, a.unit) < std::tie(b.probe, b.unit);
              });
    auto& groups = trie_->root_groups;
    for (const RootChild& child : children) {
      const uint32_t node = AddNode(child.unit, 1);
      if (groups.empty() || groups.back().probe != child.probe) {
        groups.push_back({child.probe, node, 0});
      }
      Expand(node, child.begin, child.end, 1);
      trie_->end[node] = static_cast<uint32_t>(trie_->unit.size());
      groups.back().end = trie_->end[node];
    }
    return trie_->max_depth <= UnitTrie::kMaxDepth;
  }

 private:
  /// One next-unit value and the end of its ids in ids_.
  struct Run {
    uint32_t key;  // 0: the sequence ends here; else unit + 1
    uint32_t end;
  };

  uint32_t AddNode(UnitId u, size_t depth) {
    const auto node = static_cast<uint32_t>(trie_->unit.size());
    trie_->unit.push_back(u);
    trie_->depth.push_back(static_cast<uint8_t>(depth));
    trie_->end.push_back(0);
    trie_->terminal.push_back(UnitTrie::kNoTerminal);
    return node;
  }

  /// The terminal field for the ids in ids_[lo, hi).
  uint32_t Terminals(size_t lo, size_t hi) {
    if (hi - lo == 0) return UnitTrie::kNoTerminal;
    if (keep_ != nullptr) keep_->Set(ids_[lo]);
    if (hi - lo == 1 || keep_ != nullptr) return ids_[lo];
    const auto run = static_cast<uint32_t>(trie_->shared_terminals.size());
    trie_->shared_terminals.push_back(static_cast<uint32_t>(hi - lo));
    trie_->shared_terminals.insert(trie_->shared_terminals.end(),
                                   ids_.begin() + lo, ids_.begin() + hi);
    return UnitTrie::kShared | run;
  }

  uint32_t KeyAt(TransformationId id, size_t d) const {
    const std::span<const UnitId> u = store_.Units(id);
    return u.size() == d ? 0 : u[d] + 1;
  }

  /// Regroups ids_[lo, hi) by ascending key at depth d, ids ascending
  /// within a key, and appends one Run per key to runs_. Large ranges take
  /// a stable counting pass: count_ is all zero before and after, and only
  /// the keys seen are sorted and reset.
  void Partition(size_t lo, size_t hi, size_t d) {
    if (hi - lo <= kSmallRange) {
      InsertionPartition(lo, hi, d);
      return;
    }
    const size_t mark = runs_.size();
    for (size_t k = lo; k < hi; ++k) {
      const uint32_t key = KeyAt(ids_[k], d);
      keys_[k] = key;
      if (count_[key]++ == 0) runs_.push_back({key, 0});
    }
    std::sort(runs_.begin() + mark, runs_.end(),
              [](const Run& a, const Run& b) { return a.key < b.key; });
    auto next = static_cast<uint32_t>(lo);
    for (size_t r = mark; r < runs_.size(); ++r) {
      const uint32_t n = count_[runs_[r].key];
      count_[runs_[r].key] = next;  // now the key's scatter cursor
      next += n;
      runs_[r].end = next;
    }
    if (runs_.size() - mark > 1) {
      for (size_t k = lo; k < hi; ++k) scatter_[count_[keys_[k]]++] = ids_[k];
      std::copy(scatter_.begin() + lo, scatter_.begin() + hi,
                ids_.begin() + lo);
    }
    for (size_t r = mark; r < runs_.size(); ++r) count_[runs_[r].key] = 0;
  }

  /// Partition's small-range path: a stable insertion sort of (key, id),
  /// then one Run per run of equal keys.
  void InsertionPartition(size_t lo, size_t hi, size_t d) {
    for (size_t k = lo; k < hi; ++k) {
      const uint32_t id = ids_[k];
      const uint32_t key = KeyAt(id, d);
      size_t j = k;
      for (; j > lo && keys_[j - 1] > key; --j) {
        keys_[j] = keys_[j - 1];
        ids_[j] = ids_[j - 1];
      }
      keys_[j] = key;
      ids_[j] = id;
    }
    for (size_t k = lo; k < hi; ++k) {
      if (k + 1 == hi || keys_[k + 1] != keys_[k]) {
        runs_.push_back({keys_[k], static_cast<uint32_t>(k + 1)});
      }
    }
  }

  /// ids_[lo, hi) hold the ids whose first `d` units spell node `node`'s
  /// prefix. Sets the node's terminals and adds its subtrees in pre-order;
  /// the caller sets end[node].
  void Expand(uint32_t node, size_t lo, size_t hi, size_t d) {
    if (hi - lo == 1) {
      // One sequence left: its remaining units form a chain.
      const TransformationId id = ids_[lo];
      const std::span<const UnitId> u = store_.Units(id);
      uint32_t last = node;
      for (size_t k = d; k < u.size(); ++k) last = AddNode(u[k], k + 1);
      trie_->terminal[last] = id;
      if (keep_ != nullptr) keep_->Set(id);
      const auto chain_end = static_cast<uint32_t>(trie_->unit.size());
      for (uint32_t i = node + 1; i < chain_end; ++i) {
        trie_->end[i] = chain_end;
      }
      return;
    }
    // This level's runs sit at runs_[mark, ...); deeper levels push theirs
    // above and pop them before returning.
    const size_t mark = runs_.size();
    Partition(lo, hi, d);
    size_t begin = lo;
    for (size_t r = mark; r < runs_.size(); ++r) {
      const Run run = runs_[r];
      if (run.key == 0) {
        trie_->terminal[node] = Terminals(begin, run.end);
      } else {
        const uint32_t child = AddNode(run.key - 1, d + 1);
        Expand(child, begin, run.end, d + 1);
        trie_->end[child] = static_cast<uint32_t>(trie_->unit.size());
      }
      begin = run.end;
    }
    runs_.resize(mark);
  }

  static constexpr size_t kSmallRange = 16;

  const TransformationStore& store_;
  const UnitInterner& interner_;
  DynamicBitset* keep_;
  UnitTrie* trie_;
  std::vector<uint32_t> count_;    // per key, zero between passes
  std::vector<uint32_t> ids_;      // transformation ids, regrouped per level
  std::vector<uint32_t> keys_;     // keys_[k]: ids_[k]'s key in Partition
  std::vector<uint32_t> scatter_;  // Partition's output buffer
  std::vector<Run> runs_;          // a stack of per-level runs
};

/// Walks the trie once per row in [begin, end). At node i the unit's memoized
/// output must continue the target where the parent's prefix stopped;
/// otherwise every sequence below i fails and the walk jumps to end[i] —
/// the negative-unit pruning of §4.1.5, applied once per shared prefix
/// instead of once per transformation. At the root the walk first computes
/// each root group's head byte and enters only the groups whose byte is
/// target[0] (none when the target is empty), plus the kAlways group; a
/// child it skips would have failed MatchesAt(target, 0, ·). A sequence
/// covers the row iff its terminal is reached with the whole target
/// matched, so the covering set is exactly the row-major scan's; only the
/// order within a row differs, which the counting sort in ComputeCoverage
/// absorbs.
///
/// Counters: full_evaluations counts the (transformation, row) pairs whose
/// terminal was reached, cache_hits the rest (cut off at some prefix or
/// skipped at the root), so the two still sum to transformations x rows.
/// unit_evals counts memo misses; head probes are not unit evaluations.
void WalkRowRange(const UnitTrie& trie, size_t num_t,
                  const UnitInterner& interner,
                  const std::vector<ExamplePair>& rows, size_t begin,
                  size_t end, RowUnitCache* cache,
                  std::vector<CoveringPair>* covering,
                  DiscoveryStats* stats) {
  // matched[d]: target bytes spelled by the current depth-d prefix.
  std::vector<size_t> matched(trie.max_depth + 1, 0);
  uint64_t reached = 0;
  for (size_t row = begin; row < end; ++row) {
    const std::string_view src = rows[row].source;
    const std::string_view tgt = rows[row].target;
    cache->BeginRow();
    const auto reach = [&](uint32_t term, size_t offset) {
      trie.ForEachTerminal(term, [&](TransformationId t) {
        ++reached;
        if (offset == tgt.size()) {
          covering->emplace_back(t, static_cast<uint32_t>(row));
          ++stats->covering_pairs;
        }
      });
    };
    reach(trie.root_terminal, 0);
    const int head =
        tgt.empty() ? HeadProbe::kNoByte : static_cast<unsigned char>(tgt[0]);
    for (const UnitTrie::RootGroup& group : trie.root_groups) {
      if (group.probe.kind != HeadProbe::kAlways &&
          (head == HeadProbe::kNoByte ||
           group.probe.ByteOn(src, cache) != head)) {
        continue;
      }
      uint32_t i = group.begin;
      while (i < group.end) {
        const size_t d = trie.depth[i];
        const size_t base = matched[d - 1];
        std::string_view out;
        if (cache->Evaluate<true>(interner, trie.unit[i], src, tgt,
                                  &stats->unit_evals,
                                  &out) == RowUnitCache::kBad ||
            !MatchesAt(tgt, base, out)) {
          i = trie.end[i];
          continue;
        }
        matched[d] = base + out.size();
        reach(trie.terminal[i], matched[d]);
        ++i;
      }
    }
  }
  stats->full_evaluations += reached;
  stats->cache_hits += num_t * (end - begin) - reached;
}

}  // namespace

CoverageIndex ComputeCoverage(TransformationStore& store,
                              const UnitInterner& interner,
                              const std::vector<ExamplePair>& rows,
                              const DiscoveryOptions& options,
                              DiscoveryStats* stats) {
  ScopedTimer total(&stats->time_apply);
  CoverageIndex index;

  // The trie needs the memo (it is what the walk reads); without the
  // negative cache, and whenever the paper's counters are wanted, the
  // row-major scan runs over the store's arena directly. The trie is built
  // once here, serially, and shared read-only by the row shards below; it
  // also seals the store, which the scan then reads.
  const bool walk = !options.paper_coverage_scan && options.enable_neg_cache;
  const bool seal = options.enable_dedup && !store.sealed();
  std::optional<UnitTrie> trie;
  if (walk || seal) {
    ScopedTimer build_wall(&stats->time_build);
    ScopedTimer build_cpu(&stats->cpu_apply);
    trie.emplace();
    DynamicBitset keep(seal ? store.size() : 0);
    TrieBuilder builder(store, interner, seal ? &keep : nullptr, &*trie);
    if (!builder.Build() || !walk) trie.reset();
    if (seal) {
      const std::vector<TransformationId> new_ids = store.Seal(keep);
      if (trie) trie->Renumber(new_ids);
      stats->unique_transformations = store.size();
    }
  }
  const size_t num_t = store.size();
  index.offsets_.assign(num_t + 1, 0);
  if (num_t == 0) return index;

  const auto evaluate = [&](size_t begin, size_t end, RowUnitCache* cache,
                            std::vector<CoveringPair>* covering,
                            DiscoveryStats* shard_stats) {
    ScopedTimer cpu_timer(&shard_stats->cpu_apply);
    if (trie) {
      WalkRowRange(*trie, num_t, interner, rows, begin, end, cache, covering,
                   shard_stats);
    } else {
      EvaluateRowRange(store, interner, rows, begin, end, options, cache,
                       covering, shard_stats);
    }
  };

  // Covering pairs are collected row by row and counting-sorted into CSR by
  // transformation afterwards.
  std::vector<CoveringPair> covering;
  const int num_threads = options.pool != nullptr
                              ? options.pool->size()
                              : ResolveNumThreads(options.num_threads);

  if (num_threads == 1 || rows.size() < 2 || InParallelFor()) {
    RowUnitCache cache(interner.size(), options.enable_neg_cache);
    evaluate(0, rows.size(), &cache, &covering, stats);
  } else {
    // Sharded evaluation. Chunks are contiguous row ranges merged in chunk
    // order, so the covering list below has rows in the same order as the
    // serial path and the CSR index comes out bit-identical. The unit cache
    // is worker-scoped (it is large) and reset per row, so dynamic
    // chunk-to-worker assignment cannot change any result or counter.
    // When no shared pool is supplied, never spawn more workers (threads +
    // per-worker caches) than rows.
    PoolRef pool_ref(options.pool,
                     static_cast<int>(std::min<size_t>(
                         static_cast<size_t>(num_threads), rows.size())));
    ThreadPool& pool = pool_ref.get();
    const size_t num_chunks =
        std::min(rows.size(), static_cast<size_t>(pool.size()) * 4);
    std::vector<std::unique_ptr<RowUnitCache>> caches(
        static_cast<size_t>(pool.size()));
    for (auto& cache : caches) {
      cache = std::make_unique<RowUnitCache>(interner.size(),
                                             options.enable_neg_cache);
    }
    std::vector<std::vector<CoveringPair>> chunk_covering(num_chunks);
    std::vector<DiscoveryStats> worker_stats(static_cast<size_t>(pool.size()));

    pool.ParallelFor(rows.size(), num_chunks,
                     [&](int worker, size_t chunk, size_t begin, size_t end) {
                       evaluate(begin, end, caches[worker].get(),
                                &chunk_covering[chunk], &worker_stats[worker]);
                     });

    size_t total_pairs = 0;
    for (const auto& chunk : chunk_covering) total_pairs += chunk.size();
    covering.reserve(total_pairs);
    for (auto& chunk : chunk_covering) {
      covering.insert(covering.end(), chunk.begin(), chunk.end());
    }
    // Full element-wise merge so counters added to the range evaluators
    // later keep aggregating in parallel runs too. Worker wall-time fields
    // are zero (the phase is wall-timed once by the enclosing ScopedTimer);
    // cpu_apply adds each worker's seconds to the build's.
    for (const DiscoveryStats& ws : worker_stats) *stats += ws;
  }

  // Counting sort into CSR. Rows ascend within each transformation because
  // rows are evaluated in ascending order; the order of transformations
  // within a row (id order on the scan, trie order on the walk) is lost
  // here, so both paths produce the same bytes.
  for (const auto& [t, row] : covering) ++index.offsets_[t + 1];
  for (size_t t = 1; t <= num_t; ++t) {
    index.offsets_[t] += index.offsets_[t - 1];
  }
  index.rows_.resize(covering.size());
  std::vector<uint32_t> cursor(index.offsets_.begin(),
                               index.offsets_.end() - 1);
  for (const auto& [t, row] : covering) index.rows_[cursor[t]++] = row;
  return index;
}

}  // namespace tj
