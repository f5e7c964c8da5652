#include "core/generator.h"

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/skeleton.h"
#include "core/unit_extraction.h"
#include "text/lcp.h"

namespace tj {
namespace {

constexpr size_t kNoLiteral = std::numeric_limits<size_t>::max();
constexpr UnitId kUnfused = std::numeric_limits<UnitId>::max();

/// A placeholder's candidate units and the index of its one literal among
/// them (kNoLiteral when the per-placeholder cap dropped it).
struct Candidates {
  std::vector<UnitId> units;
  size_t literal = kNoLiteral;
};

size_t LiteralIndex(const std::vector<UnitId>& units,
                    const UnitInterner& interner) {
  size_t found = kNoLiteral;
  for (size_t k = 0; k < units.size(); ++k) {
    if (interner.Get(units[k]).kind != UnitKind::kLiteral) continue;
    TJ_CHECK(found == kNoLiteral);  // fusion assumes one literal per slot
    found = k;
  }
  return found;
}

}  // namespace

void GenerateTransformationsForRow(std::string_view source,
                                   std::string_view target,
                                   const DiscoveryOptions& options,
                                   UnitInterner* interner,
                                   TransformationStore* store,
                                   DiscoveryStats* stats) {
  // Phase 1: placeholders and skeletons.
  std::vector<Skeleton> skeletons;
  {
    ScopedTimer timer(&stats->cpu_placeholder_gen);
    const LcpTable lcp = LcpTable::Build(source, target);
    skeletons = EnumerateSkeletons(target, lcp, options);
  }
  if (skeletons.empty()) return;
  stats->skeletons += skeletons.size();
  stats->placeholders += static_cast<uint64_t>(skeletons[0].num_placeholders);

  // Phase 2: candidate units per placeholder. Blocks are shared between the
  // base skeleton and its tokenized variants, so memoize per (begin, end),
  // packed into one 64-bit key. References into the map stay valid across
  // rehashes (only iterators are invalidated), so candidates_for can hand
  // out stable references while new blocks are being memoized.
  struct PackedRangeHash {
    size_t operator()(uint64_t key) const {
      return static_cast<size_t>(Mix64(key));
    }
  };
  std::unordered_map<uint64_t, Candidates, PackedRangeHash> unit_memo;
  auto candidates_for = [&](const SkeletonBlock& block) -> const Candidates& {
    const uint64_t key =
        (static_cast<uint64_t>(block.begin) << 32) | block.end;
    auto it = unit_memo.find(key);
    if (it != unit_memo.end()) return it->second;
    Candidates candidates;
    {
      ScopedTimer timer(&stats->cpu_unit_extraction);
      ExtractUnitsForPlaceholder(source, target, block, options, interner,
                                 &candidates.units);
    }
    candidates.literal = LiteralIndex(candidates.units, *interner);
    return unit_memo.emplace(key, std::move(candidates)).first->second;
  };

  // Phase 3: Cartesian product, appended to the store, bounded per row.
  //
  // Literal fusion is resolved per skeleton, not per tuple. Each slot offers
  // at most one literal (a literal block's unit, or the Literal(text) a
  // placeholder may list), so a maximal literal run of a tuple is fixed by
  // its slot range [i, j) alone. Its fused unit is interned the first time
  // the range occurs and read back from `fused` after that; interning is
  // idempotent, so the interner grows at the same points, in the same
  // order, as normalizing every tuple with Transformation::Normalized.
  // The scratch below is reused by every tuple of every skeleton.
  size_t remaining = options.max_transformations_per_row;
  bool capped = false;
  std::vector<std::span<const UnitId>> slots;
  std::vector<size_t> literal;  // per slot: candidate index of its literal
  std::vector<UnitId> literal_blocks;
  std::vector<UnitId> fused;  // [i * n + j]: run [i, j), j - i >= 2
  std::vector<size_t> cursor;
  std::vector<UnitId> normalized;
  std::string text;
  for (const Skeleton& skeleton : skeletons) {
    if (remaining == 0) {
      capped = true;
      break;
    }
    slots.clear();
    literal.clear();
    // Reserved up front: the slots hold views into it.
    literal_blocks.clear();
    literal_blocks.reserve(skeleton.blocks.size());
    bool dead_slot = false;
    for (const SkeletonBlock& block : skeleton.blocks) {
      if (block.is_placeholder) {
        const Candidates& candidates = candidates_for(block);
        if (candidates.units.empty()) {
          dead_slot = true;
          break;
        }
        slots.emplace_back(candidates.units);
        literal.push_back(candidates.literal);
      } else {
        literal_blocks.push_back(interner->Intern(Unit::MakeLiteral(
            std::string(target.substr(block.begin, block.end - block.begin)))));
        slots.emplace_back(&literal_blocks.back(), 1);
        literal.push_back(0);
      }
    }
    if (dead_slot || slots.empty()) continue;
    const size_t n = slots.size();
    fused.assign(n * n, kUnfused);
    const auto fused_unit = [&](size_t i, size_t j) {
      UnitId& unit = fused[i * n + j];
      if (unit == kUnfused) {
        text.clear();
        for (size_t k = i; k < j; ++k) {
          text += interner->Get(slots[k][literal[k]]).literal;
        }
        unit = interner->Intern(Unit::MakeLiteral(text));
      }
      return unit;
    };

    // Odometer over the Cartesian product.
    cursor.assign(n, 0);
    ScopedTimer timer(&stats->cpu_duplicate_removal);
    for (;;) {
      normalized.clear();
      for (size_t i = 0; i < n;) {
        size_t j = i + 1;
        if (cursor[i] == literal[i]) {
          while (j < n && cursor[j] == literal[j]) ++j;
        }
        normalized.push_back(j - i == 1 ? slots[i][cursor[i]]
                                        : fused_unit(i, j));
        i = j;
      }
      store->Append(normalized);
      ++stats->generated_transformations;
      if (--remaining == 0) {
        capped = true;
        break;
      }
      // Advance the odometer.
      size_t i = 0;
      for (; i < n; ++i) {
        if (++cursor[i] < slots[i].size()) break;
        cursor[i] = 0;
      }
      if (i == n) break;
    }
    if (remaining == 0) break;
  }
  if (capped) ++stats->rows_capped;
}

}  // namespace tj
