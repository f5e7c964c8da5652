#include "join/join_engine.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "common/hash.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/example.h"

namespace tj {
namespace {

/// Seed of the candidate-pair sample, fixed so a sampled run repeats.
constexpr uint64_t kSampleSeed = 42;

/// Uniform sample without replacement of `k` of the `n` pairs (keeps input
/// order); identity when k >= n or k == 0.
std::vector<RowPair> SamplePairs(const std::vector<RowPair>& pairs, size_t k) {
  if (k == 0 || pairs.size() <= k) return pairs;
  // Reservoir-free approach: shuffle index array, take the first k, restore
  // input order for determinism of downstream row iteration.
  std::vector<uint32_t> idx(pairs.size());
  for (uint32_t i = 0; i < idx.size(); ++i) idx[i] = i;
  Rng rng(kSampleSeed);
  rng.Shuffle(&idx);
  idx.resize(k);
  std::sort(idx.begin(), idx.end());
  std::vector<RowPair> out;
  out.reserve(k);
  for (uint32_t i : idx) out.push_back(pairs[i]);
  return out;
}

}  // namespace

JoinResult TransformJoin(const TablePair& pair, const JoinOptions& options) {
  return TransformJoinColumns(pair.SourceColumn(), pair.TargetColumn(),
                              &pair.golden, options);
}

JoinResult TransformJoinColumns(const Column& source, const Column& target,
                                const PairSet* golden,
                                const JoinOptions& options) {
  JoinResult result;

  // One pool for every phase of this pair. When the caller already supplied
  // a pool (corpus driver) or everything is serial, construct none. A phase
  // whose num_threads resolves to 1 keeps its serial reference path (the
  // pool is not installed on it); phases that asked for parallelism share
  // one pool sized by the larger request.
  JoinOptions local = options;
  std::optional<ThreadPool> shared;
  if (local.discovery.pool == nullptr && local.match_options.pool == nullptr &&
      !InParallelFor()) {
    const int discovery_threads = ResolveNumThreads(local.discovery.num_threads);
    const int match_threads = ResolveNumThreads(local.match_options.num_threads);
    if (std::max(discovery_threads, match_threads) > 1) {
      shared.emplace(std::max(discovery_threads, match_threads));
      if (discovery_threads > 1) local.discovery.pool = &*shared;
      if (match_threads > 1) local.match_options.pool = &*shared;
    }
  }

  // Step 1: candidate row pairs for learning.
  std::vector<RowPair> candidates;
  if (local.matching == MatchingMode::kGolden) {
    if (golden != nullptr) candidates = golden->pairs();
  } else {
    candidates =
        FindJoinablePairs(source, target, local.match_options).pairs;
  }
  candidates = SamplePairs(candidates, local.sample_pairs);
  result.learning_pairs = candidates.size();
  if (candidates.size() < local.min_learning_pairs) return result;

  // Step 2: discover transformations on the learning pairs.
  const std::vector<ExamplePair> examples =
      MakeExamplePairs(source, target, candidates);
  Stopwatch discovery_watch;
  result.discovery = DiscoverTransformations(examples, local.discovery);
  result.discovery_seconds = discovery_watch.ElapsedSeconds();

  // Step 3: keep covering-set transformations above the join support.
  const auto min_support = static_cast<uint32_t>(std::ceil(
      local.min_join_support * static_cast<double>(examples.size())));
  std::vector<TransformationId> applied;
  for (const RankedTransformation& ranked : result.discovery.cover.selected) {
    if (ranked.coverage >= min_support && ranked.coverage >= 1) {
      applied.push_back(ranked.id);
      result.applied_transformations.push_back(
          result.discovery.store.Get(ranked.id).ToString(
              result.discovery.units));
    }
  }

  // Step 4: hash the target column, transform every source row, equi-join.
  result.joined = ApplyAndEquiJoin(source, target, result.discovery.store,
                                   result.discovery.units, applied);
  if (golden != nullptr) {
    result.metrics = EvaluatePairs(result.joined, *golden);
  }
  return result;
}

std::vector<RowPair> ApplyAndEquiJoin(
    const Column& source, const Column& target,
    const TransformationStore& store, const UnitInterner& units,
    const std::vector<TransformationId>& ids) {
  std::unordered_map<std::string, std::vector<uint32_t>, StringHash, StringEq>
      target_rows;
  for (uint32_t row = 0; row < target.size(); ++row) {
    target_rows[std::string(target.Get(row))].push_back(row);
  }
  std::vector<Transformation> applied;
  applied.reserve(ids.size());
  for (TransformationId id : ids) applied.push_back(store.Get(id));
  PairSet joined;
  for (uint32_t row = 0; row < source.size(); ++row) {
    const std::string_view value = source.Get(row);
    for (const Transformation& t : applied) {
      const auto transformed = t.Apply(value, units);
      if (!transformed.has_value()) continue;
      auto it = target_rows.find(*transformed);
      if (it == target_rows.end()) continue;
      for (uint32_t target_row : it->second) {
        joined.Add(RowPair{row, target_row});
      }
    }
  }
  return joined.pairs();
}

Status ValidateOptions(const JoinOptions& options) {
  TJ_RETURN_IF_ERROR(ValidateOptions(options.match_options));
  TJ_RETURN_IF_ERROR(ValidateOptions(options.discovery));
  if (!(options.min_join_support >= 0.0) ||
      !(options.min_join_support <= 1.0)) {
    return Status::InvalidArgument(
        "JoinOptions::min_join_support must be in [0, 1]");
  }
  return Status::OK();
}

}  // namespace tj
