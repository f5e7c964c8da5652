// csv_join_tool: a command-line front end for the whole pipeline — join two
// CSV files whose join columns are formatted differently.
//
//   csv_join_tool <left.csv> <left-column> <right.csv> <right-column>
//                 [--sample N] [--rules out.tj] [--out out.csv]
//                 [--golden pairs.csv] [--precheck]
//                 [--threads N] [--support F] [--spill-dir DIR]
//                 [--memory-budget BYTES] [--failpoints SPEC]
//
// The tool matches candidate rows with the n-gram matcher, discovers
// transformations, applies those above the support threshold, equi-joins,
// and writes the joined rows (all columns from both tables) as CSV. With
// --rules, the applied transformations are also saved in the textual rule
// format (reloadable via LoadTransformationsFromFile — the paper's §8
// transfer workflow). With --golden (a two-column CSV of 0-based
// left-row,right-row index pairs), the join is scored with P/R/F1. The
// last five flags are shared with corpus_discovery_tool (tool_flags.h).

#include <cstdio>
#include <cstring>
#include <string>

#include "common/strings.h"
#include "core/serialization.h"
#include "corpus/lsh_index.h"
#include "corpus/pair_pruner.h"
#include "join/join_engine.h"
#include "table/csv.h"
#include "tool_flags.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <left.csv> <left-column> <right.csv> "
               "<right-column>\n"
               "          [--sample N] [--rules out.tj] [--out out.csv]\n"
               "          [--golden pairs.csv] [--precheck]\n"
               "          [--threads N] [--support F] [--spill-dir DIR]\n"
               "          [--memory-budget BYTES] [--failpoints SPEC]\n"
               "  --precheck: sketch both join columns and report the\n"
               "      estimated n-gram containment plus whether their\n"
               "      MinHash sketches collide (what the corpus LSH probe\n"
               "      would see), then exit: 0 when the corpus pruner would\n"
               "      keep the pair, 3 when it would drop it\n",
               argv0);
  std::fputs(tj::cli::kSharedUsage, stderr);
  return tj::cli::kUsageExit;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tj;
  if (argc < 5) return Usage(argv[0]);

  const std::string left_path = argv[1];
  const std::string left_column = argv[2];
  const std::string right_path = argv[3];
  const std::string right_column = argv[4];
  JoinOptions options;
  options.matching = MatchingMode::kNgram;
  options.discovery.num_threads = 0;  // all cores
  std::string rules_path;
  std::string out_path;
  std::string golden_path;
  bool precheck = false;
  StorageOptions storage;
  for (int i = 5; i < argc; ++i) {
    const cli::SharedFlag shared =
        cli::ParseSharedFlag(argc, argv, &i, Usage,
                             &options.discovery.num_threads, &options,
                             &storage);
    if (shared == cli::SharedFlag::kRejected) return cli::kUsageExit;
    if (shared == cli::SharedFlag::kParsed) continue;
    if (std::strcmp(argv[i], "--precheck") == 0) {
      precheck = true;
    } else if (std::strcmp(argv[i], "--sample") == 0 && i + 1 < argc) {
      if (!ParseWhole(argv[++i], &options.sample_pairs)) {
        return cli::InvalidValue(Usage, argv[0], "--sample", argv[i]);
      }
    } else if (std::strcmp(argv[i], "--rules") == 0 && i + 1 < argc) {
      rules_path = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--golden") == 0 && i + 1 < argc) {
      golden_path = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }
  options.match_options.num_threads = options.discovery.num_threads;
  const int prepared = cli::PrepareOptions(options, storage);
  if (prepared != 0) return prepared;

  auto left = ReadCsvFile(left_path, CsvOptions(), storage);
  if (!left.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", left_path.c_str(),
                 left.status().ToString().c_str());
    return 1;
  }
  auto right = ReadCsvFile(right_path, CsvOptions(), storage);
  if (!right.ok()) {
    std::fprintf(stderr, "error reading %s: %s\n", right_path.c_str(),
                 right.status().ToString().c_str());
    return 1;
  }
  if (storage.memory_budget_bytes > 0) {
    // Drop ingest-dirtied pages: the join faults cells back in on demand,
    // so steady-state RSS tracks the matcher's working set, not the files.
    left->ReleasePages();
    right->ReleasePages();
  }
  const auto left_idx = left->ColumnIndex(left_column);
  const auto right_idx = right->ColumnIndex(right_column);
  if (!left_idx.ok() || !right_idx.ok()) {
    std::fprintf(stderr, "join column not found\n");
    return 1;
  }

  if (precheck) {
    // The corpus pruning view of this pair, without running the join: the
    // same sketches TableCatalog::ComputeSignatures builds, the LSH probe
    // the incremental pruner runs, and the pruner's own gates at their
    // defaults for the verdict.
    const ColumnSignature sig_left =
        ComputeColumnSignature(left->column(*left_idx));
    const ColumnSignature sig_right =
        ComputeColumnSignature(right->column(*right_idx));
    const double containment = EstimateNgramContainment(sig_left, sig_right);
    LshIndex probe;
    probe.Insert(ColumnRef{}, sig_left);
    const bool collide = !probe.Probe(sig_right).empty();
    const bool keep =
        ScoreSignaturePair(sig_left, sig_right, PairPrunerOptions())
            .has_value();
    std::printf("precheck %s.%s vs %s.%s\n", left_path.c_str(),
                left_column.c_str(), right_path.c_str(),
                right_column.c_str());
    std::printf("  distinct 4-grams: %zu vs %zu\n",
                sig_left.distinct_ngrams, sig_right.distinct_ngrams);
    std::printf("  estimated jaccard: %.4f\n",
                EstimateJaccard(sig_left, sig_right));
    std::printf("  estimated containment: %.4f\n", containment);
    std::printf("  lsh bands collide (128x1): %s\n",
                collide ? "yes" : "no");
    std::printf(
        "  verdict: %s\n",
        keep      ? "worth joining (a corpus probe would surface this pair)"
        : collide ? "unpromising (the corpus pruner would drop this pair)"
                  : "unpromising (a corpus probe would never score this "
                    "pair)");
    return keep ? 0 : 3;
  }

  // The more descriptive column becomes the transformation source (§4.2.1).
  TablePair pair;
  const bool left_is_source = PickSourceColumn(left->column(*left_idx),
                                               right->column(*right_idx));
  pair.source = left_is_source ? *left : *right;
  pair.target = left_is_source ? *right : *left;
  pair.source_join_column = left_is_source ? *left_idx : *right_idx;
  pair.target_join_column = left_is_source ? *right_idx : *left_idx;

  // Optional golden matching: left-row,right-row index pairs, remapped to
  // the source/target orientation chosen above. A cell that is not a row
  // index of its table rejects the file: scoring it as some other pair
  // would report a wrong P/R/F1 without a word.
  if (!golden_path.empty()) {
    auto golden = ReadCsvFile(golden_path);
    if (!golden.ok() || golden->num_columns() < 2) {
      std::fprintf(stderr, "error reading golden pairs from %s\n",
                   golden_path.c_str());
      return 1;
    }
    const char* const side_name[2] = {"left", "right"};
    const std::string* const side_path[2] = {&left_path, &right_path};
    const size_t side_rows[2] = {left->num_rows(), right->num_rows()};
    for (size_t r = 0; r < golden->num_rows(); ++r) {
      uint32_t row[2];
      for (int side = 0; side < 2; ++side) {
        const std::string cell(golden->column(side).Get(r));
        if (!ParseWhole(cell, &row[side]) || row[side] >= side_rows[side]) {
          // Records count from 1 after the header line.
          std::fprintf(stderr,
                       "error in golden pairs %s, record %zu: %s row '%s' "
                       "is not a row index of %s (%zu rows)\n",
                       golden_path.c_str(), r + 1, side_name[side],
                       cell.c_str(), side_path[side]->c_str(),
                       side_rows[side]);
          return 1;
        }
      }
      pair.golden.Add(left_is_source ? RowPair{row[0], row[1]}
                                     : RowPair{row[1], row[0]});
    }
  }

  const JoinResult result = TransformJoin(pair, options);

  std::printf("learning pairs: %zu, discovery: %.2fs\n",
              result.learning_pairs, result.discovery_seconds);
  std::printf("transformations applied (%zu):\n",
              result.applied_transformations.size());
  for (const auto& t : result.applied_transformations) {
    std::printf("  %s\n", t.c_str());
  }
  std::printf("joined rows: %zu\n", result.joined.size());
  if (!pair.golden.empty()) {
    std::printf("quality vs golden: %s\n",
                FormatPrf(result.metrics).c_str());
  }

  if (!rules_path.empty()) {
    std::vector<TransformationId> ids;
    for (const auto& ranked : result.discovery.cover.selected) {
      ids.push_back(ranked.id);
    }
    const Status saved = SaveTransformationsToFile(
        rules_path, result.discovery.store, result.discovery.units, ids);
    if (!saved.ok()) {
      std::fprintf(stderr, "error saving rules: %s\n",
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("rules written to %s\n", rules_path.c_str());
  }

  if (!out_path.empty()) {
    Table joined("joined");
    // All source columns, then all target columns (prefixed on clash).
    for (const Column& c : pair.source.columns()) {
      Column out(c.name());
      for (const RowPair& p : result.joined) {
        out.Append(c.Get(p.source));
      }
      if (!joined.AddColumn(std::move(out)).ok()) {
        std::fprintf(stderr, "internal error assembling output\n");
        return 1;
      }
    }
    for (const Column& c : pair.target.columns()) {
      std::string name = c.name();
      if (joined.FindColumn(name) != nullptr) name = "right." + name;
      Column out(name);
      for (const RowPair& p : result.joined) {
        out.Append(c.Get(p.target));
      }
      if (!joined.AddColumn(std::move(out)).ok()) {
        std::fprintf(stderr, "internal error assembling output\n");
        return 1;
      }
    }
    const Status written = WriteCsvFile(joined, out_path);
    if (!written.ok()) {
      std::fprintf(stderr, "error writing %s: %s\n", out_path.c_str(),
                   written.ToString().c_str());
      return 1;
    }
    std::printf("joined table written to %s\n", out_path.c_str());
  }
  return 0;
}
