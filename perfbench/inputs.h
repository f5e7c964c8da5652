// Seeded input generation. The generator runs in its own process before
// any timing starts and writes everything as files; the workload process
// then sees only those files. Layout under an input directory:
//
//   pairs/pNN-src.csv, pairs/pNN-tgt.csv   learn-deep table pairs
//   corpus/*.csv                            repo-scan / serve-mixed corpus
//   alt/churnNN.csv                         serve-mixed: second version of
//                                           each table the updates rotate
//   truth/planted.csv                       name,source table,target table
//   truth/<name>.csv                        golden source_row,target_row
//
// truth/ is read only by the benchmark's output checks.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "table/table_pair.h"

namespace perfbench {

enum class Workload { kLearnDeep, kRepoScan, kServeMixed };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload workload);

/// Input sizes of one workload. `tiny` is the self-check scale.
struct InputShape {
  // learn-deep
  size_t synth_n_pairs = 0;   // Synth-N pairs at pair_rows
  size_t synth_nl_pairs = 0;  // Synth-NL pairs at pair_rows
  size_t pair_rows = 0;
  size_t large_pairs = 0;     // Synth-N pairs at large_rows
  size_t large_rows = 0;
  // repo-scan and serve-mixed
  size_t planted_pairs = 0;
  size_t noise_tables = 0;
  size_t corpus_rows = 0;
  size_t churn_tables = 0;  // tables written in two versions (updates)
};

InputShape ShapeFor(Workload workload, bool tiny);

/// Writes the workload's inputs for `seed` under `dir` (created).
tj::Status GenerateInputs(Workload workload, uint64_t seed, bool tiny,
                          const std::string& dir);

/// One planted joinable pair with its row-level ground truth. For
/// learn-deep the tables are files under pairs/; for the corpus workloads
/// they are catalog tables named source_table / target_table.
struct PlantedPair {
  std::string name;
  std::string source_table;
  std::string target_table;
  tj::PairSet golden;  // (source row, target row)
};

tj::Result<std::vector<PlantedPair>> LoadPlanted(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
