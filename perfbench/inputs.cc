#include "inputs.h"

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/hash.h"
#include "common/rng.h"
#include "common/strings.h"
#include "datagen/corpus.h"
#include "datagen/synth.h"
#include "table/csv.h"

namespace perfbench {
namespace fs = std::filesystem;
namespace {

tj::Status WriteTable(const tj::Table& table, const fs::path& path) {
  return tj::WriteCsvFile(table, path.string());
}

tj::Status WriteTruth(const fs::path& dir, const std::string& name,
                      const tj::PairSet& golden) {
  std::ofstream out(dir / (name + ".csv"));
  out << "source_row,target_row\n";
  for (const tj::RowPair& p : golden.pairs()) {
    out << p.source << "," << p.target << "\n";
  }
  out.close();
  if (!out) return tj::Status::IOError("cannot write truth for " + name);
  return tj::Status::OK();
}

constexpr std::string_view kRowAlphabet =
    "abcdefghijklmnopqrstuvwxyz0123456789";  // the Synth generator's rows
constexpr int kMaxRowDraws = 100000;
// The catalog's sketches hash 4-grams (SignatureOptions::ngram). A corpus
// row never holds this many digits in a row, so a planted column shares no
// gram with an all-digit id column and is never shortlisted with one.
constexpr size_t kDigitRun = 4;
// Churn tables' value cells: no letter, digit, space or character of the
// noise tables' values, so they share no gram with a planted column.
constexpr std::string_view kChurnAlphabet = "!#$%&*+/:;<=>?@^~";

bool HasDigitRun(std::string_view row, size_t run) {
  size_t digits = 0;
  for (char c : row) {
    digits = (c >= '0' && c <= '9') ? digits + 1 : 0;
    if (digits >= run) return true;
  }
  return false;
}

/// True when every unit of `t` evaluates on `row` and every placeholder
/// unit yields a non-empty piece (the Synth generator's row condition).
bool Applies(const tj::Transformation& t, std::string_view row,
             const tj::UnitInterner& units) {
  for (tj::UnitId id : t.units()) {
    const tj::Unit& unit = units.Get(id);
    const auto out = unit.Eval(row);
    if (!out.has_value() || (!unit.IsConstant() && out->empty())) return false;
  }
  return true;
}

/// One planted pair: the ground-truth rules of the slot's Synth draw
/// (`rule_seed`, the same for every workload seed) applied to rows drawn
/// from `row_seed`, the rules taking rows in turn. The seed changes every
/// cell while each slot keeps its rule family and each rule its share of
/// rows, so the pair's cost does not hinge on one rule or row-count draw.
/// With `max_digit_run`, rows holding that many digits in a row are redrawn.
tj::Result<tj::TablePair> SeededPair(tj::SynthOptions options,
                                     uint64_t rule_seed, uint64_t row_seed,
                                     size_t max_digit_run = 0) {
  options.seed = rule_seed;
  const tj::SynthDataset rules = tj::GenerateSynth(options);
  tj::Rng rng(row_seed);
  std::vector<std::string> sources;
  std::vector<std::string> targets;
  for (size_t r = 0; r < options.num_rows; ++r) {
    const tj::Transformation& t =
        rules.transformations[r % rules.transformations.size()];
    std::optional<std::string> target;
    std::string row;
    for (int draw = 0; draw < kMaxRowDraws && !target.has_value(); ++draw) {
      row = rng.RandomString(
          static_cast<size_t>(rng.UniformInt(options.min_len, options.max_len)),
          kRowAlphabet);
      if (max_digit_run > 0 && HasDigitRun(row, max_digit_run)) continue;
      if (Applies(t, row, rules.units)) target = t.Apply(row, rules.units);
      if (target.has_value() && target->empty()) target.reset();
    }
    if (!target.has_value()) {
      return tj::Status::Internal("no row satisfies a ground-truth rule");
    }
    sources.push_back(std::move(row));
    targets.push_back(std::move(*target));
  }
  std::vector<uint32_t> order(options.num_rows);  // target j <- source order[j]
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(&order);
  tj::Column source("value");
  for (const std::string& v : sources) source.Append(v);
  tj::Column target("value");
  for (uint32_t j = 0; j < order.size(); ++j) target.Append(targets[order[j]]);
  tj::TablePair pair;
  pair.source = tj::Table("source");
  TJ_RETURN_IF_ERROR(pair.source.AddColumn(std::move(source)));
  pair.target = tj::Table("target");
  TJ_RETURN_IF_ERROR(pair.target.AddColumn(std::move(target)));
  for (uint32_t j = 0; j < order.size(); ++j) {
    pair.golden.Add(tj::RowPair{order[j], j});
  }
  return pair;
}

tj::Status GeneratePairs(const InputShape& shape, uint64_t seed,
                         const fs::path& dir) {
  fs::create_directories(dir / "pairs");
  std::ofstream planted(dir / "truth" / "planted.csv");
  size_t index = 0;
  const auto emit = [&](const tj::SynthOptions& options) -> tj::Status {
    // Rule seeds are the slot numbers: fixed across workload seeds.
    tj::Result<tj::TablePair> pair =
        SeededPair(options, index + 1, tj::HashCombine(seed, index));
    if (!pair.ok()) return pair.status();
    const std::string name = tj::StrPrintf("p%02zu", index++);
    TJ_RETURN_IF_ERROR(
        WriteTable(pair->source, dir / "pairs" / (name + "-src.csv")));
    TJ_RETURN_IF_ERROR(
        WriteTable(pair->target, dir / "pairs" / (name + "-tgt.csv")));
    TJ_RETURN_IF_ERROR(WriteTruth(dir / "truth", name, pair->golden));
    planted << name << "," << name << "-src," << name << "-tgt\n";
    return tj::Status::OK();
  };
  for (size_t i = 0; i < shape.synth_n_pairs; ++i) {
    TJ_RETURN_IF_ERROR(emit(tj::SynthN(shape.pair_rows, 0)));
  }
  for (size_t i = 0; i < shape.synth_nl_pairs; ++i) {
    TJ_RETURN_IF_ERROR(emit(tj::SynthNL(shape.pair_rows, 0)));
  }
  for (size_t i = 0; i < shape.large_pairs; ++i) {
    TJ_RETURN_IF_ERROR(emit(tj::SynthN(shape.large_rows, 0)));
  }
  planted.close();
  if (!planted) return tj::Status::IOError("cannot write planted.csv");
  return tj::Status::OK();
}

/// A table the serve-mixed update client rewrites: a value column drawn
/// from kChurnAlphabet and a 6-digit id column like the noise tables'. Its
/// ids pair with noise ids, so an update changes the shortlist; no column
/// can pair with a planted one.
tj::Result<tj::Table> ChurnTable(const std::string& name, size_t rows,
                                 tj::Rng* rng) {
  tj::Column values("value");
  tj::Column ids("id");
  for (size_t r = 0; r < rows; ++r) {
    values.Append(rng->RandomString(
        static_cast<size_t>(rng->UniformInt(10, 40)), kChurnAlphabet));
    ids.Append(tj::StrPrintf("%06llu", static_cast<unsigned long long>(
                                           rng->Uniform(1000000))));
  }
  tj::Table table(name);
  TJ_RETURN_IF_ERROR(table.AddColumn(std::move(values)));
  TJ_RETURN_IF_ERROR(table.AddColumn(std::move(ids)));
  return table;
}

tj::Status GenerateCorpus(const InputShape& shape, uint64_t seed,
                          const fs::path& dir) {
  fs::create_directories(dir / "corpus");
  // Noise tables come from the corpus generator. The planted pairs are made
  // like learn-deep's: each slot keeps one fixed Synth-N rule draw and the
  // seed draws its rows, so a served column's cost does not hinge on which
  // rule family the seed happened to draw for it. No planted row holds a
  // digit run (kDigitRun), so no id column is shortlisted with a planted
  // one.
  tj::SynthCorpusOptions options;
  options.num_joinable_pairs = 0;
  options.num_noise_tables = shape.noise_tables;
  options.rows = shape.corpus_rows;
  options.seed = seed;
  const tj::SynthCorpus corpus = tj::GenerateSynthCorpus(options);
  for (const tj::Table& table : corpus.tables) {
    TJ_RETURN_IF_ERROR(
        WriteTable(table, dir / "corpus" / (table.name() + ".csv")));
  }
  std::ofstream planted(dir / "truth" / "planted.csv");
  for (size_t i = 0; i < shape.planted_pairs; ++i) {
    tj::Result<tj::TablePair> pair =
        SeededPair(tj::SynthN(shape.corpus_rows, 0), i + 1,
                   tj::HashCombine(seed, i), kDigitRun);
    if (!pair.ok()) return pair.status();
    const std::string name = tj::StrPrintf("synth%02zu", i);
    TJ_RETURN_IF_ERROR(
        WriteTable(pair->source, dir / "corpus" / (name + "-src.csv")));
    TJ_RETURN_IF_ERROR(
        WriteTable(pair->target, dir / "corpus" / (name + "-tgt.csv")));
    TJ_RETURN_IF_ERROR(WriteTruth(dir / "truth", name, pair->golden));
    planted << name << "," << name << "-src," << name << "-tgt\n";
  }
  planted.close();
  if (!planted) return tj::Status::IOError("cannot write planted.csv");

  if (shape.churn_tables > 0) {
    // Same table names, independent contents: an update alternates a table
    // between its corpus/ and alt/ versions.
    fs::create_directories(dir / "alt");
    tj::Rng rng(tj::Mix64(seed ^ 0xa17a17a17ull));
    for (size_t i = 0; i < shape.churn_tables; ++i) {
      const std::string name = tj::StrPrintf("churn%02zu", i);
      for (const char* version : {"corpus", "alt"}) {
        tj::Result<tj::Table> table = ChurnTable(name, shape.corpus_rows, &rng);
        if (!table.ok()) return table.status();
        TJ_RETURN_IF_ERROR(
            WriteTable(*table, dir / version / (name + ".csv")));
      }
    }
  }
  return tj::Status::OK();
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "learn-deep") {
    *out = Workload::kLearnDeep;
  } else if (name == "repo-scan") {
    *out = Workload::kRepoScan;
  } else if (name == "serve-mixed") {
    *out = Workload::kServeMixed;
  } else {
    return false;
  }
  return true;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kLearnDeep:
      return "learn-deep";
    case Workload::kRepoScan:
      return "repo-scan";
    case Workload::kServeMixed:
      return "serve-mixed";
  }
  return "?";
}

InputShape ShapeFor(Workload workload, bool tiny) {
  InputShape shape;
  if (workload == Workload::kLearnDeep) {
    shape.synth_n_pairs = tiny ? 1 : 4;
    shape.synth_nl_pairs = tiny ? 1 : 8;
    shape.pair_rows = tiny ? 40 : 200;
    shape.large_pairs = 1;
    shape.large_rows = tiny ? 60 : 500;
    return shape;
  }
  shape.planted_pairs = tiny ? 4 : 80;
  shape.noise_tables = tiny ? 24 : 400;
  shape.corpus_rows = tiny ? 30 : 40;
  // Only serve-mixed updates tables.
  if (workload == Workload::kServeMixed) shape.churn_tables = tiny ? 4 : 8;
  return shape;
}

tj::Status GenerateInputs(Workload workload, uint64_t seed, bool tiny,
                          const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(fs::path(dir) / "truth", ec);
  if (ec) return tj::Status::IOError("cannot create " + dir);
  const InputShape shape = ShapeFor(workload, tiny);
  // Distinct workloads never share inputs for one seed.
  const uint64_t mixed =
      tj::Mix64(tj::HashCombine(seed, static_cast<uint64_t>(workload) + 1));
  if (workload == Workload::kLearnDeep) {
    return GeneratePairs(shape, mixed, dir);
  }
  return GenerateCorpus(shape, mixed, dir);
}

tj::Result<std::vector<PlantedPair>> LoadPlanted(const std::string& dir) {
  const fs::path truth = fs::path(dir) / "truth";
  std::ifstream planted(truth / "planted.csv");
  if (!planted) return tj::Status::NotFound("no truth/planted.csv in " + dir);
  std::vector<PlantedPair> out;
  std::string line;
  while (std::getline(planted, line)) {
    if (line.empty()) continue;
    std::stringstream fields(line);
    PlantedPair pair;
    std::getline(fields, pair.name, ',');
    std::getline(fields, pair.source_table, ',');
    std::getline(fields, pair.target_table, ',');
    std::ifstream golden(truth / (pair.name + ".csv"));
    if (!golden) return tj::Status::NotFound("no truth for " + pair.name);
    std::string row;
    std::getline(golden, row);  // header
    while (std::getline(golden, row)) {
      const size_t comma = row.find(',');
      if (comma == std::string::npos) continue;
      pair.golden.Add(tj::RowPair{
          static_cast<uint32_t>(std::stoul(row.substr(0, comma))),
          static_cast<uint32_t>(std::stoul(row.substr(comma + 1)))});
    }
    out.push_back(std::move(pair));
  }
  if (out.empty()) return tj::Status::NotFound("no planted pairs in " + dir);
  return out;
}

}  // namespace perfbench
