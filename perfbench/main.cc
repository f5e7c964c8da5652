// perfbench: the benchmark binary (run.py builds and calls it).
//
//   perfbench gen --workload W --seed N --dir D [--tiny]
//       writes the workload's seeded inputs under D (inputs.h).
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//                 [--tiny] [--inject-failures N] [--alter-answer]
//       runs the workload over D's files and prints one "metric <name>
//       <value> <unit>" line per metric, then the result object as the
//       last line: the end-to-end metrics with --trace 0, the per-layer
//       metrics with --trace 1.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "inputs.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench gen --workload W --seed N --dir D [--tiny]\n"
               "       perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --dir D\n"
               "                     [--tiny] [--inject-failures N] "
               "[--alter-answer]\n"
               "workloads: learn-deep, repo-scan, serve-mixed\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  RunOptions options;
  bool have_workload = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      if (!ParseWorkload(argv[++i], &options.workload)) return Usage();
      have_workload = true;
    } else if (flag == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (flag == "--dir" && has_value) {
      options.dir = argv[++i];
    } else if (flag == "--tiny") {
      options.tiny = true;
    } else if (flag == "--inject-failures" && has_value) {
      options.inject_failures = std::atoi(argv[++i]);
    } else if (flag == "--alter-answer") {
      options.alter_answer = true;
    } else {
      return Usage();
    }
  }
  if (!have_workload || options.dir.empty() || options.seconds <= 0.0) {
    return Usage();
  }

  if (command == "gen") {
    const tj::Status written = GenerateInputs(options.workload, options.seed,
                                              options.tiny, options.dir);
    if (!written.ok()) {
      std::fprintf(stderr, "perfbench gen: %s\n", written.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (command != "run") return Usage();

  // Inputs, spans and the daemon socket all live in the input directory;
  // relative paths keep the socket path short.
  if (::chdir(options.dir.c_str()) != 0) {
    std::fprintf(stderr, "perfbench run: cannot enter %s\n",
                 options.dir.c_str());
    return 1;
  }
  std::signal(SIGPIPE, SIG_IGN);
  tj::Result<RunResult> result = RunWorkload(options);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench run: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  for (const std::string& divergence : result->outcome.divergences) {
    std::fprintf(stderr, "divergence: %s\n", divergence.c_str());
  }
  std::fputs(result->report.TextLines().c_str(), stdout);
  std::printf("%s\n",
              result->report
                  .JsonLine(result->outcome, options.trace ? PerLayerMetrics()
                                                           : EndToEndMetrics())
                  .c_str());
  return 0;
}
