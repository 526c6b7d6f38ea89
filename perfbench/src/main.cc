// perfbench: runs one named workload of the seeded warehouse benchmark and
// prints one JSON line with the run stamp, the operation tallies, the
// oracle's findings and every metric the workload measured. run.py builds
// and drives it; see README.md next to it.
//
//   perfbench --workload <refresh|query|mixed> --seed N --seconds S
//             [--trace 0|1] [--trace-file PATH] [--work-dir DIR]
//             [--commit ID] [--plant-wrong-answer]

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "exec/thread_pool.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload refresh|query|mixed "
               "--seed N --seconds S [--trace 0|1] [--trace-file PATH] "
               "[--work-dir DIR] [--commit ID] [--plant-wrong-answer]\n",
               why);
  std::exit(2);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

size_t GeneratorThreads(const std::string& workload) {
  return workload == "mixed" ? 3 : 1;
}

int Main(int argc, char** argv) {
  Options options;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage(("missing value for " + arg).c_str());
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--trace-file") {
      options.trace_file = value();
    } else if (arg == "--work-dir") {
      options.work_dir = value();
    } else if (arg == "--commit") {
      commit = value();
    } else if (arg == "--plant-wrong-answer") {
      options.plant_wrong_answer = true;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload != "refresh" && options.workload != "query" &&
      options.workload != "mixed") {
    Usage("--workload must be refresh, query or mixed");
  }
  if (!(options.seconds > 0 && options.seconds <= 600)) {
    Usage("--seconds must be in (0, 600]");
  }
  if (options.trace && options.trace_file.empty()) {
    Usage("--trace 1 needs --trace-file");
  }
  if (options.work_dir.empty()) {
    options.work_dir = ".bench_build/perfbench/work";
  }

  // Numbers from an unoptimized build, or from more load generators than
  // cores, would not describe the warehouse: refuse to produce them.
  if (!kOptimized) {
    std::fprintf(stderr, "perfbench: refusing to run an unoptimized build "
                         "(build type %s)\n", PERFBENCH_BUILD_TYPE);
    return 3;
  }
  const size_t nproc = std::thread::hardware_concurrency();
  const size_t generators = GeneratorThreads(options.workload);
  if (generators > nproc) {
    std::fprintf(stderr, "perfbench: workload %s needs %zu load-generator "
                         "threads but only %zu cores exist\n",
                 options.workload.c_str(), generators, nproc);
    return 3;
  }

  Tracer tracer;
  if (options.trace) {
    Tracer::Install(&tracer);
  }
  RunReport report = options.workload == "refresh"
                         ? RunRefresh(options)
                         : RunQuery(options, options.workload == "mixed");
  Tracer::Install(nullptr);
  if (options.trace && !tracer.Dump(options.trace_file)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.trace_file.c_str());
    return 2;
  }
  report.Set("failed_frac",
             static_cast<double>(report.failed) /
                 static_cast<double>(report.attempted > 0 ? report.attempted
                                                          : 1),
             "ratio");

  std::string out = "{\"stamp\": {";
  out += "\"workload\": " + JsonString(options.workload);
  out += ", \"seed\": " + std::to_string(options.seed);
  out += ", \"pool_workers\": " +
         std::to_string(dwc::ThreadPool::Shared().worker_count());
  out += ", \"nproc\": " + std::to_string(nproc);
  out += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  out += ", \"optimized\": true";
  out += ", \"generator_threads\": " + std::to_string(generators);
  out += ", \"commit\": " + JsonString(commit);
  out += ", \"traced\": " + std::string(options.trace ? "true" : "false");
  out += "}, \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"oracle_failures\": [";
  for (size_t i = 0; i < report.oracle_failures.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(report.oracle_failures[i]);
  }
  out += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    out += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
           JsonNumber(metric.value) + ", \"unit\": " +
           JsonString(metric.unit) + "}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
