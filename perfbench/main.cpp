// deltanc_perfbench -- the benchmark harness behind perfbench/run.py.
//
//   deltanc_perfbench --workload figures|batch_warm --seed N --seconds S
//                     --trace 0|1 --work DIR --cli PATH
//
// The traced run of batch_warm also measures the serve layer (deltanc_cli
// --serve at PATH under the serve_mixed traffic mix).
//
// Prints one JSON object on stdout: {"correct", "attempted", "failed",
// "metrics": {name: value}, "exact": {name: value}}; failed checks are
// described on stderr; a non-finite value prints as null.
// run.py attaches units, checks the metric set against BENCHMARK.json
// (a null fails the run), and compares the "exact" counts across runs of
// the same seed and code.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"

namespace {

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "deltanc_perfbench: %s\nusage: deltanc_perfbench --workload "
               "figures|batch_warm --seed N --seconds S --trace 0|1 --work DIR "
               "--cli PATH\n",
               message.c_str());
  std::exit(2);
}

int cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

void print_number(double v) {
  if (v != v || v == 1.0 / 0.0 || v == -1.0 / 0.0) {
    std::printf("null");
  } else {
    std::printf("%.17g", v);
  }
}

void print_map(const char* name,
               const std::map<std::string, double>& values) {
  std::printf("\"%s\": {", name);
  bool first = true;
  for (const auto& [key, value] : values) {
    std::printf("%s\"%s\": ", first ? "" : ", ", key.c_str());
    print_number(value);
    first = false;
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Context ctx;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value after " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      ctx.workload = value;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      ctx.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      ctx.trace = value == "1";
    } else if (flag == "--work") {
      ctx.work = value;
    } else if (flag == "--cli") {
      ctx.cli = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (ctx.work.empty()) usage("--work is required");
  if (!(ctx.seconds > 0)) usage("--seconds must be > 0");
  ctx.threads = std::min(cpu_count(), 4);
  std::filesystem::create_directories(ctx.work);

  perfbench::Report report;
  try {
    if (ctx.workload == "figures") {
      report = perfbench::run_figures(ctx);
    } else if (ctx.workload == "batch_warm") {
      report = perfbench::run_batch_warm(ctx);
      if (ctx.trace) {
        if (ctx.cli.empty()) usage("the traced batch_warm run needs --cli");
        const perfbench::Report serve = perfbench::run_serve_layer(ctx);
        report.attempted += serve.attempted;
        report.failed += serve.failed;
        report.problems.insert(report.problems.end(), serve.problems.begin(),
                               serve.problems.end());
        report.metrics.insert(serve.metrics.begin(), serve.metrics.end());
        report.exact.insert(serve.exact.begin(), serve.exact.end());
      }
    } else {
      usage("unknown workload '" + ctx.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "deltanc_perfbench: %s\n", e.what());
    return 1;
  }

  if (ctx.trace) {
    report.metrics["failed_share"] = static_cast<double>(report.failed) /
                                     static_cast<double>(report.attempted);
  }
  for (const std::string& p : report.problems) {
    std::fprintf(stderr, "deltanc_perfbench: FAILED CHECK: %s\n", p.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, ",
              report.failed == 0 ? "true" : "false", report.attempted,
              report.failed);
  print_map("metrics", report.metrics);
  std::printf(", ");
  print_map("exact", report.exact);
  std::printf("}\n");
  return 0;
}
