// nck_perfbench: runs one workload of the NchooseK benchmark and prints an
// info line (host, build, digests) and, last, the result line
//
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
// with the end-to-end metrics, or with --trace 1 the per-layer metrics.
// perfbench/run.py builds this binary and sets the thread budget; see
// perfbench/README.md.
//
// Exit codes: 0 result printed; 2 bad arguments or missing corpus; 3 a
// wrong hard-feasibility verdict (no result is printed).
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "bench.hpp"

#ifndef NCK_PERFBENCH_BUILD_TYPE
#define NCK_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usage() {
  std::cerr << "usage: nck_perfbench --workload "
               "serve_warm|batch_cold|decompose_large|qaoa_circuit "
               "--seed N --seconds S --trace 0|1 --corpus DIR "
               "[--workers N] [--pool-probe]\n";
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Config config;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--pool-probe") {
        config.pool_probe = true;
        continue;
      }
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") config.workload = value;
      else if (arg == "--seed") config.seed = std::stoull(value);
      else if (arg == "--seconds") config.seconds = std::stod(value);
      else if (arg == "--trace") config.trace = value == "1";
      else if (arg == "--corpus") config.corpus = value;
      else if (arg == "--workers") config.workers = std::stoull(value);
      else return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (config.corpus.empty() || config.seconds <= 0 || config.workers == 0) {
    return usage();
  }

  Outcome out;
  try {
    const std::map<std::string, Outcome (*)(const Config&)> workloads = {
        {"serve_warm", run_serve_warm},
        {"batch_cold", run_batch_cold},
        {"decompose_large", run_decompose_large},
        {"qaoa_circuit", run_qaoa_circuit},
    };
    const auto it = workloads.find(config.workload);
    if (it == workloads.end()) return usage();
    out = it->second(config);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  if (out.check.fatal()) return 3;

  std::map<std::string, std::string> info = out.info;
  info["workload"] = config.workload;
  info["seed"] = std::to_string(config.seed);
  info["workers"] = std::to_string(config.workers);
  info["build_type"] = NCK_PERFBENCH_BUILD_TYPE;
  info["compiler"] = __VERSION__;
  info["failed_frac"] = std::to_string(
      out.check.attempted()
          ? static_cast<double>(out.check.failed()) /
                static_cast<double>(out.check.attempted())
          : 0.0);
  std::cout << "{\"perfbench_info\": {";
  bool first = true;
  for (const auto& [key, value] : info) {
    std::cout << (first ? "" : ", ") << json_string(key) << ": "
              << json_string(value);
    first = false;
  }
  std::cout << "}}\n";
  std::cout << "{\"correct\": " << (out.check.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << out.check.attempted()
            << ", \"failed\": " << out.check.failed()
            << ", \"metrics\": " << out.metrics.json() << "}" << std::endl;
  return 0;
}
