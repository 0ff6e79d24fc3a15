// odbench: the repository benchmark. Usage:
//
//   odbench --workload <olap_ods|olap_no_ods|implies_churn|onboard>
//           --seed <n> --seconds <s> --trace <0|1>
//   odbench --self-test
//
// Runs one workload from inputs generated from the seed, measures for the
// given seconds, checks every answer, and prints as its last line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when any answer check failed, 2 on bad usage or an
// error. Normally started through odbench/run.py, which builds it first.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "harness.h"

namespace {

int Usage() {
  std::cerr << "usage: odbench --workload <olap_ods|olap_no_ods|implies_churn|"
               "onboard> --seed <n> --seconds <s> --trace <0|1>\n"
               "       odbench --self-test\n";
  return 2;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace odbench;
  RunConfig cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      const int failures = RunSelfTest();
      std::cout << (failures == 0 ? "self-test passed\n"
                                  : "self-test FAILED\n");
      return failures == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && cfg.seconds > 0;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      cfg.trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return Usage();

  Metrics metrics;
  Outcomes outcomes;
  try {
    if (cfg.workload == "olap_ods") {
      RunOlap(cfg, /*with_ods=*/true, &metrics, &outcomes);
    } else if (cfg.workload == "olap_no_ods") {
      RunOlap(cfg, /*with_ods=*/false, &metrics, &outcomes);
    } else if (cfg.workload == "implies_churn") {
      RunChurn(cfg, &metrics, &outcomes);
    } else if (cfg.workload == "onboard") {
      RunOnboard(cfg, &metrics, &outcomes);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "odbench: " << cfg.workload << " aborted: " << e.what()
              << "\n";
    return 2;
  }

  const std::vector<MetricDef>& defs =
      cfg.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::string json = "{\"correct\": ";
  const bool correct = outcomes.failed() == 0 && outcomes.attempted() > 0;
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcomes.attempted());
  json += ", \"failed\": " + std::to_string(outcomes.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < defs.size(); ++i) {
    auto it = metrics.find(defs[i].name);
    if (it == metrics.end() && !cfg.trace) {
      std::cerr << "odbench: " << cfg.workload << " did not report "
                << defs[i].name << "\n";
      return 2;
    }
    const double value = it == metrics.end() ? 0.0 : it->second;
    if (i > 0) json += ", ";
    json += "\"" + std::string(defs[i].name) + "\": {\"value\": " +
            JsonNumber(value) + ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}
