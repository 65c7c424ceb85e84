// perfbench: the repository's end-to-end benchmark driver.
//
//   perfbench --workload <sp2b_cold|gmark_paths|serve_mixed> --seed <n>
//             --seconds <s> --trace <0|1> --expected <dir> [--trace-out <f>]
//   perfbench --pin <sp2b_cold|gmark_paths> --variant <v>
//
// The first form measures one workload and prints, as the last line of
// stdout, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The second
// form prints the expected answers of one offline dataset variant, one per
// line, in the format of perfbench/expected/<workload>.tsv.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  perfbench::Settings settings;
  std::string pin;
  uint32_t variant = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      settings.workload = value;
    } else if (flag == "--seed") {
      settings.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      settings.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      settings.trace = value == "1";
    } else if (flag == "--expected") {
      settings.expected_dir = value;
    } else if (flag == "--trace-out") {
      settings.trace_out = value;
    } else if (flag == "--pin") {
      pin = value;
    } else if (flag == "--variant") {
      variant = static_cast<uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!pin.empty()) return perfbench::PinOffline(pin, variant);
  if (settings.workload == "serve_mixed") return perfbench::RunServe(settings);
  return perfbench::RunOffline(settings);
}
