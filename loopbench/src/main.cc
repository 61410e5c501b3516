// loopbench: one CCP control-loop workload per process.
//
//   loopbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>]
//
// Runs the checker self-test, then the workload: set-up, timed phase,
// audit phase and end-of-run checks. Prints notes, the attempted/failed
// count of each kind of operation, and as the last line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. Exits nonzero if any check fails.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\nworkloads:",
               argv0);
  for (const auto& n : loopbench::workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

void print_json(const loopbench::Outcome& out) {
  uint64_t attempted = 0, failed = 0;
  for (const auto& op : out.ops) {
    attempted += op.attempted;
    failed += op.failed;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              out.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  loopbench::RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::atof(v);
    } else if (flag == "--trace") {
      cfg.traced = std::string_view(v) == "1";
    } else if (flag == "--trace-out") {
      cfg.trace_out = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || !have_workload || cfg.seconds <= 0) return usage(argv[0]);

  try {
    const auto problems = loopbench::selftest();
    for (const auto& p : problems) std::fprintf(stderr, "selftest: %s\n", p.c_str());
    if (!problems.empty()) return 1;
    std::printf("selftest: ok (planted faults caught: corrupted acked, wrong "
                "vector sample count, dropped command frame)\n");

    const loopbench::Outcome out = loopbench::run_workload(cfg);
    for (const auto& n : out.notes) std::printf("%s\n", n.c_str());
    for (const auto& op : out.ops) {
      std::printf("ops %-20s attempted %llu failed %llu\n", op.name.c_str(),
                  static_cast<unsigned long long>(op.attempted),
                  static_cast<unsigned long long>(op.failed));
    }
    for (const auto& e : out.errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());
    print_json(out);
    return out.errors.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loopbench: %s\n", e.what());
    return 1;
  }
}
