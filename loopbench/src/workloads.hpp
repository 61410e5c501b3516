// The benchmark's workloads and the code that runs one of them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace loopbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string trace_out;  // Chrome trace file (traced runs)
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Attempted and failed counts of one kind of operation.
struct OpCount {
  std::string name;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct Outcome {
  std::vector<std::string> errors;  // failed checks; empty = correct
  std::vector<OpCount> ops;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;   // human-readable lines
};

const std::vector<std::string>& workload_names();
Outcome run_workload(const RunConfig& cfg);

/// Runs a small inline control loop under the audits, then plants faults
/// (a corrupted `acked` field, a report with the wrong sample count, a
/// dropped command frame) and checks that each one is caught. Returns the
/// problems found; empty = the checkers work.
std::vector<std::string> selftest();

}  // namespace loopbench
