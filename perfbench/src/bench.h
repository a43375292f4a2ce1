// Shared types of the end-to-end benchmark driver (see ../README.md).
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/core.h"
#include "isa/program.h"
#include "obs/metrics.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string clear_bin;  // the `clear` CLI (fleet workers)
  std::string trace_out;  // span JSON of the traced pass ("" = none)
  unsigned nproc = 1;     // CPUs this process may run on
};

// Everything one run produced: the operation tally, every failed check,
// the reported metrics, and the exact outputs the committed-value check
// compares (digests are per seed, counts hold for every seed).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;
  std::map<std::string, std::string> digests;
  std::map<std::string, std::uint64_t> counts;
  std::vector<double> op_walls;  // every timed operation, in order

  // Records a failed check that cost `ops` operations.
  void fail(const std::string& why, std::uint64_t ops = 1) {
    errors.push_back(why);
    failed += ops;
  }
};

// One program the arch probe golden-runs.
struct ProbeProgram {
  std::string core;
  const clear::isa::Program* program = nullptr;
  const clear::arch::ResilienceConfig* cfg = nullptr;
};

// Fills arch.cycles_per_s.<core>, arch.snapshot_ns and arch.restore_ns by
// golden-running `programs` through make_core -> begin -> step_to.
void run_arch_probe(const std::vector<ProbeProgram>& programs,
                    Tracer* tracer, Result* out);

// Registry-delta metrics (inject.*, inject.cache.*, engine.*) between
// two snapshots of one registry (the driver's, or the fleet workers'
// summed).
void registry_metrics(const clear::obs::Snapshot& before,
                      const clear::obs::Snapshot& after, Result* out);
[[nodiscard]] std::uint64_t counter_delta(const clear::obs::Snapshot& before,
                                          const clear::obs::Snapshot& after,
                                          const std::string& name);

// Median and the q-quantile (nearest rank) of a sample; 0 when empty.
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double quantile(std::vector<double> v, double q);

// FNV-1a of `bytes` as 16 hex digits.
[[nodiscard]] std::string digest(const std::string& bytes);

// Folds the traced operation's span tree into per-layer self times plus
// trace.wall_s / trace.unattributed_s (the root's own self time);
// `layers` names every span a workload opens below its root.  Fails the
// run when a span below the root is not a listed layer, or when the parts
// do not add up to the traced wall clock.
void trace_metrics(const Tracer& tracer, std::size_t root,
                   const std::vector<std::string>& layers, Result* out);

// The workloads.  Each runs its set-up, then closed-loop operations for
// opts.seconds; with opts.trace it runs one untraced and one traced
// operation instead and reports per-layer metrics.
Result run_explore_cold(const Options& opts);
Result run_explore_warm(const Options& opts);
Result run_fleet_campaign(const Options& opts);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H
