// perfbench: the end-to-end benchmark driver (see ../README.md).
//
//   perfbench --workload explore_cold|explore_warm|fleet_campaign
//             --seed N --seconds S --trace 0|1 --clear-bin PATH
//             --run-dir DIR --expected FILE [--trace-out FILE] [--rev TEXT]
//   perfbench --selftest --expected FILE
//
// Prints metadata and the committed-value lines as `#` comments, then, as
// the last line of stdout, one JSON object: correct, attempted, failed
// and the metrics (end-to-end ones untraced, per-layer ones traced).
// Exits 1 when any output check failed, 2 on bad usage or a non-Release
// build, 3 on timeout.
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <csignal>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "workers.h"

extern char** environ;

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// BENCHMARK.json's end_to_end list, printed by untraced runs.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"items_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

// BENCHMARK.json's per_layer list, printed by traced runs (0 where a
// layer is not exercised by the workload; README.md says which).
const MetricDef kPerLayer[] = {
    {"arch.cycles_per_s.InO", "1/s"},
    {"arch.cycles_per_s.OoO", "1/s"},
    {"arch.snapshot_ns", "ns"},
    {"arch.restore_ns", "ns"},
    {"inject.golden_s", "s"},
    {"inject.replay_s", "s"},
    {"inject.restore_s", "s"},
    {"inject.capture_s", "s"},
    {"inject.sample_self_s", "s"},
    {"inject.samples", "count"},
    {"inject.goldens", "count"},
    {"inject.samples.InO", "count"},
    {"inject.samples.OoO", "count"},
    {"inject.samples_per_s.InO", "1/s"},
    {"inject.samples_per_s.OoO", "1/s"},
    {"inject.cache.hit", "count"},
    {"inject.cache.miss", "count"},
    {"inject.cache.put", "count"},
    {"inject.cache.hit_ratio", "ratio"},
    {"inject.cache.bytes", "bytes"},
    {"inject.wire.encode_s", "s"},
    {"inject.wire.decode_s", "s"},
    {"inject.wire.merge_s", "s"},
    {"inject.wire.bytes", "bytes"},
    {"engine.queue_wait_s", "s"},
    {"engine.queue_depth_max", "count"},
    {"engine.jobs.bulk", "count"},
    {"engine.jobs.interactive", "count"},
    {"core.prefetch_s", "s"},
    {"core.lower_bound_s", "s"},
    {"core.evaluate_s", "s"},
    {"core.evaluated", "count"},
    {"core.pruned", "count"},
    {"core.skipped", "count"},
    {"explore.open_s", "s"},
    {"explore.ledger.append_s", "s"},
    {"explore.ledger.load_s", "s"},
    {"explore.ledger.bytes", "bytes"},
    {"explore.record_gap_p50_ms", "ms"},
    {"explore.record_gap_max_ms", "ms"},
    {"explore.combos_per_s", "1/s"},
    {"plan.resolve_s", "s"},
    {"fleet.run_s", "s"},
    {"fleet.shard_p50_s", "s"},
    {"fleet.shard_p90_s", "s"},
    {"fleet.ack_rtt_p50_ms", "ms"},
    {"fleet.dispatch_gap_p50_ms", "ms"},
    {"fleet.busy_frac", "ratio"},
    {"fleet.tail_s", "s"},
    {"fleet.redispatched", "count"},
    {"fleet.workers_lost", "count"},
    {"fleet.worker_peak_rss_mb", "MB"},
    {"trace.wall_s", "s"},
    {"trace.untraced_wall_s", "s"},
    {"trace.unattributed_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

// A run that outlives this is stopped (workers reaped) and exits 3.
constexpr int kDeadlineSeconds = 170;

void on_signal(int sig) {
  kill_all_from_signal();
  ::_exit(128 + sig);
}

unsigned host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// Removes every inherited CLEAR_* knob, then pins the ones that shape
// timing, before anything in the library reads them (the worker pool
// sizes itself, and the metrics gate latches, on first use).
void pin_environment(unsigned threads, const char* cache_dir) {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CLEAR_", 6) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
    }
  }
  for (const std::string& n : names) ::unsetenv(n.c_str());
  ::setenv("CLEAR_THREADS", std::to_string(threads).c_str(), 1);
  ::setenv("CLEAR_CACHE_DIR", cache_dir, 1);
  ::setenv("CLEAR_METRICS", "1", 1);
  ::setenv("CLEAR_ENGINE_ASYNC", "1", 1);
  ::setenv("CLEAR_CHECKPOINT", "1", 1);
  ::setenv("CLEAR_EXPLORE_PIPELINE", "1", 1);
  ::setenv("CLEAR_EXPLORE_BATCH", "64", 1);
}

// Why this binary must not report numbers ("" when it may).
std::string build_refusal() {
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG undefined)";
#endif
#ifndef __OPTIMIZE__
  return "built without optimization";
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    return std::string("build type is '") + PERFBENCH_BUILD_TYPE +
           "', not Release";
  }
  return "";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string format_value(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Stops the process (reaping every worker) once the deadline passes;
// disarmed by destruction.
class Watchdog {
 public:
  explicit Watchdog(int seconds)
      : thread_([this, seconds] {
          std::unique_lock<std::mutex> lock(m_);
          if (!cv_.wait_for(lock, std::chrono::seconds(seconds),
                            [this] { return done_; })) {
            std::fprintf(stderr, "perfbench: deadline of %d s passed\n",
                         seconds);
            kill_all_from_signal();
            ::_exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(m_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --clear-bin PATH --run-dir DIR "
               "--expected FILE [--trace-out FILE] [--rev TEXT]\n"
               "       perfbench --selftest --expected FILE\n",
               why);
  return 2;
}

int run_main(int argc, char** argv) {
  Options opts;
  std::string run_root, expected_path, rev = "unknown";
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") opts.workload = v;
    else if (a == "--seed") opts.seed = std::strtoull(v.c_str(), &end, 10);
    else if (a == "--seconds") opts.seconds = std::strtod(v.c_str(), &end);
    else if (a == "--trace") opts.trace = v == "1";
    else if (a == "--clear-bin") opts.clear_bin = v;
    else if (a == "--run-dir") run_root = v;
    else if (a == "--expected") expected_path = v;
    else if (a == "--trace-out") opts.trace_out = v;
    else if (a == "--rev") rev = v;
    else return usage(("unknown flag " + a).c_str());
    if (end != nullptr && *end != '\0') {
      return usage(("bad value for " + a).c_str());
    }
  }
  Expected expected;
  if (!load_expected(expected_path, &expected)) {
    return usage("cannot read the committed values (--expected)");
  }
  const std::string refusal = build_refusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to report numbers: %s\n",
                 refusal.c_str());
    return 2;
  }
  opts.nproc = host_cpus();
  if (selftest) {
    pin_environment(opts.nproc, "");
    return run_selftest(expected);
  }
  Result (*workload)(const Options&) = nullptr;
  if (opts.workload == "explore_cold") workload = &run_explore_cold;
  else if (opts.workload == "explore_warm") workload = &run_explore_warm;
  else if (opts.workload == "fleet_campaign") workload = &run_fleet_campaign;
  else return usage("unknown --workload");
  if (!(opts.seconds > 0) || run_root.empty() ||
      (opts.workload == "fleet_campaign" && opts.clear_bin.empty())) {
    return usage("--seconds, --run-dir and (fleet) --clear-bin are required");
  }

  // Private working directory: this run's cache pack, ledgers and worker
  // sockets live here and are removed at the end.
  namespace fs = std::filesystem;
  const fs::path home = fs::current_path();
  const fs::path run_dir = fs::absolute(run_root) /
                           (opts.workload + "-" + std::to_string(::getpid()));
  if (!opts.clear_bin.empty()) opts.clear_bin = fs::absolute(opts.clear_bin);
  if (!opts.trace_out.empty()) opts.trace_out = fs::absolute(opts.trace_out);
  fs::remove_all(run_dir);
  fs::create_directories(run_dir);
  fs::current_path(run_dir);
  pin_environment(opts.nproc, "cache");

  std::printf("# perfbench {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"nproc\": %u, "
              "\"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"source_rev\": \"%s\"}\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0, opts.nproc, json_escape(__VERSION__).c_str(),
              PERFBENCH_BUILD_TYPE, json_escape(rev).c_str());
  std::fflush(stdout);

  Result res;
  {
    const Watchdog watchdog(kDeadlineSeconds);
    try {
      res = workload(opts);
    } catch (const std::exception& e) {
      res.attempted = std::max<std::uint64_t>(res.attempted, 1);
      res.fail(std::string("workload threw: ") + e.what());
    }
    kill_all_from_signal();  // nothing should be left; never leak a worker
  }
  fs::current_path(home);
  fs::remove_all(run_dir);

  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  res.metrics["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
  check_expected(expected, opts.seed, &res);
  res.attempted = std::max<std::uint64_t>(res.attempted, 1);

  std::printf("# operations %zu, wall s:", res.op_walls.size());
  for (const double w : res.op_walls) std::printf(" %.4f", w);
  std::printf("\n");
  std::string lines = expected_lines(res, opts.seed);
  for (std::size_t p = 0; p < lines.size();) {
    const std::size_t nl = lines.find('\n', p);
    std::printf("# expect %s\n", lines.substr(p, nl - p).c_str());
    p = nl + 1;
  }
  std::string metrics;
  const MetricDef* first = opts.trace ? std::begin(kPerLayer)
                                      : std::begin(kEndToEnd);
  const MetricDef* last = opts.trace ? std::end(kPerLayer)
                                     : std::end(kEndToEnd);
  for (const MetricDef* d = first; d != last; ++d) {
    double v = res.metrics.count(d->name) ? res.metrics[d->name] : 0.0;
    if (!std::isfinite(v)) {
      res.fail(std::string("metric ") + d->name + " is not finite");
      v = 0.0;
    }
    if (!opts.trace && !(v > 0.0)) {
      res.fail(std::string("end-to-end metric ") + d->name + " is not > 0");
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + d->name + "\": {\"value\": " +
               format_value(v) + ", \"unit\": \"" + d->unit + "\"}";
  }
  for (const std::string& e : res.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }
  const bool correct = res.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  res.failed, correct ? 0 : 1)),
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  for (const int sig : {SIGINT, SIGTERM, SIGHUP}) {
    std::signal(sig, perfbench::on_signal);
  }
  return perfbench::run_main(argc, argv);
}
