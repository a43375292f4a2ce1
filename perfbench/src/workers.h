// Local `clear serve` worker processes for the fleet workload.
//
// The pool spawns each worker as a child process on a UNIX socket in the
// current directory, waits for its hello (the handshake set-up time
// covers), probes its metric registry through a heartbeat, and reaps it.
// A child that exits before stop() is a worker death, which fails the
// run.  Child pids and socket names are also kept in async-signal-safe
// storage so kill_all_from_signal() can stop and reap every worker from a
// signal handler or a timeout: no daemon or socket file outlives the
// benchmark.
#ifndef PERFBENCH_WORKERS_H
#define PERFBENCH_WORKERS_H

#include <sys/types.h>

#include <cstddef>
#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "obs/metrics.h"

namespace perfbench {

class WorkerPool {
 public:
  // `clear_bin`: the `clear` CLI; each worker runs `threads` pool threads
  // with the campaign cache disabled.
  WorkerPool(std::string clear_bin, unsigned threads);
  ~WorkerPool();  // stop()
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Spawns `n` workers and returns once each has sent its hello.  Throws
  // std::runtime_error when a worker cannot be started or stays silent.
  void start(std::size_t n);
  [[nodiscard]] std::vector<clear::fleet::Endpoint> endpoints() const;
  // Sum of every worker's registry, read from one fresh heartbeat each.
  // Throws std::runtime_error when a worker does not answer.
  [[nodiscard]] clear::obs::Snapshot probe_metrics() const;
  // True while every spawned worker is still running.
  [[nodiscard]] bool all_alive() const;
  // SIGTERM, a grace period, then SIGKILL; waits for every worker and
  // removes its socket.  Returns false when a worker had already exited
  // on its own (a worker death).  Idempotent.
  bool stop();
  // Largest worker peak RSS seen by stop(), in MiB.
  [[nodiscard]] double max_peak_rss_mb() const noexcept { return peak_mb_; }

 private:
  struct Child {
    pid_t pid = -1;
    std::string socket;
  };
  std::string clear_bin_;
  unsigned threads_;
  std::vector<Child> children_;
  double peak_mb_ = 0.0;
};

// Kills (SIGKILL) and reaps every live worker of every pool and unlinks
// their sockets.  Async-signal-safe.
void kill_all_from_signal() noexcept;

}  // namespace perfbench

#endif  // PERFBENCH_WORKERS_H
