// In-memory span recorder for the benchmark's traced pass.
//
// One span per call the benchmark makes into a layer: name, start, end,
// parent span and run id.  Spans live in memory while the workload runs
// and are written out as JSON once it ends, so recording costs one clock
// read and one vector push per call.  A span's self time is its duration
// minus the time its direct children cover; summed over a whole tree the
// self times add up to the root's duration exactly, which is what lets
// the traced wall clock split into per-layer parts plus an explicit
// unattributed remainder (the root's own self time).
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  // Opens a span under the innermost open one and returns its id.
  std::size_t open(const std::string& name);
  // Closes span `id`, which must be the innermost open span.
  void close(std::size_t id);
  // Tags the spans opened from now on (one id per traced operation).
  void set_run(std::uint32_t run) { run_ = run; }

  // Wall-clock duration of span `id`, in seconds.
  [[nodiscard]] double duration(std::size_t id) const;
  [[nodiscard]] const std::string& name(std::size_t id) const {
    return spans_[id].name;
  }
  // Self seconds per span name over the subtree rooted at `root` (the
  // root included under its own name).
  [[nodiscard]] std::map<std::string, double> self_seconds(
      std::size_t root) const;
  // Writes every span as JSON; false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::size_t parent = kNoParent;
    std::uint32_t run = 0;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::uint32_t run_ = 0;
  Clock::time_point epoch_ = Clock::now();
};

// RAII span around one layer call; a no-op when `tracer` is null, which is
// how the untraced runs share the traced code path.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::size_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
