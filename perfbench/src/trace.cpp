#include "trace.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::size_t Tracer::open(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? kNoParent : open_.back();
  s.run = run_;
  s.start = Clock::now();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::close(std::size_t id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("trace: span closed out of order");
  }
  spans_[id].end = Clock::now();
  open_.pop_back();
}

double Tracer::duration(std::size_t id) const {
  return seconds_between(spans_[id].start, spans_[id].end);
}

std::map<std::string, double> Tracer::self_seconds(std::size_t root) const {
  // Spans are stored in open order, so a subtree is a contiguous run of
  // ids starting at its root: walk forward while the parent chain still
  // reaches `root`.
  std::vector<double> child_time(spans_.size(), 0.0);
  std::vector<bool> inside(spans_.size(), false);
  inside[root] = true;
  std::size_t last = root;
  for (std::size_t i = root + 1; i < spans_.size(); ++i) {
    const std::size_t p = spans_[i].parent;
    if (p == kNoParent || p < root || !inside[p]) break;
    inside[i] = true;
    child_time[p] += duration(i);
    last = i;
  }
  std::map<std::string, double> out;
  for (std::size_t i = root; i <= last; ++i) {
    out[spans_[i].name] += duration(i) - child_time[i];
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"schema\": \"perfbench-trace-v1\", \"spans\": [\n";
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "  {\"id\": %zu, \"parent\": %lld, \"run\": %u, "
                  "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                  i,
                  s.parent == kNoParent ? -1LL
                                        : static_cast<long long>(s.parent),
                  s.run, s.name.c_str(), seconds_between(epoch_, s.start),
                  seconds_between(epoch_, s.end),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench
