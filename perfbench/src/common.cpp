#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "util/hash.h"

namespace perfbench {

namespace obs = clear::obs;

namespace {

double hist_sum_s(const obs::Snapshot& before, const obs::Snapshot& after,
                  const std::string& name) {
  const obs::HistogramRow* a = after.find_histogram(name);
  const obs::HistogramRow* b = before.find_histogram(name);
  const std::uint64_t sa = a != nullptr ? a->sum : 0;
  const std::uint64_t sb = b != nullptr ? b->sum : 0;
  return static_cast<double>(sa - sb) * 1e-9;
}

std::uint64_t gauge_max(const obs::Snapshot& s, const std::string& name) {
  for (const obs::GaugeRow& g : s.gauges) {
    if (g.name == name) return g.max;
  }
  return 0;
}

}  // namespace

std::uint64_t counter_delta(const obs::Snapshot& before,
                            const obs::Snapshot& after,
                            const std::string& name) {
  return after.counter_value(name) - before.counter_value(name);
}

void registry_metrics(const obs::Snapshot& before, const obs::Snapshot& after,
                      Result* out) {
  auto& m = out->metrics;
  m["inject.golden_s"] = hist_sum_s(before, after, "campaign.golden.record");
  m["inject.replay_s"] = hist_sum_s(before, after, "campaign.fork.replay");
  m["inject.restore_s"] =
      hist_sum_s(before, after, "campaign.snapshot.restore");
  m["inject.capture_s"] =
      hist_sum_s(before, after, "campaign.snapshot.capture");
  // The restore span nests inside the replay span (inject/campaign.cpp),
  // so the classify span's own time is classify minus replay.
  m["inject.sample_self_s"] =
      hist_sum_s(before, after, "campaign.sample.classify") -
      m["inject.replay_s"];
  m["inject.samples"] = static_cast<double>(
      counter_delta(before, after, "campaign.samples"));
  m["inject.goldens"] = static_cast<double>(
      counter_delta(before, after, "campaign.goldens"));
  const std::uint64_t hit = counter_delta(before, after, "cache.hit");
  const std::uint64_t miss = counter_delta(before, after, "cache.miss");
  m["inject.cache.hit"] = static_cast<double>(hit);
  m["inject.cache.miss"] = static_cast<double>(miss);
  m["inject.cache.put"] =
      static_cast<double>(counter_delta(before, after, "cache.put"));
  m["inject.cache.hit_ratio"] =
      hit + miss == 0 ? 0.0
                      : static_cast<double>(hit) / static_cast<double>(hit + miss);
  m["engine.queue_wait_s"] = hist_sum_s(before, after, "engine.queue.wait");
  m["engine.queue_depth_max"] =
      static_cast<double>(gauge_max(after, "engine.queue.depth"));
  m["engine.jobs.bulk"] = static_cast<double>(
      counter_delta(before, after, "engine.lane.bulk"));
  m["engine.jobs.interactive"] = static_cast<double>(
      counter_delta(before, after, "engine.lane.interactive"));
}

void run_arch_probe(const std::vector<ProbeProgram>& programs, Tracer* tracer,
                    Result* out) {
  // Each core model runs its programs repeatedly until it has stepped for
  // at least this long, so the rate is a steady mean, not one short run.
  constexpr double kMinStepSeconds = 0.2;
  constexpr std::uint64_t kBudget = 20'000'000;
  std::map<std::string, std::pair<double, double>> per_core;  // cycles, s
  double snap_s = 0, restore_s = 0;
  std::uint64_t snaps = 0, restores = 0;
  const Scope probe_span(tracer, "arch.probe");
  for (const std::string core_name : {"InO", "OoO"}) {
    std::vector<const ProbeProgram*> mine;
    for (const ProbeProgram& p : programs) {
      if (p.core == core_name) mine.push_back(&p);
    }
    if (mine.empty()) continue;
    const auto core = clear::arch::make_core(core_name);
    auto& [cycles, step_s] = per_core[core_name];
    while (step_s < kMinStepSeconds) {
      for (const ProbeProgram* p : mine) {
        const std::uint64_t nominal =
            core->run(*p->program, p->cfg, nullptr, kBudget).cycles;
        const std::uint64_t interval =
            std::max<std::uint64_t>(64, nominal / 32);
        std::vector<clear::arch::CoreCheckpoint> cps;
        core->begin(*p->program, p->cfg, nullptr);
        for (;;) {
          auto t0 = Clock::now();
          const bool more = core->step_to(core->cycle() + interval, kBudget);
          step_s += seconds_between(t0, Clock::now());
          if (!more) break;
          cps.emplace_back();
          t0 = Clock::now();
          core->snapshot(&cps.back());
          snap_s += seconds_between(t0, Clock::now());
          ++snaps;
        }
        cycles += static_cast<double>(core->cycle());
        for (const auto& cp : cps) {
          const auto t0 = Clock::now();
          core->restore(cp, nullptr);
          restore_s += seconds_between(t0, Clock::now());
          ++restores;
        }
      }
    }
  }
  for (const std::string core_name : {"InO", "OoO"}) {
    const auto it = per_core.find(core_name);
    out->metrics["arch.cycles_per_s." + core_name] =
        it == per_core.end() ? 0.0 : it->second.first / it->second.second;
  }
  out->metrics["arch.snapshot_ns"] =
      snaps == 0 ? 0.0 : snap_s * 1e9 / static_cast<double>(snaps);
  out->metrics["arch.restore_ns"] =
      restores == 0 ? 0.0 : restore_s * 1e9 / static_cast<double>(restores);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string digest(const std::string& bytes) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    clear::util::fnv1a64(bytes.data(), bytes.size())));
  return buf;
}

void trace_metrics(const Tracer& tracer, std::size_t root,
                   const std::vector<std::string>& layers, Result* out) {
  const double wall = tracer.duration(root);
  const std::map<std::string, double> self = tracer.self_seconds(root);
  double parts = 0.0;
  for (const std::string& name : layers) {
    const auto it = self.find(name);
    const double v = it == self.end() ? 0.0 : it->second;
    out->metrics[name + "_s"] = v;
    parts += v;
  }
  // Every span below the root must be a listed layer, so the remainder is
  // the root's own time: driver code between layer calls.
  for (const auto& [name, v] : self) {
    if (name != tracer.name(root) &&
        std::find(layers.begin(), layers.end(), name) == layers.end()) {
      out->fail("trace: span '" + name + "' is not a listed layer");
    }
  }
  const auto own = self.find(tracer.name(root));
  const double unattributed = own == self.end() ? 0.0 : own->second;
  out->metrics["trace.wall_s"] = wall;
  out->metrics["trace.unattributed_s"] = unattributed;
  if (std::fabs(parts + unattributed - wall) > 1e-6 * std::max(1.0, wall)) {
    out->fail("trace: layer self times + unattributed (" +
              std::to_string(parts + unattributed) +
              " s) do not add up to the traced wall clock (" +
              std::to_string(wall) + " s)");
  }
}

}  // namespace perfbench
