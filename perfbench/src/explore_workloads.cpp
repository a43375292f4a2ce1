// explore_cold and explore_warm: the design-space exploration end to end.
//
// explore_cold runs explore::run_exploration on both core models from an
// empty campaign cache and a fresh ledger, so faulty-run replay dominates
// (arch and inject changes show here).  explore_warm sweeps the same
// space without pruning over a grid of improvement targets x metrics
// against a cache pack filled during set-up: no sample is simulated, so
// cache reads, profile aggregation, combo evaluation and ledger appends
// do the work, and an arch change should move nothing.
//
// The traced pass replays one operation without pipelining through the
// same public calls run_exploration makes (Session::prefetch,
// combo_cost_lower_bound, evaluate_combo, LedgerWriter::append) with a
// span around each, and checks that the replayed ledger is byte-identical
// to run_exploration's.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "bench.h"
#include "checks.h"
#include "core/combos.h"
#include "core/selection.h"
#include "core/session.h"
#include "explore/explore.h"
#include "explore/ledger.h"
#include "inject/cachepack.h"
#include "workloads/workloads.h"

namespace perfbench {

namespace {

namespace core = clear::core;
namespace explore = clear::explore;
namespace fs = std::filesystem;

// Reduced benchmark suites keep one cold operation near two seconds on a
// four-core host.  Both include ABFT-correction benchmarks; only the InO
// suite has an ABFT-detection one, so the OoO exploration also records
// skipped combos.
struct Suite {
  std::string core;
  std::vector<std::string> benches;
  std::size_t per_ff;  // injections per flip-flop per benchmark
};
const std::vector<Suite>& suites() {
  static const std::vector<Suite> s = {
      {"InO", {"mcf", "2d_convolution", "fft1d"}, 2},
      {"OoO", {"mcf", "inner_product"}, 1},
  };
  return s;
}

constexpr double kColdTarget = 50.0;
// The warm grid: the paper's improvement-target axis x its three metrics.
const std::vector<double> kWarmTargets = {5.0, 50.0, 500.0};
const std::vector<core::Metric> kWarmMetrics = {
    core::Metric::kSdc, core::Metric::kDue, core::Metric::kJoint};
// Set-up repetitions (median reported).
constexpr int kSetupReps = 3;

// The workload's private campaign cache (CLEAR_CACHE_DIR, set by main).
const char* const kCacheDir = "cache";

const char* metric_name(core::Metric m) {
  switch (m) {
    case core::Metric::kSdc: return "sdc";
    case core::Metric::kDue: return "due";
    case core::Metric::kJoint: return "joint";
  }
  return "?";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

// Empties the cache pack in place.  CachePack::instance never destroys
// its per-directory object, so a cold repetition must reuse the directory
// (the instance reopens once its files are gone) instead of minting a new
// one per repetition, which would grow the driver's memory.
void clear_pack() {
  fs::remove(fs::path(kCacheDir) / clear::inject::CachePack::kPackName);
  fs::remove(fs::path(kCacheDir) / clear::inject::CachePack::kIndexName);
}

explore::ExploreSpec make_spec(const Suite& suite, std::uint64_t seed,
                               double target, core::Metric metric,
                               bool prune) {
  explore::ExploreSpec spec;
  spec.core = suite.core;
  spec.target = target;
  spec.metric = metric;
  spec.seed = seed;
  spec.per_ff_samples = suite.per_ff;
  spec.benchmarks = suite.benches;
  spec.prune = prune;
  spec.batch = 64;
  spec.pipeline = 1;
  return spec;
}

std::string ledger_name(const explore::ExploreSpec& spec) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s-%g-%s-%s.cxl", spec.core.c_str(),
                spec.target, metric_name(spec.metric),
                spec.prune ? "prune" : "full");
  return buf;
}

// One run_exploration call into a fresh ledger; returns the ledger bytes
// and appends the gaps between consecutive records to *gaps_ms.
std::string explore_once(const explore::ExploreSpec& spec, double* wall_s,
                         std::vector<double>* gaps_ms) {
  const std::string path = ledger_name(spec);
  fs::remove(path);
  Clock::time_point last{};
  const auto progress = [&](const explore::Progress&) {
    const auto now = Clock::now();
    if (gaps_ms != nullptr && last != Clock::time_point{}) {
      gaps_ms->push_back(seconds_between(last, now) * 1e3);
    }
    last = now;
  };
  const auto t0 = Clock::now();
  (void)explore::run_exploration(spec, path, progress);
  *wall_s = seconds_between(t0, Clock::now());
  return read_file(path);
}

// ---- the traced replay -----------------------------------------------------

// Mirrors explore.cpp: ABFT combos need a benchmark of their ABFT kind.
bool suite_supports(const std::vector<std::string>& suite,
                    const core::Combo& combo) {
  if (combo.abft == clear::workloads::AbftKind::kNone) return true;
  for (const auto& info : clear::workloads::benchmark_list()) {
    if (info.abft != combo.abft) continue;
    for (const auto& name : suite) {
      if (name == info.name) return true;
    }
  }
  return false;
}

explore::LedgerRecord record_of(explore::RecordKind kind, std::uint32_t index,
                                const core::ComboPoint& p) {
  explore::LedgerRecord rec;
  rec.kind = kind;
  rec.combo_index = index;
  rec.combo = p.combo;
  rec.target = p.target;
  rec.target_met = p.target_met;
  rec.energy = p.energy;
  rec.area = p.area;
  rec.power = p.power;
  rec.exec = p.exec;
  rec.sdc_protected_pct = p.sdc_protected_pct;
  rec.imp_sdc = p.imp.sdc;
  rec.imp_due = p.imp.due;
  return rec;
}

// run_exploration's algorithm for an unsharded, fixed-budget, fresh
// ledger, unpipelined, with one span per layer call.  Returns the ledger
// bytes as load_ledger_file read them back.
std::string replay_exploration(const explore::ExploreSpec& spec,
                               Tracer* tracer, Result* out) {
  // Same bar as explore.cpp's kAnchorProtectionPct.
  constexpr double kAnchorProtectionPct = 99.5;
  const std::string path = ledger_name(spec);
  explore::LedgerWriter writer;
  std::vector<core::Combo> combos;
  std::unique_ptr<core::Session> session;
  std::unique_ptr<core::Selector> selector;
  {
    const Scope s(tracer, "explore.open");
    const explore::Ledger identity = explore::resolve_identity(spec);
    fs::remove(path);
    writer.open(path, identity);
    combos = core::enumerate_combos(spec.core);
    session = std::make_unique<core::Session>(spec.core, spec.per_ff_samples,
                                              spec.seed);
    session->set_benchmarks(spec.benchmarks);
    selector = std::make_unique<core::Selector>(*session);
  }
  const auto append = [&](const explore::LedgerRecord& rec) {
    const Scope s(tracer, "explore.ledger.append");
    writer.append(rec);
  };
  const auto variants_of = [&](const std::vector<std::uint32_t>& idx) {
    std::vector<core::Variant> vars{core::Variant::base()};
    for (const std::uint32_t i : idx) {
      if (!suite_supports(session->benchmarks(), combos[i])) continue;
      const auto layers = core::combo_layer_variants(combos[i]);
      vars.insert(vars.end(), layers.begin(), layers.end());
    }
    return vars;
  };

  double prune_bar = std::numeric_limits<double>::infinity();
  for (const std::uint32_t ai : explore::anchor_indices(spec.core)) {
    {
      const Scope s(tracer, "core.prefetch");
      session->prefetch(variants_of({ai}));
    }
    core::ComboPoint p;
    {
      const Scope s(tracer, "core.evaluate");
      p = core::evaluate_combo(*session, *selector, combos[ai], -1.0,
                               spec.metric);
    }
    if (p.sdc_protected_pct >= kAnchorProtectionPct) {
      prune_bar = std::min(prune_bar, p.energy);
    }
    append(record_of(explore::RecordKind::kAnchor, ai, p));
  }

  const std::vector<std::uint32_t> pending = writer.state().missing_indices();
  for (std::size_t start = 0; start < pending.size(); start += spec.batch) {
    const std::size_t end = std::min(pending.size(), start + spec.batch);
    {
      const Scope s(tracer, "core.prefetch");
      session->prefetch(variants_of(std::vector<std::uint32_t>(
          pending.begin() + static_cast<std::ptrdiff_t>(start),
          pending.begin() + static_cast<std::ptrdiff_t>(end))));
    }
    for (std::size_t i = start; i < end; ++i) {
      const std::uint32_t index = pending[i];
      const core::Combo& c = combos[index];
      explore::LedgerRecord rec;
      rec.combo_index = index;
      rec.combo = c.name();
      rec.target = spec.target;
      rec.target_met = false;
      if (!suite_supports(session->benchmarks(), c)) {
        rec.kind = explore::RecordKind::kSkipped;
      } else {
        double lb = 0.0;
        if (spec.prune) {
          const Scope s(tracer, "core.lower_bound");
          lb = core::combo_cost_lower_bound(*session, selector->model(), c);
        }
        if (spec.prune && lb > prune_bar) {
          rec.kind = explore::RecordKind::kPruned;
          rec.energy = lb;
        } else {
          const Scope s(tracer, "core.evaluate");
          rec = record_of(explore::RecordKind::kPoint, index,
                          core::evaluate_combo(*session, *selector, c,
                                               spec.target, spec.metric));
        }
      }
      append(rec);
    }
  }
  explore::Ledger loaded;
  {
    const Scope s(tracer, "explore.ledger.load");
    if (explore::load_ledger_file(path, &loaded) !=
        explore::LedgerStatus::kOk) {
      out->fail("replay: " + path + " does not load");
    }
  }
  return read_file(path);
}

// Record-kind tallies of one ledger (core.evaluated / pruned / skipped).
void tally_records(const std::string& bytes, std::map<std::string, double>* m) {
  explore::Ledger ledger;
  if (explore::decode_ledger(bytes, &ledger) != explore::LedgerStatus::kOk) {
    return;
  }
  for (const auto& r : ledger.records) {
    if (r.kind == explore::RecordKind::kPoint) (*m)["core.evaluated"] += 1;
    if (r.kind == explore::RecordKind::kPruned) (*m)["core.pruned"] += 1;
    if (r.kind == explore::RecordKind::kSkipped) (*m)["core.skipped"] += 1;
  }
}

std::size_t record_count(const std::string& bytes) {
  explore::Ledger ledger;
  return explore::decode_ledger(bytes, &ledger) == explore::LedgerStatus::kOk
             ? ledger.records.size()
             : 0;
}

const std::vector<std::string> kExploreLayers = {
    "explore.open",       "core.prefetch",         "core.lower_bound",
    "core.evaluate",      "explore.ledger.append", "explore.ledger.load"};

// Builds the suites' base programs and the probe list pointing into them;
// *progs must not change afterwards.
void build_probe(std::vector<clear::isa::Program>* progs,
                 std::vector<ProbeProgram>* probe) {
  progs->clear();
  probe->clear();
  for (const Suite& s : suites()) {
    for (const std::string& b : s.benches) {
      progs->push_back(core::build_variant_program(b, core::Variant::base(), 0));
    }
  }
  std::size_t k = 0;
  for (const Suite& s : suites()) {
    for (std::size_t i = 0; i < s.benches.size(); ++i) {
      probe->push_back({s.core, &(*progs)[k++], nullptr});
    }
  }
}

// Compares one operation's ledger against its reference; a mismatch
// fails every record that differs.
void check_ledger(const std::string& what, const std::string& got,
                  const std::string& want, Result* out) {
  const std::size_t bad = ledger_mismatches(got, want);
  if (bad != 0) {
    out->fail(what + ": ledger differs from its reference in " +
                  std::to_string(bad) + " record(s)",
              bad);
  }
}

// One cold operation: both cores, each from an empty pack, with the
// registry counts of each core's exploration.
struct ColdOp {
  double wall = 0.0;
  std::map<std::string, double> core_wall;
  std::map<std::string, std::string> ledgers;
  std::map<std::string, std::uint64_t> counts;
  std::vector<double> gaps_ms;
};

ColdOp cold_op(std::uint64_t seed) {
  ColdOp op;
  for (const Suite& s : suites()) {
    clear_pack();
    const auto spec = make_spec(s, seed, kColdTarget, core::Metric::kSdc, true);
    const clear::obs::Snapshot before = clear::obs::snapshot();
    double wall = 0.0;
    op.ledgers[s.core] = explore_once(spec, &wall, &op.gaps_ms);
    const clear::obs::Snapshot after = clear::obs::snapshot();
    op.core_wall[s.core] = wall;
    op.wall += wall;
    for (const char* c : {"campaign.samples", "campaign.goldens", "cache.hit",
                          "cache.miss", "cache.put"}) {
      op.counts[s.core + "." + c] = counter_delta(before, after, c);
    }
  }
  return op;
}

}  // namespace

Result run_explore_cold(const Options& opts) {
  Result res;
  Tracer tracer;
  Tracer* const tr = opts.trace ? &tracer : nullptr;
  // Set-up: each core's exploration run without pipelining, from an
  // emptied pack, into the reference ledger every timed operation must
  // reproduce byte for byte (pipelining is pure scheduling); then the
  // arch probe's programs.
  std::vector<double> setups;
  std::map<std::string, std::string> reference;
  std::vector<ProbeProgram> probe;
  std::vector<clear::isa::Program> progs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Scope s(tr, "setup");
    const auto t0 = Clock::now();
    for (const Suite& suite : suites()) {
      clear_pack();
      auto spec =
          make_spec(suite, opts.seed, kColdTarget, core::Metric::kSdc, true);
      spec.pipeline = 0;
      double wall = 0.0;
      const std::string bytes = explore_once(spec, &wall, nullptr);
      if (rep == 0) {
        reference[suite.core] = bytes;
      } else {
        check_ledger("explore_cold set-up " + std::to_string(rep) + " " +
                         suite.core,
                     bytes, reference[suite.core], &res);
      }
    }
    build_probe(&progs, &probe);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  res.metrics["setup_s"] = median(setups);

  std::vector<double> walls, rates;
  std::map<std::string, std::uint64_t> first_counts;
  const auto t_start = Clock::now();
  for (int i = 0;; ++i) {
    if (opts.trace ? i == 1
                   : (i > 0 && seconds_between(t_start, Clock::now()) >=
                                   opts.seconds)) {
      break;
    }
    ColdOp op;
    const clear::obs::Snapshot before = clear::obs::snapshot();
    try {
      op = cold_op(opts.seed);
    } catch (const std::exception& e) {
      res.attempted += 1;
      res.fail(std::string("explore_cold: ") + e.what());
      break;
    }
    std::uint64_t samples = 0;
    for (const Suite& s : suites()) {
      res.attempted += record_count(op.ledgers[s.core]);
      samples += op.counts[s.core + ".campaign.samples"];
      if (i == 0) {
        res.digests["explore_cold." + s.core + ".ledger"] =
            digest(op.ledgers[s.core]);
      }
      check_ledger("explore_cold op " + std::to_string(i) + " " + s.core,
                   op.ledgers[s.core], reference[s.core], &res);
    }
    if (i == 0) {
      first_counts = op.counts;
      for (const auto& [k, v] : op.counts) res.counts["explore_cold." + k] = v;
    } else if (op.counts != first_counts) {
      res.fail("explore_cold op " + std::to_string(i) +
               ": registry counts differ from the first operation");
    }
    walls.push_back(op.wall);
    rates.push_back(static_cast<double>(samples) / op.wall);
    if (opts.trace) {
      registry_metrics(before, clear::obs::snapshot(), &res);
      res.metrics["inject.cache.bytes"] = static_cast<double>(
          clear::inject::CachePack::instance(kCacheDir).stats().pack_bytes);
      res.metrics["trace.untraced_wall_s"] = op.wall;
      res.metrics["explore.combos_per_s"] =
          static_cast<double>(res.attempted) / op.wall;
      for (const Suite& s : suites()) {
        const double n =
            static_cast<double>(op.counts[s.core + ".campaign.samples"]);
        res.metrics["inject.samples." + s.core] = n;
        res.metrics["inject.samples_per_s." + s.core] = n / op.core_wall[s.core];
        res.metrics["explore.ledger.bytes"] +=
            static_cast<double>(op.ledgers[s.core].size());
        tally_records(op.ledgers[s.core], &res.metrics);
      }
      res.metrics["explore.record_gap_p50_ms"] = median(op.gaps_ms);
      res.metrics["explore.record_gap_max_ms"] = quantile(op.gaps_ms, 1.0);
    }
  }
  res.op_walls = walls;
  res.metrics["wall_s"] = median(walls);
  res.metrics["items_per_s"] = median(rates);
  if (!opts.trace || res.failed != 0) return res;

  // The traced replay (also from an empty pack), then the arch probe.
  tracer.set_run(1);
  const std::size_t root = tracer.open("op");
  std::map<std::string, std::string> replayed;
  for (const Suite& s : suites()) {
    clear_pack();
    replayed[s.core] = replay_exploration(
        make_spec(s, opts.seed, kColdTarget, core::Metric::kSdc, true), tr,
        &res);
  }
  tracer.close(root);
  for (const Suite& s : suites()) {
    check_ledger("explore_cold traced replay " + s.core, replayed[s.core],
                 reference[s.core], &res);
  }
  trace_metrics(tracer, root, kExploreLayers, &res);
  res.metrics["trace.overhead_frac"] =
      res.metrics["trace.wall_s"] / res.metrics["trace.untraced_wall_s"] - 1.0;
  tracer.set_run(2);
  run_arch_probe(probe, tr, &res);
  if (!opts.trace_out.empty()) tracer.write_json(opts.trace_out);
  return res;
}

Result run_explore_warm(const Options& opts) {
  Result res;
  Tracer tracer;
  Tracer* const tr = opts.trace ? &tracer : nullptr;

  // Set-up: fill the pack with a cold no-prune exploration per core at
  // (50, sdc).  Each fill's ledger is a cold reference the warm ledger of
  // the same (core, target, metric) must match byte for byte.
  std::vector<double> setups;
  std::map<std::string, std::string> cold_ref;
  std::vector<ProbeProgram> probe;
  std::vector<clear::isa::Program> progs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Scope s(tr, "setup");
    const auto t0 = Clock::now();
    clear_pack();
    for (const Suite& suite : suites()) {
      double wall = 0.0;
      const std::string bytes = explore_once(
          make_spec(suite, opts.seed, kColdTarget, core::Metric::kSdc, false),
          &wall, nullptr);
      if (rep == 0) {
        cold_ref[suite.core] = bytes;
      } else {
        check_ledger("explore_warm set-up " + std::to_string(rep) + " " +
                         suite.core,
                     bytes, cold_ref[suite.core], &res);
      }
    }
    build_probe(&progs, &probe);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  res.metrics["setup_s"] = median(setups);

  // One warm operation: the whole (core x target x metric) grid.
  std::map<std::string, std::string> first;
  const auto warm_op = [&](int index, std::vector<double>* gaps) {
    double wall = 0.0;
    std::size_t records = 0;
    for (const Suite& s : suites()) {
      for (const double target : kWarmTargets) {
        for (const core::Metric metric : kWarmMetrics) {
          const auto spec = make_spec(s, opts.seed, target, metric, false);
          double w = 0.0;
          const std::string bytes = explore_once(spec, &w, gaps);
          wall += w;
          const std::size_t n = record_count(bytes);
          records += n;
          res.attempted += n;
          const std::string key = ledger_name(spec);
          if (target == kColdTarget && metric == core::Metric::kSdc) {
            check_ledger("explore_warm " + key + " vs cold", bytes,
                         cold_ref[s.core], &res);
          }
          if (index == 0) {
            first[key] = bytes;
            res.digests["explore_warm." + key] = digest(bytes);
          } else {
            check_ledger("explore_warm op " + std::to_string(index) + " " + key,
                         bytes, first[key], &res);
          }
        }
      }
    }
    return std::make_pair(wall, records);
  };

  std::vector<double> walls, rates;
  const auto t_start = Clock::now();
  for (int i = 0;; ++i) {
    if (opts.trace ? i == 1
                   : (i > 0 && seconds_between(t_start, Clock::now()) >=
                                   opts.seconds)) {
      break;
    }
    const clear::obs::Snapshot before = clear::obs::snapshot();
    std::vector<double> gaps;
    std::pair<double, std::size_t> r;
    try {
      r = warm_op(i, &gaps);
    } catch (const std::exception& e) {
      res.attempted += 1;
      res.fail(std::string("explore_warm: ") + e.what());
      break;
    }
    const clear::obs::Snapshot after = clear::obs::snapshot();
    std::map<std::string, std::uint64_t> counts;
    for (const char* c : {"campaign.samples", "campaign.goldens", "cache.hit",
                          "cache.miss", "cache.put"}) {
      counts[std::string("explore_warm.") + c] = counter_delta(before, after, c);
    }
    if (i == 0) {
      res.counts.insert(counts.begin(), counts.end());
    } else {
      for (const auto& [k, v] : counts) {
        if (res.counts[k] != v) {
          res.fail("explore_warm op " + std::to_string(i) + ": " + k + " = " +
                   std::to_string(v) + ", first operation had " +
                   std::to_string(res.counts[k]));
        }
      }
    }
    walls.push_back(r.first);
    rates.push_back(static_cast<double>(r.second) / r.first);
    if (opts.trace) {
      registry_metrics(before, after, &res);
      res.metrics["inject.cache.bytes"] = static_cast<double>(
          clear::inject::CachePack::instance(kCacheDir).stats().pack_bytes);
      res.metrics["trace.untraced_wall_s"] = r.first;
      res.metrics["explore.combos_per_s"] = rates.back();
      res.metrics["explore.record_gap_p50_ms"] = median(gaps);
      res.metrics["explore.record_gap_max_ms"] = quantile(gaps, 1.0);
      for (const auto& [key, bytes] : first) {
        res.metrics["explore.ledger.bytes"] += static_cast<double>(bytes.size());
        tally_records(bytes, &res.metrics);
      }
    }
  }
  res.op_walls = walls;
  res.metrics["wall_s"] = median(walls);
  res.metrics["items_per_s"] = median(rates);
  if (!opts.trace || res.failed != 0) return res;

  tracer.set_run(1);
  const std::size_t root = tracer.open("op");
  std::map<std::string, std::string> replayed;
  for (const Suite& s : suites()) {
    for (const double target : kWarmTargets) {
      for (const core::Metric metric : kWarmMetrics) {
        const auto spec = make_spec(s, opts.seed, target, metric, false);
        replayed[ledger_name(spec)] = replay_exploration(spec, tr, &res);
      }
    }
  }
  tracer.close(root);
  for (const auto& [key, bytes] : replayed) {
    check_ledger("explore_warm traced replay " + key, bytes, first[key], &res);
  }
  trace_metrics(tracer, root, kExploreLayers, &res);
  res.metrics["trace.overhead_frac"] =
      res.metrics["trace.wall_s"] / res.metrics["trace.untraced_wall_s"] - 1.0;
  tracer.set_run(2);
  run_arch_probe(probe, tr, &res);
  if (!opts.trace_out.empty()) tracer.write_json(opts.trace_out);
  return res;
}

}  // namespace perfbench
