// fleet_campaign: a fixed multi-campaign manifest, split into K shards and
// run by fleet::run_fleet across local `clear serve` workers with caching
// disabled.  The driver decodes and merges the returned .csr payloads
// itself, so this workload covers fleet scheduling, the engine protocol,
// plan resolution and the inject wire/merge code across process
// boundaries -- layers the explore workloads never touch.
#include <algorithm>
#include <memory>

#include "bench.h"
#include "checks.h"
#include "fleet/fleet.h"
#include "inject/wire.h"
#include "plan/runplan.h"
#include "workers.h"

namespace perfbench {

namespace {

namespace fleet = clear::fleet;
namespace inject = clear::inject;

// Both core models plus one in-simulator technique configuration (DFC
// with flush recovery on InO).  Sized so one operation takes about two
// seconds on two 2-thread workers.
struct Stanza {
  const char* core;
  const char* bench;
  const char* extra;
  std::uint64_t injections;
};
const Stanza kStanzas[] = {
    {"InO", "mcf", "", 80000},
    {"InO", "gzip", "--variant dfc --recovery flush", 56000},
    {"OoO", "gcc", "", 24000},
};
constexpr std::uint32_t kShards = 8;
constexpr unsigned kWorkers = 2;
constexpr int kSetupReps = 3;

std::string manifest_text(std::uint64_t seed) {
  std::string text;
  for (const Stanza& s : kStanzas) {
    if (!text.empty()) text += "---\n";
    text += std::string("--core ") + s.core + " --bench " + s.bench + " " +
            s.extra + " --injections " + std::to_string(s.injections) +
            " --seed " + std::to_string(seed) + " --no-cache\n";
  }
  return text;
}

// Samples shard k of K owns out of n: the indices i < n with i % K == k.
std::uint64_t shard_share(std::uint64_t n, std::uint32_t k) {
  return n / kShards + (k < n % kShards ? 1 : 0);
}

struct Event {
  fleet::FleetEvent::Kind kind;
  std::size_t worker;
  std::uint64_t shard;
  Clock::time_point at;
};

struct FleetOp {
  double wall = 0.0;
  double run_wall = 0.0;  // the run_fleet call alone
  std::vector<std::vector<inject::ShardFile>> arrived;  // per campaign
  std::vector<std::string> merged;                      // live merge bytes
  std::vector<inject::ShardFile> live;
  std::map<std::uint64_t, std::vector<std::string>> streamed;  // on_shard
  std::vector<Event> events;
  fleet::FleetReport report;
  std::uint64_t wire_bytes = 0;
};

FleetOp fleet_op(const std::vector<fleet::Endpoint>& endpoints,
                 const std::vector<fleet::ShardWork>& shards, Tracer* tracer,
                 Result* res) {
  constexpr std::size_t n = std::size(kStanzas);
  FleetOp op;
  op.arrived.resize(n);
  op.live.resize(n);
  const auto on_event = [&](const fleet::FleetEvent& e) {
    op.events.push_back({e.kind, e.worker, e.shard_id, Clock::now()});
  };
  const auto on_shard = [&](const fleet::ShardResult& r) {
    op.streamed[r.shard_id] = r.payloads;
    if (r.payloads.size() != n) {
      res->fail("fleet: shard " + std::to_string(r.shard_id) + " returned " +
                std::to_string(r.payloads.size()) + " payloads");
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      op.wire_bytes += r.payloads[i].size();
      inject::ShardFile shard;
      inject::WireStatus st;
      {
        const Scope s(tracer, "inject.wire.decode");
        st = inject::decode_shard(r.payloads[i], &shard);
      }
      if (st != inject::WireStatus::kOk || shard.covered.size() != 1 ||
          shard.shard_count != kShards ||
          shard.result.totals.total() !=
              shard_share(kStanzas[i].injections, shard.covered[0])) {
        res->fail("fleet: shard " + std::to_string(r.shard_id) +
                  " campaign #" + std::to_string(i) +
                  " payload is not the expected shard result");
        continue;
      }
      op.arrived[i].push_back(std::move(shard));
      const Scope s(tracer, "inject.wire.merge");
      op.live[i] = inject::merge_shard_files(op.arrived[i]);
    }
  };
  fleet::FleetOptions fopts;
  fopts.connect_retry_ms = 2000;
  fopts.hello_timeout_ms = 5000;
  fopts.dead_after_ms = 10000;
  fopts.ack_timeout_ms = 10000;
  fopts.max_attempts = 1;
  const auto t0 = Clock::now();
  {
    const Scope s(tracer, "fleet.run");
    op.report = fleet::run_fleet(endpoints, shards, fopts, on_event, on_shard);
  }
  op.run_wall = seconds_between(t0, Clock::now());
  for (std::size_t i = 0; i < n; ++i) {
    const Scope s(tracer, "inject.wire.encode");
    op.merged.push_back(inject::encode_shard(op.live[i]));
  }
  op.wall = seconds_between(t0, Clock::now());
  return op;
}

// The reference every merged fleet result must equal: each stanza run
// unsharded in this process, as `clear run` would write it.  Empty, with
// *error set, when the manifest does not resolve.
std::vector<inject::ShardFile> run_unsharded(const std::string& manifest,
                                             std::string* error) {
  std::vector<clear::plan::RunPlan> plans;
  if (!clear::plan::resolve_manifest_text(manifest, "perfbench", &plans,
                                          error)) {
    return {};
  }
  std::vector<inject::CampaignSpec> specs;
  for (const clear::plan::RunPlan& p : plans) specs.push_back(p.spec);
  const std::vector<inject::CampaignResult> results =
      inject::run_campaigns(specs);
  std::vector<inject::ShardFile> out;
  for (std::size_t i = 0; i < plans.size(); ++i) {
    out.push_back(clear::plan::plan_shard_file(plans[i], results[i]));
  }
  return out;
}

// Shard, dispatch and tail timing from the operation's FleetEvents.
void event_metrics(const FleetOp& op, Result* res) {
  using Kind = fleet::FleetEvent::Kind;
  std::map<std::uint64_t, Clock::time_point> assigned;
  std::map<std::size_t, Clock::time_point> worker_done;
  std::vector<double> shard_s, ack_ms, gap_ms;
  Clock::time_point last_assign{}, last_done{};
  for (const Event& e : op.events) {
    if (e.kind == Kind::kAssign) {
      assigned[e.shard] = e.at;
      last_assign = e.at;
      const auto it = worker_done.find(e.worker);
      if (it != worker_done.end()) {
        gap_ms.push_back(seconds_between(it->second, e.at) * 1e3);
      }
    } else if (e.kind == Kind::kAck && assigned.count(e.shard)) {
      ack_ms.push_back(seconds_between(assigned[e.shard], e.at) * 1e3);
    } else if (e.kind == Kind::kShardDone && assigned.count(e.shard)) {
      shard_s.push_back(seconds_between(assigned[e.shard], e.at));
      worker_done[e.worker] = e.at;
      last_done = e.at;
    }
  }
  double busy = 0.0;
  for (const double s : shard_s) busy += s;
  auto& m = res->metrics;
  m["fleet.shard_p50_s"] = median(shard_s);
  m["fleet.shard_p90_s"] = quantile(shard_s, 0.9);
  m["fleet.ack_rtt_p50_ms"] = median(ack_ms);
  m["fleet.dispatch_gap_p50_ms"] = median(gap_ms);
  m["fleet.busy_frac"] =
      busy / (static_cast<double>(kWorkers) * op.run_wall);
  m["fleet.tail_s"] = seconds_between(last_assign, last_done);
  m["fleet.redispatched"] = static_cast<double>(op.report.redispatched);
  m["fleet.workers_lost"] = static_cast<double>(op.report.workers_lost);
  m["inject.wire.bytes"] = static_cast<double>(op.wire_bytes);
}

}  // namespace

Result run_fleet_campaign(const Options& opts) {
  Result res;
  Tracer tracer;
  Tracer* const tr = opts.trace ? &tracer : nullptr;
  const unsigned worker_threads = std::max(1u, opts.nproc / kWorkers);
  const std::string manifest = manifest_text(opts.seed);
  constexpr std::size_t n = std::size(kStanzas);

  // Set-up: run the manifest unsharded in process (the reference), shard
  // it, resolve it the way every worker will, and spawn the workers up to
  // their handshake.  Repeated; only the last pool is kept.
  std::vector<fleet::ShardWork> shards;
  std::vector<clear::plan::RunPlan> plans;
  std::vector<inject::ShardFile> whole;
  std::unique_ptr<WorkerPool> pool;
  std::vector<double> setups, resolves;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Scope s(tr, "setup");
    if (pool != nullptr && !pool->stop()) {
      res.fail("fleet set-up: a worker exited before it was stopped");
    }
    const auto t0 = Clock::now();
    std::string error;
    std::vector<inject::ShardFile> ref = run_unsharded(manifest, &error);
    if (ref.size() != n) {
      res.attempted += 1;
      res.fail("fleet set-up: unsharded reference: " + error);
      return res;
    }
    for (std::size_t c = 0; c < n && rep > 0; ++c) {
      if (inject::encode_shard(ref[c]) != inject::encode_shard(whole[c])) {
        res.fail("fleet set-up " + std::to_string(rep) + ": unsharded "
                 "campaign #" + std::to_string(c) + " differs from set-up 0");
      }
    }
    whole = std::move(ref);
    const auto t_resolve = Clock::now();
    shards.clear();
    plans.clear();
    {
      const Scope r(tr, "plan.resolve");
      if (!fleet::build_campaign_shards(manifest, kShards, &shards, &error) ||
          !clear::plan::resolve_manifest_text(shards[0].text, "perfbench",
                                              &plans, &error)) {
        res.attempted += 1;
        res.fail("fleet set-up: " + error);
        return res;
      }
    }
    resolves.push_back(seconds_between(t_resolve, Clock::now()));
    pool = std::make_unique<WorkerPool>(opts.clear_bin, worker_threads);
    pool->start(kWorkers);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  res.metrics["setup_s"] = median(setups);
  const std::vector<fleet::Endpoint> endpoints = pool->endpoints();

  std::vector<std::string> first;
  std::vector<double> walls, rates;
  const auto t_start = Clock::now();
  for (int i = 0;; ++i) {
    if (opts.trace ? i == 1
                   : (i > 0 && seconds_between(t_start, Clock::now()) >=
                                   opts.seconds)) {
      break;
    }
    clear::obs::Snapshot before;
    if (opts.trace) before = pool->probe_metrics();
    FleetOp op;
    res.attempted += kShards;
    try {
      op = fleet_op(endpoints, shards, nullptr, &res);
    } catch (const std::exception& e) {
      res.fail(std::string("fleet_campaign: ") + e.what(), kShards);
      break;
    }
    std::uint64_t samples = 0;
    std::string why = check_fleet_health(op.report.redispatched,
                                         op.report.workers_lost,
                                         pool->all_alive());
    if (why.empty()) {
      why = check_streamed(op.streamed, op.report.results, kShards);
    }
    for (std::size_t c = 0; c < n && why.empty(); ++c) {
      std::vector<inject::ShardFile> parts = op.arrived[c];
      std::sort(parts.begin(), parts.end(),
                [](const inject::ShardFile& a, const inject::ShardFile& b) {
                  return a.covered < b.covered;
                });
      why = check_merged(parts, op.merged[c]);
      if (why.empty()) why = check_totals(op.live[c], kStanzas[c].injections);
      if (why.empty()) why = check_unsharded(op.live[c], whole[c]);
      if (why.empty() && i > 0 && op.merged[c] != first[c]) {
        why = "merged .csr differs from the first operation's";
      }
      samples += op.live[c].result.totals.total();
      if (i == 0) {
        res.digests["fleet_campaign.campaign" + std::to_string(c) + ".csr"] =
            digest(op.merged[c]);
        res.counts["fleet_campaign.campaign" + std::to_string(c) +
                   ".samples"] = op.live[c].result.totals.total();
      }
    }
    if (!why.empty()) {
      res.fail("fleet_campaign op " + std::to_string(i) + ": " + why, kShards);
      break;
    }
    if (i == 0) first = op.merged;
    walls.push_back(op.wall);
    rates.push_back(static_cast<double>(samples) / op.wall);
    if (opts.trace) {
      registry_metrics(before, pool->probe_metrics(), &res);
      event_metrics(op, &res);
      res.metrics["trace.untraced_wall_s"] = op.wall;
      for (std::size_t c = 0; c < n; ++c) {
        res.metrics[std::string("inject.samples.") + kStanzas[c].core] +=
            static_cast<double>(kStanzas[c].injections);
      }
    }
  }
  res.op_walls = walls;
  res.metrics["wall_s"] = median(walls);
  res.metrics["items_per_s"] = median(rates);

  if (opts.trace && res.failed == 0) {
    res.metrics["plan.resolve_s"] = median(resolves);
    tracer.set_run(1);
    const std::size_t root = tracer.open("op");
    const FleetOp op = fleet_op(endpoints, shards, tr, &res);
    tracer.close(root);
    for (std::size_t c = 0; c < n; ++c) {
      if (op.merged[c] != first[c]) {
        res.fail("fleet_campaign traced op: campaign #" + std::to_string(c) +
                     " differs from the untraced run",
                 kShards);
      }
    }
    trace_metrics(tracer, root,
                  {"fleet.run", "inject.wire.decode", "inject.wire.merge",
                   "inject.wire.encode"},
                  &res);
    res.metrics["trace.overhead_frac"] =
        res.metrics["trace.wall_s"] / res.metrics["trace.untraced_wall_s"] -
        1.0;
    std::vector<ProbeProgram> probe;
    for (const clear::plan::RunPlan& p : plans) {
      probe.push_back({p.core_name, &p.prog, p.needs_cfg ? &p.cfg : nullptr});
    }
    tracer.set_run(2);
    run_arch_probe(probe, tr, &res);
  }
  if (!pool->stop()) {
    res.fail("fleet_campaign: a worker exited before it was stopped");
  }
  res.metrics["fleet.worker_peak_rss_mb"] = pool->max_peak_rss_mb();
  if (opts.trace && !opts.trace_out.empty()) tracer.write_json(opts.trace_out);
  return res;
}

}  // namespace perfbench
