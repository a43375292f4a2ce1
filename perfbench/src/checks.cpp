#include "checks.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "explore/explore.h"
#include "explore/ledger.h"
#include "plan/runplan.h"

namespace perfbench {

namespace explore = clear::explore;
namespace inject = clear::inject;

std::size_t ledger_mismatches(const std::string& got,
                              const std::string& want) {
  if (got == want) return 0;
  explore::Ledger a, b;
  if (explore::decode_ledger(got, &a) != explore::LedgerStatus::kOk ||
      explore::decode_ledger(want, &b) != explore::LedgerStatus::kOk) {
    return std::max<std::size_t>(1, b.records.size());
  }
  std::size_t bad = a.records.size() > b.records.size()
                        ? a.records.size() - b.records.size()
                        : b.records.size() - a.records.size();
  for (std::size_t i = 0; i < std::min(a.records.size(), b.records.size());
       ++i) {
    if (explore::encode_record(a.records[i]) !=
        explore::encode_record(b.records[i])) {
      ++bad;
    }
  }
  // Equal records but different bytes: the identity differs, so every
  // record was produced under the wrong experiment.
  return bad != 0 ? bad : std::max<std::size_t>(1, b.records.size());
}

std::string check_merged(const std::vector<inject::ShardFile>& parts,
                         const std::string& merged_bytes) {
  const std::string want = inject::encode_shard(inject::merge_shard_files(parts));
  if (want != merged_bytes) {
    return "merged .csr differs from merge_shard_files over the decoded "
           "shard payloads";
  }
  return "";
}

std::string check_unsharded(const inject::ShardFile& merged,
                            const inject::ShardFile& whole) {
  if (merged.core_name != whole.core_name ||
      merged.program_hash != whole.program_hash ||
      merged.injections != whole.injections || merged.seed != whole.seed) {
    return "merged .csr is not the campaign of the unsharded reference run";
  }
  // Same identity and coverage as `merged`, the unsharded counters.
  inject::ShardFile want = merged;
  want.result = whole.result;
  if (inject::encode_shard(want) != inject::encode_shard(merged)) {
    return "merged .csr result differs from the unsharded in-process run "
           "of the same stanza";
  }
  return "";
}

std::string check_streamed(
    const std::map<std::uint64_t, std::vector<std::string>>& streamed,
    const std::vector<clear::fleet::ShardResult>& reported,
    std::size_t shards) {
  if (streamed.size() != shards || reported.size() != shards) {
    return std::to_string(streamed.size()) + " shard(s) streamed and " +
           std::to_string(reported.size()) + " reported, of " +
           std::to_string(shards);
  }
  for (const clear::fleet::ShardResult& r : reported) {
    const auto it = streamed.find(r.shard_id);
    if (it == streamed.end() || it->second != r.payloads) {
      return "shard " + std::to_string(r.shard_id) +
             ": the reported payloads differ from the streamed ones";
    }
  }
  return "";
}

std::string check_totals(const inject::ShardFile& merged,
                         std::uint64_t requested) {
  if (!merged.complete()) {
    return "merged .csr covers " + std::to_string(merged.covered.size()) +
           " of " + std::to_string(merged.shard_count) + " shards";
  }
  const std::uint64_t total = merged.result.totals.total();
  if (total != requested || merged.injections != requested) {
    return "merged .csr holds " + std::to_string(total) + " samples, " +
           std::to_string(requested) + " were requested";
  }
  return "";
}

std::string check_fleet_health(std::size_t redispatched,
                               std::size_t workers_lost, bool workers_alive) {
  if (redispatched != 0 || workers_lost != 0 || !workers_alive) {
    return "fleet lost " + std::to_string(workers_lost) + " worker(s), " +
           std::to_string(redispatched) + " shard(s) redispatched" +
           (workers_alive ? "" : ", a worker process exited");
  }
  return "";
}

bool load_expected(const std::string& path, Expected* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string kind, name;
    fields >> kind;
    if (kind == "count") {
      std::uint64_t v = 0;
      if (!(fields >> name >> v)) return false;
      out->counts[name] = v;
    } else if (kind == "digest") {
      std::uint64_t seed = 0;
      std::string hex;
      if (!(fields >> seed >> name >> hex)) return false;
      out->digests[seed][name] = hex;
    } else {
      return false;
    }
  }
  return true;
}

void check_expected(const Expected& expected, std::uint64_t seed,
                    Result* res) {
  for (const auto& [name, value] : res->counts) {
    const auto it = expected.counts.find(name);
    if (it == expected.counts.end()) {
      res->fail("count " + name + " has no committed value");
    } else if (it->second != value) {
      res->fail("count " + name + " = " + std::to_string(value) +
                ", committed value is " + std::to_string(it->second));
    }
  }
  const auto seeded = expected.digests.find(seed);
  if (seeded == expected.digests.end()) return;
  for (const auto& [name, hex] : res->digests) {
    const auto it = seeded->second.find(name);
    if (it == seeded->second.end()) {
      res->fail("digest " + name + " has no committed value for seed " +
                std::to_string(seed));
    } else if (it->second != hex) {
      res->fail("digest " + name + " = " + hex + ", committed value is " +
                it->second);
    }
  }
}

std::string expected_lines(const Result& res, std::uint64_t seed) {
  std::string out;
  for (const auto& [name, value] : res.counts) {
    out += "count " + name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, hex] : res.digests) {
    out += "digest " + std::to_string(seed) + " " + name + " " + hex + "\n";
  }
  return out;
}

namespace {

// Prints one self-test line; true when the check passed clean and
// tripped on its seeded failure.
bool report(const char* check, bool clean_ok, bool seeded_tripped) {
  const bool ok = clean_ok && seeded_tripped;
  std::printf("selftest %-40s clean=%s seeded-failure=%s  %s\n", check,
              clean_ok ? "pass" : "FAIL", seeded_tripped ? "tripped" : "MISSED",
              ok ? "ok" : "BROKEN");
  return ok;
}

// The `count` shards of a small campaign, run in process (one shard is
// the unsharded campaign).
std::vector<inject::ShardFile> small_shards(std::uint64_t injections,
                                            int count) {
  std::vector<inject::ShardFile> parts;
  for (int k = 0; k < count; ++k) {
    std::vector<clear::plan::RunPlan> plans;
    std::string error;
    const std::string manifest =
        "--core InO --bench mcf --no-cache --seed 1 --injections " +
        std::to_string(injections) + " --shard " + std::to_string(k) + "/" +
        std::to_string(count);
    if (!clear::plan::resolve_manifest_text(manifest, "selftest", &plans,
                                            &error)) {
      throw std::runtime_error(error);
    }
    const auto results = inject::run_campaigns({plans[0].spec});
    parts.push_back(clear::plan::plan_shard_file(plans[0], results[0]));
  }
  return parts;
}

}  // namespace

int run_selftest(const Expected& expected) {
  bool all = true;

  // Ledger byte identity: one flipped byte in a record, and one in the
  // identity block.
  {
    explore::ExploreSpec spec;
    spec.core = "InO";
    spec.per_ff_samples = 1;
    spec.benchmarks = {"mcf"};
    const std::string bytes =
        explore::encode_ledger(explore::run_exploration(spec, ""));
    std::string record_flip = bytes;
    record_flip[record_flip.size() - 3] ^= 0x01;
    std::string ident_flip = bytes;
    ident_flip[explore::kLedgerHeaderSize + 1] ^= 0x01;
    all &= report("ledger byte identity (record)",
                  ledger_mismatches(bytes, bytes) == 0,
                  ledger_mismatches(record_flip, bytes) > 0);
    all &= report("ledger byte identity (identity)", true,
                  ledger_mismatches(ident_flip, bytes) > 0);
  }

  // Fleet merge and totals: a flipped byte in the merged .csr, one extra
  // requested sample, a missing shard, and one extra outcome in the
  // unsharded reference.
  {
    const std::vector<inject::ShardFile> parts = small_shards(600, 2);
    const inject::ShardFile whole = small_shards(600, 1)[0];
    inject::ShardFile extra = whole;
    extra.result.per_ff[0].vanished += 1;
    extra.result.totals.vanished += 1;
    const inject::ShardFile merged = inject::merge_shard_files(parts);
    const std::string bytes = inject::encode_shard(merged);
    std::string flipped = bytes;
    flipped[flipped.size() - 9] ^= 0x01;
    all &= report("fleet merged .csr == merge of payloads",
                  check_merged(parts, bytes).empty(),
                  !check_merged(parts, flipped).empty());
    all &= report("fleet merged .csr == unsharded run",
                  check_unsharded(merged, whole).empty(),
                  !check_unsharded(merged, extra).empty());
    all &= report("fleet totals == requested samples",
                  check_totals(merged, 600).empty(),
                  !check_totals(merged, 601).empty());
    all &= report("fleet every shard covered", true,
                  !check_totals(inject::merge_shard_files({parts[0]}), 600)
                       .empty());
  }

  // Streamed vs reported payloads: one flipped byte, one missing shard.
  {
    std::map<std::uint64_t, std::vector<std::string>> streamed;
    std::vector<clear::fleet::ShardResult> reported(2);
    for (std::uint64_t k = 0; k < 2; ++k) {
      reported[k].shard_id = k;
      reported[k].payloads = {"csr-" + std::to_string(k), "second"};
      streamed[k] = reported[k].payloads;
    }
    auto flipped = reported;
    flipped[1].payloads[0][0] ^= 0x01;
    auto short_map = streamed;
    short_map.erase(0);
    all &= report("fleet streamed == reported payloads",
                  check_streamed(streamed, reported, 2).empty(),
                  !check_streamed(streamed, flipped, 2).empty() &&
                      !check_streamed(short_map, reported, 2).empty());
  }

  // Fleet health: one redispatch, one lost worker, one exited process.
  all &= report("fleet no worker death or redispatch",
                check_fleet_health(0, 0, true).empty(),
                !check_fleet_health(1, 0, true).empty() &&
                    !check_fleet_health(0, 1, true).empty() &&
                    !check_fleet_health(0, 0, false).empty());

  // Committed counts and digests: one perturbed count, one perturbed
  // digest.
  {
    Result clean;
    for (const auto& [name, v] : expected.counts) clean.counts[name] = v;
    const auto seeded = expected.digests.find(1);
    if (seeded != expected.digests.end()) clean.digests = seeded->second;
    Result bad_count = clean;
    Result bad_digest = clean;
    if (!bad_count.counts.empty()) bad_count.counts.begin()->second += 1;
    if (!bad_digest.digests.empty()) {
      std::string& hex = bad_digest.digests.begin()->second;
      hex[0] = hex[0] == '0' ? '1' : '0';
    }
    check_expected(expected, 1, &clean);
    check_expected(expected, 1, &bad_count);
    check_expected(expected, 1, &bad_digest);
    all &= report("committed exact counts",
                  clean.failed == 0 && !expected.counts.empty(),
                  bad_count.failed > 0);
    all &= report("committed digests (seed 1)",
                  clean.failed == 0 && !clean.digests.empty(),
                  bad_digest.failed > 0);
  }

  // Trace accounting: every span below the root is a listed layer, and
  // layer self times + unattributed == traced wall.  A span no layer
  // claims, and a layer listed twice, must each trip the check.
  {
    Tracer tracer;
    const std::size_t root = tracer.open("op");
    {
      const Scope a(&tracer, "core.prefetch");
      const Scope b(&tracer, "explore.ledger.append");
    }
    {
      const Scope c(&tracer, "core.evaluate");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    tracer.close(root);
    Result clean, twice, unlisted;
    trace_metrics(tracer, root,
                  {"core.prefetch", "core.evaluate", "explore.ledger.append"},
                  &clean);
    trace_metrics(tracer, root,
                  {"core.prefetch", "core.evaluate", "core.evaluate",
                   "explore.ledger.append"},
                  &twice);
    trace_metrics(tracer, root, {"core.prefetch", "core.evaluate"}, &unlisted);
    all &= report("trace spans are listed layers", clean.failed == 0,
                  unlisted.failed > 0);
    all &= report("trace parts add up to traced wall", clean.failed == 0,
                  twice.failed > 0);
  }

  std::printf("selftest %s\n", all ? "PASS" : "FAIL");
  return all ? 0 : 1;
}

}  // namespace perfbench
