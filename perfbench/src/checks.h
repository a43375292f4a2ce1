// Output checks of the benchmark, and the self-test that proves each one
// trips on a seeded failure.
#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "fleet/fleet.h"
#include "inject/wire.h"

namespace perfbench {

// Records of `got` that differ from `want` (0 when byte-identical; at
// least 1 when the bytes differ anywhere, identity included).
[[nodiscard]] std::size_t ledger_mismatches(const std::string& got,
                                            const std::string& want);

// "" when `merged_bytes` equals merge_shard_files over `parts`, else why.
[[nodiscard]] std::string check_merged(
    const std::vector<clear::inject::ShardFile>& parts,
    const std::string& merged_bytes);

// "" when the complete `merged` campaign holds the same result as
// `whole`, the same stanza run unsharded in process, else why.
[[nodiscard]] std::string check_unsharded(
    const clear::inject::ShardFile& merged,
    const clear::inject::ShardFile& whole);

// "" when the payloads streamed through run_fleet's on_shard hook
// (shard id -> payloads) are exactly the ones its FleetReport returns,
// one result per shard of `shards`, else why.
[[nodiscard]] std::string check_streamed(
    const std::map<std::uint64_t, std::vector<std::string>>& streamed,
    const std::vector<clear::fleet::ShardResult>& reported,
    std::size_t shards);

// "" when `merged` covers every shard and its totals equal the
// `requested` sample count, else why.
[[nodiscard]] std::string check_totals(const clear::inject::ShardFile& merged,
                                       std::uint64_t requested);

// "" when the fleet ran without a redispatch or a lost worker and every
// worker process is still running, else why.
[[nodiscard]] std::string check_fleet_health(std::size_t redispatched,
                                             std::size_t workers_lost,
                                             bool workers_alive);

// Committed values (expected.txt): exact counts that hold for every seed,
// and output digests per seed.
struct Expected {
  std::map<std::string, std::uint64_t> counts;
  std::map<std::uint64_t, std::map<std::string, std::string>> digests;
};
// False when the file is missing or malformed.
bool load_expected(const std::string& path, Expected* out);
// Fails `res` for every count or digest that differs from its committed
// value, and for every count that has none.  Digests are compared when
// the file has any for `seed`.
void check_expected(const Expected& expected, std::uint64_t seed,
                    Result* res);
// The lines of expected.txt that pin `res` (for a reviewed update).
[[nodiscard]] std::string expected_lines(const Result& res,
                                         std::uint64_t seed);

// Runs every check on clean and on deliberately damaged inputs; prints
// one line per check and returns 0 when each passes clean and trips on
// its seeded failure.
int run_selftest(const Expected& expected);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H
