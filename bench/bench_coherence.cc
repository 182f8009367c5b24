// Coherence messages per op (§3.2 / §5 "Cache coherence").
//
// Drives the software directory through a fixed op count per sharing
// pattern and prints the messages it generates.  The granularity sweep
// shows sub-line tracking removing false-sharing invalidations, the design
// §3.2 motivates ("tracking coherence at a granularity finer than a cache
// line to avoid false sharing"), while true sharing ping-pongs at every
// granularity.  The lock and barrier rows price the coordination
// primitives the coherent region exists for.  Each row runs a warm-up
// cycle and then resets the counters, so it reports steady state.
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "args.h"
#include "trace_sidecar.h"

#include "common/logging.h"
#include "common/table.h"
#include "core/coherence.h"
#include "core/coherent_region.h"

namespace {

using namespace lmp;
using core::CoherenceDirectory;

constexpr std::uint64_t kOps = 1 << 16;
constexpr std::uint64_t kWarmupOps = 64;  // the read-mostly write period

// Runs op(i) for kWarmupOps ops, resets `dir`'s counters, runs kOps more
// and adds the resulting row.
void Row(TablePrinter& table, const std::string& pattern, Bytes block,
         CoherenceDirectory& dir,
         const std::function<void(std::uint64_t)>& op) {
  std::uint64_t i = 0;
  for (; i < kWarmupOps; ++i) op(i);
  dir.ResetStats();
  for (; i < kWarmupOps + kOps; ++i) op(i);
  const core::CoherenceStats& s = dir.stats();
  const auto per_op = [](std::uint64_t n) {
    return TablePrinter::Num(static_cast<double>(n) / kOps, 3);
  };
  table.AddRow({pattern, std::to_string(block) + " B", std::to_string(kOps),
                std::to_string(s.invalidation_msgs),
                std::to_string(s.downgrade_msgs), std::to_string(s.fills),
                per_op(s.invalidation_msgs), per_op(s.TotalMessages())});
}

}  // namespace

int main(int argc, char** argv) {
  lmp::bench::TraceSidecar sidecar(lmp::bench::Args::Parse(argc, argv));
  std::printf("== Coherence messages per op (%llu ops per row) ==\n",
              static_cast<unsigned long long>(kOps));
  TablePrinter table({"Pattern", "Block", "Ops", "Invalidations",
                      "Downgrades", "Fills", "Inval/op", "Msgs/op"});

  // Hosts 0 and 1 alternately write an 8-byte word: adjacent words (false
  // sharing; a block of 16 B or more holds both) or the same word (true
  // sharing; no block size separates them).
  struct Sharing {
    const char* pattern;
    Bytes block;
    Bytes host1_offset;
  };
  for (const Sharing& c : {Sharing{"false sharing", 64, 8},
                           Sharing{"false sharing", 16, 8},
                           Sharing{"false sharing", 8, 8},
                           Sharing{"true sharing", 64, 0},
                           Sharing{"true sharing", 8, 0}}) {
    CoherenceDirectory dir(MiB(1), c.block, 4);
    Row(table, c.pattern, c.block, dir, [&](std::uint64_t i) {
      const int host = static_cast<int>(i & 1);
      LMP_CHECK_OK(
          dir.AcquireExclusive(host, host * c.host1_offset, 8).status());
    });
  }

  // Read-mostly: eight hosts read one block and host 0 writes it once every
  // 64 ops — the coordination pattern the small coherent region is for.
  CoherenceDirectory read_mostly(MiB(1), 64, 8);
  Row(table, "read-mostly (1/64 writes)", 64, read_mostly,
      [&](std::uint64_t i) {
        LMP_CHECK_OK((i % 64 == 0 ? read_mostly.AcquireExclusive(0, 0, 8)
                                  : read_mostly.AcquireShared(
                                        static_cast<int>(i % 8), 0, 8))
                         .status());
      });

  // Lock handoff: one op is TryLock + Unlock, with ownership rotating
  // across four hosts on every acquisition.
  core::CoherentRegion lock_region(KiB(4), 16, 4);
  core::DistributedLock lock(&lock_region, 0);
  Row(table, "lock handoff (4 hosts)", 16, lock_region.directory(),
      [&](std::uint64_t i) {
        const int host = static_cast<int>(i % 4);
        const auto taken = lock.TryLock(host);
        LMP_CHECK(taken.ok() && *taken);
        LMP_CHECK_OK(lock.Unlock(host));
      });

  // Barrier: one op is a full round, each of four hosts arriving once.
  core::CoherentRegion barrier_region(KiB(4), 16, 4);
  core::CoherentBarrier barrier(&barrier_region, 0, 4);
  Row(table, "barrier round (4 hosts)", 16, barrier_region.directory(),
      [&](std::uint64_t) {
        for (int host = 0; host < 4; ++host) {
          LMP_CHECK_OK(barrier.Arrive(host).status());
        }
      });

  table.Print();
  sidecar.Flush();
  return 0;
}
