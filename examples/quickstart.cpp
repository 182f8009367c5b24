// Quickstart: create a logical memory pool, allocate a buffer in it, write
// and read data from different servers, and watch a locality-balancing
// round migrate a hot buffer toward its user.
//
//   $ ./quickstart
//
// Uses the small functional configuration (4 servers x 64 MiB with real
// backing memory), so everything here moves real bytes.
#include <cstdio>
#include <span>
#include <vector>

#include "core/lmp.h"

int main() {
  // 1. Bring up a pool: 4 servers, each contributing its DRAM to the pool.
  auto pool_or = lmp::Pool::Create(lmp::PoolOptions::Small());
  if (!pool_or.ok()) {
    std::fprintf(stderr, "pool creation failed: %s\n",
                 pool_or.status().ToString().c_str());
    return 1;
  }
  lmp::Pool& pool = **pool_or;
  std::printf("pool up: %d servers, %llu MiB pooled\n",
              pool.cluster().num_servers(),
              static_cast<unsigned long long>(
                  pool.cluster().PooledCapacityBytes() / lmp::kMiB));

  // 2. Allocate 1 MiB, preferring server 0's shared region.
  auto buffer_or = pool.Allocate(lmp::MiB(1), /*preferred=*/0);
  if (!buffer_or.ok()) {
    std::fprintf(stderr, "allocation failed: %s\n",
                 buffer_or.status().ToString().c_str());
    return 1;
  }
  const lmp::core::BufferId buffer = *buffer_or;

  // 3. Server 0 writes; server 2 reads the same logical buffer.
  std::vector<double> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = 0.5 * i;
  LMP_CHECK_OK(pool.WriteArray<double>(0, buffer, 0,
                                       std::span<const double>(data)));
  std::vector<double> readback(1000);
  LMP_CHECK_OK(pool.ReadArray<double>(2, buffer, 0,
                                      std::span<double>(readback)));
  std::printf("server 2 read back %zu doubles; first=%g last=%g\n",
              readback.size(), readback.front(), readback.back());

  // 4. Keep scanning the whole buffer from server 2 so the hotness profile
  //    marks it hot-and-remote (recent traffic must exceed the copy cost),
  //    then let the background migrator act.
  std::vector<double> scan(lmp::MiB(1) / sizeof(double));
  for (int i = 0; i < 50; ++i) {
    LMP_CHECK_OK(pool.ReadArray<double>(2, buffer, 0,
                                        std::span<double>(scan),
                                        lmp::Milliseconds(200 + i)));
  }
  const auto migrations = pool.Tick(lmp::Milliseconds(251));
  for (const auto& m : migrations) {
    std::printf("runtime migrated segment %u: %s -> %s (%llu KiB)\n",
                m.segment, m.from.ToString().c_str(),
                m.to.ToString().c_str(),
                static_cast<unsigned long long>(m.bytes / lmp::kKiB));
  }
  auto frac = pool.manager().LocalFraction(buffer, 2);
  std::printf("buffer is now %.0f%% local to server 2\n",
              100.0 * frac.value_or(0));

  // 5. Data survived the move, at the same logical buffer id.
  LMP_CHECK_OK(pool.ReadArray<double>(2, buffer, 0,
                                      std::span<double>(readback)));
  std::printf("post-migration read OK: first=%g last=%g\n",
              readback.front(), readback.back());

  LMP_CHECK_OK(pool.Free(buffer));
  std::printf("quickstart done\n");
  return 0;
}
