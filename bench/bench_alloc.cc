// bench_alloc: frame-allocator microbenchmark at pool scale.
//
// The seed allocator kept a per-frame bitmap and satisfied every request
// with a next-fit scan; at 1.5M frames (96 GiB of 64 KiB frames) and high
// occupancy each allocation walks thousands of bits, and the sizing
// controller's HighestAllocatedEnd / AllocatedFramesFrom queries walk the
// whole bitmap.  This bench races that bitmap allocator (the reference
// model alloc_property_test checks against, tests/support, which scans
// 64-bit words with the same placement) against the run-indexed
// FrameAllocator's default (next-fit) policy on the same op sequence.
//
// Three fragmentation levels: the heap is filled to ~99.5% with random
// objects, then 10% / 50% / 90% of them are freed and re-allocated at new
// sizes to shear the free space, then a timed loop of free+allocate pairs
// measures steady-state alloc/free cost on the churned heap.
//
// Everything on stdout is simulated/deterministic (op counts, placement
// checksums, fragmentation, sizing-query answers); wall-clock throughput
// and the speedup ratio go to stderr so the determinism canary can diff
// stdout byte-for-byte.  At every level the run-index row must equal the
// bitmap row (placement checksum, free runs, highest end, tail frames) —
// the drop-in compatibility claim, checked at full scale on every run.
//
// Flags (besides the sidecar flags in args.h):
//   --frames=N   region size in frames (default 1500000)
//   --ops=N      cap on timed ops per level (default 0 = one per churned
//                object)
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "args.h"
#include "trace_sidecar.h"

#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/units.h"
#include "mem/frame_allocator.h"
#include "support/reference_bitmap.h"

namespace {

using namespace lmp;

// ---------------------------------------------------------------------------
// Adapters so one driver runs both implementations.

// Baseline: the seed bitmap allocator (next-fit scan with a wrapping hint,
// per-frame Free, O(n) sizing queries), shared with alloc_property_test.
struct BitmapSide {
  explicit BitmapSide(std::uint64_t frames) : alloc(frames) {}
  std::optional<std::vector<mem::FrameRun>> TryAlloc(std::uint64_t frames) {
    return alloc.NextFit(frames);
  }
  void Free(const std::vector<mem::FrameRun>& runs) {
    LMP_CHECK(alloc.Free(runs)) << "double free";
  }
  std::uint64_t free_frames() const { return alloc.free_frames(); }
  std::uint64_t FreeRunCount() const { return alloc.FreeRunCount(); }
  mem::FrameNumber HighestAllocatedEnd() const {
    return alloc.HighestAllocatedEnd();
  }
  std::uint64_t AllocatedFramesFrom(mem::FrameNumber f) const {
    return alloc.AllocatedFramesFrom(f);
  }
  mem::ReferenceBitmap alloc;
};

struct RunIndexSide {
  explicit RunIndexSide(std::uint64_t frames)
      : alloc(frames, mem::kDefaultFrameSize) {
    alloc.set_metrics(&MetricsRegistry::Global());
  }
  std::optional<std::vector<mem::FrameRun>> TryAlloc(std::uint64_t frames) {
    auto runs = alloc.Allocate(mem::AllocRequest::Of(frames));
    if (!runs.ok()) return std::nullopt;
    return std::move(runs).value();
  }
  void Free(const std::vector<mem::FrameRun>& runs) {
    LMP_CHECK_OK(alloc.Free(runs));
  }
  std::uint64_t free_frames() const { return alloc.free_frames(); }
  std::uint64_t FreeRunCount() const { return alloc.free_run_count(); }
  mem::FrameNumber HighestAllocatedEnd() const {
    return alloc.HighestAllocatedEnd();
  }
  std::uint64_t AllocatedFramesFrom(mem::FrameNumber f) const {
    return alloc.AllocatedFramesFrom(f);
  }
  mem::FrameAllocator alloc;
};

// ---------------------------------------------------------------------------
// Workload driver.  All randomness is seeded; the same (seed, frames, churn)
// triple produces the same op sequence on every run and both sides.

constexpr std::uint64_t kMinObj = 16;   // frames per object, inclusive
constexpr std::uint64_t kMaxObj = 64;
constexpr std::uint64_t kFillPermille = 995;  // target occupancy at fill

std::uint64_t NextSize(Rng& rng) {
  return kMinObj + rng.NextBounded(kMaxObj - kMinObj + 1);
}

void Mix(std::uint64_t& h, std::uint64_t v) {  // FNV-1a over 64-bit words
  h = (h ^ v) * 0x100000001B3ull;
}

struct LevelResult {
  std::uint64_t objects = 0;      // live objects after fill
  std::uint64_t churn_ops = 0;    // free+realloc pairs that sheared the heap
  std::uint64_t timed_ops = 0;
  std::uint64_t oom_skips = 0;    // timed allocs refused (both sides agree)
  std::uint64_t checksum = 0xcbf29ce484222325ull;  // placement, all phases
  std::uint64_t free_runs = 0;    // external fragmentation after timed loop
  mem::FrameNumber highest_end = 0;
  std::uint64_t tail_frames = 0;  // AllocatedFramesFrom(frames/2)
  double timed_ns_per_op = 0;
  double query_ns = 0;            // one HighestAllocatedEnd+AllocatedFramesFrom
};

template <typename Side>
LevelResult RunLevel(Side& side, std::uint64_t frames, int churn_pct,
                     std::uint64_t ops_cap, std::uint64_t seed) {
  Rng rng(seed);
  LevelResult out;
  std::vector<std::vector<mem::FrameRun>> objs;

  auto checksum_runs = [&](const std::vector<mem::FrameRun>& runs) {
    for (const mem::FrameRun& r : runs) {
      Mix(out.checksum, r.first);
      Mix(out.checksum, r.count);
    }
  };

  // Fill to the occupancy target.
  const std::uint64_t target_used = frames * kFillPermille / 1000;
  while (frames - side.free_frames() + kMaxObj <= target_used) {
    const std::uint64_t size = NextSize(rng);
    auto runs = side.TryAlloc(size);
    LMP_CHECK(runs.has_value());
    checksum_runs(*runs);
    objs.push_back(std::move(*runs));
  }
  out.objects = objs.size();

  // Churn: free `churn_pct` of the objects at random, then re-allocate the
  // same count at fresh sizes.  This shears the freed space into the
  // fragmented steady state the timed loop runs against.
  out.churn_ops = objs.size() * static_cast<std::uint64_t>(churn_pct) / 100;
  for (std::uint64_t i = 0; i < out.churn_ops; ++i) {
    const std::uint64_t pick = rng.NextBounded(objs.size());
    side.Free(objs[pick]);
    objs[pick] = std::move(objs.back());
    objs.pop_back();
  }
  for (std::uint64_t i = 0; i < out.churn_ops; ++i) {
    const std::uint64_t size = NextSize(rng);
    auto runs = side.TryAlloc(size);
    if (!runs.has_value()) continue;  // deterministic: both sides skip alike
    checksum_runs(*runs);
    objs.push_back(std::move(*runs));
  }

  // Timed steady-state loop: one free + one allocate per op.
  out.timed_ops = ops_cap == 0 ? out.churn_ops : std::min(ops_cap,
                                                          out.churn_ops);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < out.timed_ops; ++i) {
    const std::uint64_t pick = rng.NextBounded(objs.size());
    side.Free(objs[pick]);
    objs[pick] = std::move(objs.back());
    objs.pop_back();
    const std::uint64_t size = NextSize(rng);
    auto runs = side.TryAlloc(size);
    if (!runs.has_value()) {
      ++out.oom_skips;
      continue;
    }
    checksum_runs(*runs);
    objs.push_back(std::move(*runs));
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.timed_ns_per_op =
      std::chrono::duration<double, std::nano>(t1 - t0).count() /
      static_cast<double>(out.timed_ops);

  // Sizing queries on the churned heap (the controller runs these every
  // epoch): answers go to stdout, their cost to stderr.
  out.free_runs = side.FreeRunCount();
  const auto q0 = std::chrono::steady_clock::now();
  constexpr int kQueryReps = 8;
  std::uint64_t sink = 0;
  for (int i = 0; i < kQueryReps; ++i) {
    sink += side.HighestAllocatedEnd();
    sink += side.AllocatedFramesFrom(frames / 2);
  }
  const auto q1 = std::chrono::steady_clock::now();
  out.query_ns = std::chrono::duration<double, std::nano>(q1 - q0).count() /
                 kQueryReps;
  LMP_CHECK(sink > 0);
  out.highest_end = side.HighestAllocatedEnd();
  out.tail_frames = side.AllocatedFramesFrom(frames / 2);
  return out;
}

std::string Hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::Parse(argc, argv);
  bench::TraceSidecar sidecar(args);

  std::uint64_t frames = 1'500'000;  // 96 GiB pool box at 64 KiB frames
  std::uint64_t ops_cap = 0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--frames=", 9) == 0) {
      frames = std::strtoull(arg + 9, nullptr, 10);
    } else if (std::strncmp(arg, "--ops=", 6) == 0) {
      ops_cap = std::strtoull(arg + 6, nullptr, 10);
    }
  }
  LMP_CHECK(frames >= 4096) << "--frames too small";

  std::printf("== bench_alloc: %" PRIu64
              " frames (%.0f GiB at 64 KiB), objects %" PRIu64 "-%" PRIu64
              " frames, fill %.1f%% ==\n",
              frames,
              static_cast<double>(frames * mem::kDefaultFrameSize) / kGiB,
              kMinObj, kMaxObj, kFillPermille / 10.0);

  TablePrinter table({"Churn", "Impl", "Objects", "Timed ops", "Skips",
                      "Free runs", "Highest end", "Tail frames",
                      "Placement"});
  double min_speedup = 1e300;
  for (const int churn : {10, 50, 90}) {
    const std::uint64_t seed = 0xA110C000 + static_cast<std::uint64_t>(churn);
    BitmapSide bitmap(frames);
    const LevelResult bm = RunLevel(bitmap, frames, churn, ops_cap, seed);
    RunIndexSide runidx(frames);
    const LevelResult ri = RunLevel(runidx, frames, churn, ops_cap, seed);
    LMP_CHECK(bm.objects == ri.objects && bm.timed_ops == ri.timed_ops);
    LMP_CHECK(bm.oom_skips == ri.oom_skips)
        << "capacity accounting diverged between implementations";
    LMP_CHECK(bm.checksum == ri.checksum) << "default policy diverged";
    LMP_CHECK(bm.free_runs == ri.free_runs);
    LMP_CHECK(bm.highest_end == ri.highest_end);
    LMP_CHECK(bm.tail_frames == ri.tail_frames);
    table.AddRow({std::to_string(churn) + "%", "bitmap-scan",
                  std::to_string(bm.objects), std::to_string(bm.timed_ops),
                  std::to_string(bm.oom_skips), std::to_string(bm.free_runs),
                  std::to_string(bm.highest_end),
                  std::to_string(bm.tail_frames), Hex(bm.checksum)});
    table.AddRow({std::to_string(churn) + "%", "run-index",
                  std::to_string(ri.objects), std::to_string(ri.timed_ops),
                  std::to_string(ri.oom_skips), std::to_string(ri.free_runs),
                  std::to_string(ri.highest_end),
                  std::to_string(ri.tail_frames), Hex(ri.checksum)});
    const double speedup = bm.timed_ns_per_op / ri.timed_ns_per_op;
    min_speedup = std::min(min_speedup, speedup);
    std::fprintf(stderr,
                 "churn=%d%%: alloc+free bitmap %.0f ns/op, run-index %.0f "
                 "ns/op (speedup %.1fx); sizing queries %.0f ns vs %.0f ns "
                 "(%.0fx)\n",
                 churn, bm.timed_ns_per_op, ri.timed_ns_per_op, speedup,
                 bm.query_ns, ri.query_ns, bm.query_ns / ri.query_ns);
  }
  table.Print();
  std::fprintf(stderr, "minimum alloc+free speedup across levels: %.1fx\n",
               min_speedup);

  std::printf(
      "\nThe table is fully deterministic: placement checksums cover every\n"
      "run handed out, and each run-index row equals its bitmap row, so the\n"
      "default policy is a drop-in for the bitmap scan.  Wall-clock\n"
      "throughput and the speedup ratios are on stderr.\n");
  sidecar.Flush();
  return 0;
}
