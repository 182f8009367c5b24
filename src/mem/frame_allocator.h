// Physical frame allocator.
//
// Each server's DRAM (and the physical pool box) is divided into fixed-size
// frames; the allocator hands out frame sets for segment backing.  Frames
// need not be contiguous — the per-server fine-grained map (address
// translation step 2, §5 of the paper) handles scatter — but the allocator
// prefers runs to keep maps small.  Capacity accounting is exact: this is
// what makes the Figure-5 "infeasible on a physical pool" experiment fall
// out of the allocator rather than being hard-coded.
//
// Internally the allocator is run-indexed: free space lives in an ordered
// map of coalescing free runs keyed by start frame.  Allocate/Free are
// amortized O(runs · log n); HighestAllocatedEnd and AllocatedFramesFrom
// are queries over the run set instead of bitmap scans.  The default
// placement policy byte-for-byte reproduces the original next-fit bitmap
// scan, so identical request sequences produce identical frame layouts.
//
// Placement is a function of the request alone: next-fit, or first-fit
// ascending below a bound (the compaction primitive).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/units.h"

namespace lmp::mem {

using FrameNumber = std::uint64_t;

struct FrameRun {
  FrameNumber first = 0;
  std::uint64_t count = 0;
  FrameNumber end() const { return first + count; }
  friend bool operator==(const FrameRun&, const FrameRun&) = default;
};

// One request struct instead of a growing tail of positional parameters:
// new placement knobs become fields with defaults, and every call site
// reads as named options.  (See DESIGN.md, "request structs".)
struct AllocRequest {
  std::uint64_t frames = 0;
  // When set, every frame must land strictly below `bound` (first-fit from
  // frame 0): the compaction primitive.  A shrink to `bound` frames needs
  // live data packed below the cut; default next-fit can land anywhere,
  // this cannot.  The next-fit hint is untouched.
  std::optional<FrameNumber> bound;

  static AllocRequest Of(std::uint64_t frames) {
    AllocRequest request;
    request.frames = frames;
    return request;
  }
  static AllocRequest Below(std::uint64_t frames, FrameNumber bound) {
    AllocRequest request;
    request.frames = frames;
    request.bound = bound;
    return request;
  }
};

class FrameAllocator {
 public:
  FrameAllocator(std::uint64_t num_frames, Bytes frame_size);

  // Allocates exactly `request.frames` frames, as few runs as the placement
  // policy finds.  Fails with kOutOfMemory when they cannot be found (for
  // bounded requests: below the bound).  Placement is computed against the
  // free-run index and committed only when the request is fully satisfied,
  // so failure never mutates state — there is no partial grab to roll back.
  StatusOr<std::vector<FrameRun>> Allocate(const AllocRequest& request);

  // Frees previously allocated runs.  Double-free (any frame already free
  // or repeated within `runs`) is an error and leaves state untouched.
  // O(runs · log n) via the run index.
  Status Free(const std::vector<FrameRun>& runs);

  // Grow/shrink the managed frame count (shared-region resizing, §5).
  // Shrinking fails with kFailedPrecondition if any frame in the removed
  // tail is still allocated.
  Status Resize(std::uint64_t new_num_frames);

  std::uint64_t num_frames() const { return num_frames_; }
  std::uint64_t free_frames() const { return free_frames_; }
  std::uint64_t used_frames() const { return num_frames_ - free_frames_; }
  Bytes frame_size() const { return frame_size_; }
  Bytes capacity_bytes() const { return num_frames_ * frame_size_; }
  Bytes free_bytes() const { return free_frames_ * frame_size_; }

  // Number of runs in the free index — the external fragmentation measure
  // bench_alloc reports.
  std::size_t free_run_count() const { return free_runs_.size(); }

  bool IsAllocated(FrameNumber f) const;

  // Allocated frames at positions >= `from` — the frames a Resize(`from`)
  // would have to reclaim.  This is what a deferred shrink strands: the
  // sizing layer reports it so a drain knows how many bytes must move.
  // O(log n + free runs past `from`).
  std::uint64_t AllocatedFramesFrom(FrameNumber from) const;

  // One past the highest allocated frame — the smallest frame count a
  // Resize() can shrink to right now.  0 when nothing is allocated.
  // O(log n).
  FrameNumber HighestAllocatedEnd() const;

  // Optional counters (mem.alloc.*); null (the default) disables emission
  // so existing metrics sidecars are unchanged unless a caller opts in.
  void set_metrics(MetricsRegistry* registry) { metrics_ = registry; }

 private:
  // Free-run index maintenance.  Insert coalesces with both neighbours;
  // Carve removes [start, start+count) from the run at `run_start`,
  // splitting when the cut is interior.  Both keep free_frames_ in sync.
  void InsertFreeRun(FrameNumber start, std::uint64_t count);
  void CarveFreeRun(FrameNumber run_start, FrameNumber start,
                    std::uint64_t count);

  // Placement policies.  Both compute the full take list against the free
  // index and commit only on success.
  StatusOr<std::vector<FrameRun>> NextFit(std::uint64_t frames);
  StatusOr<std::vector<FrameRun>> FitAscending(std::uint64_t frames,
                                               FrameNumber bound);

  std::uint64_t num_frames_;
  std::uint64_t free_frames_;
  Bytes frame_size_;
  FrameNumber hint_ = 0;  // next-fit start position

  // start frame -> run length; runs never touch (coalesced on insert).
  std::map<FrameNumber, std::uint64_t> free_runs_;

  MetricsRegistry* metrics_ = nullptr;
};

// Frame size used across the library: 64 KiB keeps metadata tractable at
// 96 GiB scale while staying fine-grained enough for migration units.
inline constexpr Bytes kDefaultFrameSize = KiB(64);

constexpr std::uint64_t FramesForBytes(Bytes bytes, Bytes frame_size) {
  return (bytes + frame_size - 1) / frame_size;
}

}  // namespace lmp::mem
