#include "mem/frame_allocator.h"

#include <algorithm>
#include <string>

#include "common/logging.h"

namespace lmp::mem {
namespace {

// A placement computed against the free index but not yet committed:
// `count` frames at `start`, carved out of the free run beginning at
// `run_start`.  Commit order never invalidates later entries because each
// take touches a distinct free run (or a distinct piece of one).
struct Take {
  FrameNumber run_start = 0;
  FrameNumber start = 0;
  std::uint64_t count = 0;
};

}  // namespace

FrameAllocator::FrameAllocator(std::uint64_t num_frames, Bytes frame_size)
    : num_frames_(num_frames), free_frames_(num_frames),
      frame_size_(frame_size) {
  LMP_CHECK(frame_size > 0);
  if (num_frames > 0) free_runs_.emplace(0, num_frames);
}

void FrameAllocator::InsertFreeRun(FrameNumber start, std::uint64_t count) {
  if (count == 0) return;
  free_frames_ += count;
  auto next = free_runs_.lower_bound(start);
  if (next != free_runs_.begin()) {
    auto prev = std::prev(next);
    LMP_CHECK(prev->first + prev->second <= start)
        << "free-run insert overlaps an existing run";
    if (prev->first + prev->second == start) {  // coalesce left
      start = prev->first;
      count += prev->second;
      free_runs_.erase(prev);
    }
  }
  if (next != free_runs_.end() && start + count == next->first) {  // right
    count += next->second;
    free_runs_.erase(next);
  }
  free_runs_.emplace(start, count);
}

void FrameAllocator::CarveFreeRun(FrameNumber run_start, FrameNumber start,
                                  std::uint64_t count) {
  auto it = free_runs_.find(run_start);
  LMP_CHECK(it != free_runs_.end()) << "carve from a missing free run";
  const std::uint64_t len = it->second;
  LMP_CHECK(start >= run_start && start + count <= run_start + len);
  free_runs_.erase(it);
  const std::uint64_t left = start - run_start;
  const std::uint64_t right = (run_start + len) - (start + count);
  if (left > 0) free_runs_.emplace(run_start, left);
  if (right > 0) free_runs_.emplace(start + count, right);
  free_frames_ -= count;
}

// Reproduces the original next-fit bitmap scan exactly: free frames are
// taken in scan order starting at the hint, wrapping once, and the hint
// advances to one past the last frame taken.  Identical request sequences
// therefore produce identical layouts to the bitmap implementation.
StatusOr<std::vector<FrameRun>> FrameAllocator::NextFit(std::uint64_t frames) {
  if (frames > free_frames_) {
    return OutOfMemoryError("need " + std::to_string(frames) +
                            " frames, only " + std::to_string(free_frames_) +
                            " free");
  }
  std::vector<FrameRun> runs;
  std::uint64_t remaining = frames;
  FrameNumber cursor = hint_;
  bool wrapped = false;
  while (remaining > 0) {
    // First free run with end > cursor.
    auto it = free_runs_.upper_bound(cursor);
    if (it != free_runs_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second > cursor) it = prev;
    }
    if (it == free_runs_.end()) {
      LMP_CHECK(!wrapped) << "free count disagreed with run index";
      wrapped = true;
      cursor = 0;
      continue;
    }
    const FrameNumber take_start = std::max(it->first, cursor);
    const std::uint64_t avail = it->first + it->second - take_start;
    const std::uint64_t take = std::min(avail, remaining);
    runs.push_back(FrameRun{take_start, take});
    cursor = take_start + take;
    CarveFreeRun(it->first, take_start, take);
    remaining -= take;
  }
  hint_ = cursor % num_frames_;
  return runs;
}

// First-fit ascending, every frame strictly below `bound` (clipped to the
// region).  The take list is computed first and committed only when the
// request is fully covered, so shortage leaves state untouched — the old
// bitmap implementation grabbed as it scanned and had to roll back.
StatusOr<std::vector<FrameRun>> FrameAllocator::FitAscending(
    std::uint64_t frames, FrameNumber bound) {
  const FrameNumber limit = std::min<FrameNumber>(bound, num_frames_);
  std::vector<Take> takes;
  std::uint64_t remaining = frames;
  for (auto it = free_runs_.begin();
       it != free_runs_.end() && it->first < limit && remaining > 0; ++it) {
    const std::uint64_t avail = std::min(it->second, limit - it->first);
    const std::uint64_t take = std::min(avail, remaining);
    takes.push_back(Take{it->first, it->first, take});
    remaining -= take;
  }
  if (remaining > 0) {
    return OutOfMemoryError("need " + std::to_string(frames) +
                            " frames below " + std::to_string(bound) +
                            ", short by " + std::to_string(remaining));
  }
  std::vector<FrameRun> runs;
  runs.reserve(takes.size());
  for (const Take& t : takes) {
    CarveFreeRun(t.run_start, t.start, t.count);
    runs.push_back(FrameRun{t.start, t.count});
  }
  return runs;
}

StatusOr<std::vector<FrameRun>> FrameAllocator::Allocate(
    const AllocRequest& request) {
  if (request.frames == 0) return std::vector<FrameRun>{};

  StatusOr<std::vector<FrameRun>> runs_or =
      request.bound.has_value() ? FitAscending(request.frames, *request.bound)
                                : NextFit(request.frames);
  if (!runs_or.ok()) return runs_or;

  if (metrics_ != nullptr) {
    metrics_->Increment("mem.alloc.requests");
    metrics_->Increment("mem.alloc.frames", request.frames);
    metrics_->Increment("mem.alloc.runs", runs_or->size());
    metrics_->SetGauge("mem.alloc.free_runs",
                       static_cast<double>(free_runs_.size()));
  }
  return runs_or;
}

Status FrameAllocator::Free(const std::vector<FrameRun>& runs) {
  // Validate everything first so a bad request leaves state untouched.
  std::uint64_t total = 0;
  for (const FrameRun& r : runs) {
    if (r.end() > num_frames_) {
      return InvalidArgumentError("frame run out of range");
    }
    if (r.count == 0) continue;
    total += r.count;
    // Any overlap with the free index is a double free.
    auto it = free_runs_.upper_bound(r.first);
    if (it != free_runs_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second > r.first) {
        return InvalidArgumentError("double free of frame");
      }
    }
    if (it != free_runs_.end() && it->first < r.end()) {
      return InvalidArgumentError("double free of frame");
    }
  }
  // Overlap within the request itself is also a double free (the bitmap
  // implementation silently corrupted its free count here).
  std::vector<FrameRun> sorted;
  sorted.reserve(runs.size());
  for (const FrameRun& r : runs) {
    if (r.count > 0) sorted.push_back(r);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const FrameRun& a, const FrameRun& b) {
              return a.first < b.first;
            });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].first < sorted[i - 1].end()) {
      return InvalidArgumentError("double free of frame");
    }
  }

  for (const FrameRun& r : sorted) InsertFreeRun(r.first, r.count);
  if (metrics_ != nullptr) {
    metrics_->Increment("mem.alloc.frees");
    metrics_->Increment("mem.alloc.freed_frames", total);
    metrics_->SetGauge("mem.alloc.free_runs",
                       static_cast<double>(free_runs_.size()));
  }
  return Status::Ok();
}

Status FrameAllocator::Resize(std::uint64_t new_num_frames) {
  if (new_num_frames >= num_frames_) {
    InsertFreeRun(num_frames_, new_num_frames - num_frames_);
    num_frames_ = new_num_frames;
    return Status::Ok();
  }
  // The tail [new_num_frames, num_frames_) must be one free piece: a run
  // covering the cut and reaching the end of the region.
  auto it = free_runs_.upper_bound(new_num_frames);
  const auto prev = it == free_runs_.begin() ? free_runs_.end() : std::prev(it);
  const bool covers_cut = prev != free_runs_.end() &&
                          prev->first + prev->second > new_num_frames;
  if (!covers_cut || prev->first + prev->second < num_frames_) {
    const FrameNumber first_live =
        covers_cut ? prev->first + prev->second : new_num_frames;
    return FailedPreconditionError("cannot shrink: frame " +
                                   std::to_string(first_live) +
                                   " still allocated");
  }
  CarveFreeRun(prev->first, new_num_frames, num_frames_ - new_num_frames);
  num_frames_ = new_num_frames;
  if (hint_ >= new_num_frames) hint_ = 0;
  return Status::Ok();
}

bool FrameAllocator::IsAllocated(FrameNumber f) const {
  if (f >= num_frames_) return false;
  auto it = free_runs_.upper_bound(f);
  if (it == free_runs_.begin()) return true;
  const auto prev = std::prev(it);
  return prev->first + prev->second <= f;
}

FrameNumber FrameAllocator::HighestAllocatedEnd() const {
  if (num_frames_ == 0) return 0;
  const auto last = free_runs_.rbegin();
  if (last == free_runs_.rend()) return num_frames_;  // fully allocated
  // When the last free run touches the end of the region the tail above
  // its start is clear; otherwise the final frame itself is live.
  return last->first + last->second == num_frames_ ? last->first : num_frames_;
}

std::uint64_t FrameAllocator::AllocatedFramesFrom(FrameNumber from) const {
  if (from >= num_frames_) return 0;
  std::uint64_t free_after = 0;
  auto it = free_runs_.upper_bound(from);
  if (it != free_runs_.begin()) {
    const auto prev = std::prev(it);
    if (prev->first + prev->second > from) {
      free_after += prev->first + prev->second - from;
    }
  }
  for (; it != free_runs_.end(); ++it) free_after += it->second;
  return (num_frames_ - from) - free_after;
}

}  // namespace lmp::mem
