// ReferenceBitmap: the per-frame bitmap frame allocator that the
// run-indexed FrameAllocator replaced, kept as its executable spec.
// alloc_property_test cross-checks random op sequences against it, and
// bench_alloc races it against the run index at pool scale.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.h"
#include "mem/frame_allocator.h"

namespace lmp::mem {

// The executable spec: a per-frame bitmap with the exact semantics of the
// original FrameAllocator (next-fit scan with a wrapping hint, first-fit
// below a bound) plus per-frame models of the cohort policies (first-fit
// ascending for mobile, descending-from-the-top for pinned).
class ReferenceBitmap {
 public:
  explicit ReferenceBitmap(std::uint64_t num_frames)
      : bitmap_(num_frames, false), free_frames_(num_frames) {}

  std::optional<std::vector<FrameRun>> NextFit(std::uint64_t frames) {
    if (frames == 0) return std::vector<FrameRun>{};
    if (frames > free_frames_) return std::nullopt;
    std::vector<FrameRun> runs;
    std::uint64_t remaining = frames;
    const std::uint64_t n = bitmap_.size();
    std::uint64_t scanned = 0;
    FrameNumber pos = hint_;
    while (remaining > 0 && scanned < n) {
      if (!bitmap_[pos]) {
        Grab(runs, pos);
        --remaining;
      }
      pos = (pos + 1) % n;
      ++scanned;
    }
    LMP_CHECK(remaining == 0) << "free count disagreed with bitmap";
    hint_ = pos;
    return runs;
  }

  std::optional<std::vector<FrameRun>> FitBelow(std::uint64_t frames,
                                                FrameNumber bound) {
    if (frames == 0) return std::vector<FrameRun>{};
    const FrameNumber limit = std::min<FrameNumber>(bound, bitmap_.size());
    std::uint64_t below = 0;
    for (FrameNumber f = 0; f < limit; ++f) below += bitmap_[f] ? 0 : 1;
    if (below < frames) return std::nullopt;
    std::vector<FrameRun> runs;
    std::uint64_t remaining = frames;
    for (FrameNumber pos = 0; pos < limit && remaining > 0; ++pos) {
      if (bitmap_[pos]) continue;
      Grab(runs, pos);
      --remaining;
    }
    return runs;
  }

  // Mobile-cohort model: the lowest `frames` free frames.
  std::optional<std::vector<FrameRun>> FitLow(std::uint64_t frames) {
    return FitBelow(frames, bitmap_.size());
  }

  // Pinned-cohort model: the highest `frames` free frames, taken in
  // descending order (runs coalesce downward).
  std::optional<std::vector<FrameRun>> FitHigh(std::uint64_t frames) {
    if (frames == 0) return std::vector<FrameRun>{};
    if (frames > free_frames_) return std::nullopt;
    std::vector<FrameRun> runs;
    std::uint64_t remaining = frames;
    for (FrameNumber pos = bitmap_.size(); pos > 0 && remaining > 0; --pos) {
      const FrameNumber f = pos - 1;
      if (bitmap_[f]) continue;
      if (!runs.empty() && runs.back().first == f + 1) {
        --runs.back().first;
        ++runs.back().count;
      } else {
        runs.push_back(FrameRun{f, 1});
      }
      bitmap_[f] = true;
      --free_frames_;
      --remaining;
    }
    return runs;
  }

  bool Free(const std::vector<FrameRun>& runs) {
    for (const FrameRun& r : runs) {
      if (r.end() > bitmap_.size()) return false;
      for (FrameNumber f = r.first; f < r.end(); ++f) {
        if (!bitmap_[f]) return false;
      }
    }
    // Overlap within the request: count frames twice.
    std::vector<FrameRun> sorted = runs;
    std::sort(sorted.begin(), sorted.end(),
              [](const FrameRun& a, const FrameRun& b) {
                return a.first < b.first;
              });
    for (std::size_t i = 1; i < sorted.size(); ++i) {
      if (sorted[i].count > 0 && sorted[i - 1].count > 0 &&
          sorted[i].first < sorted[i - 1].end()) {
        return false;
      }
    }
    for (const FrameRun& r : runs) {
      for (FrameNumber f = r.first; f < r.end(); ++f) {
        bitmap_[f] = false;
        ++free_frames_;
      }
    }
    return true;
  }

  bool Resize(std::uint64_t new_num_frames) {
    const std::uint64_t old = bitmap_.size();
    if (new_num_frames >= old) {
      bitmap_.resize(new_num_frames, false);
      free_frames_ += new_num_frames - old;
      return true;
    }
    for (FrameNumber f = new_num_frames; f < old; ++f) {
      if (bitmap_[f]) return false;
    }
    bitmap_.resize(new_num_frames);
    free_frames_ -= old - new_num_frames;
    if (hint_ >= new_num_frames) hint_ = 0;
    return true;
  }

  std::uint64_t free_frames() const { return free_frames_; }
  std::uint64_t FreeRunCount() const {
    std::uint64_t runs = 0;
    bool in_run = false;
    for (std::size_t f = 0; f < bitmap_.size(); ++f) {
      if (!bitmap_[f] && !in_run) ++runs;
      in_run = !bitmap_[f];
    }
    return runs;
  }
  bool IsAllocated(FrameNumber f) const {
    return f < bitmap_.size() && bitmap_[f];
  }
  FrameNumber HighestAllocatedEnd() const {
    for (FrameNumber f = bitmap_.size(); f > 0; --f) {
      if (bitmap_[f - 1]) return f;
    }
    return 0;
  }
  std::uint64_t AllocatedFramesFrom(FrameNumber from) const {
    std::uint64_t count = 0;
    for (FrameNumber f = from; f < bitmap_.size(); ++f) {
      if (bitmap_[f]) ++count;
    }
    return count;
  }
  std::uint64_t num_frames() const { return bitmap_.size(); }

 private:
  void Grab(std::vector<FrameRun>& runs, FrameNumber pos) {
    if (!runs.empty() && runs.back().end() == pos) {
      ++runs.back().count;
    } else {
      runs.push_back(FrameRun{pos, 1});
    }
    bitmap_[pos] = true;
    --free_frames_;
  }

  std::vector<bool> bitmap_;
  std::uint64_t free_frames_;
  FrameNumber hint_ = 0;
};

}  // namespace lmp::mem
