// ReferenceBitmap: the per-frame bitmap frame allocator that the
// run-indexed FrameAllocator replaced, kept as its executable spec.
// alloc_property_test cross-checks random op sequences against it, and
// bench_alloc races it against the run index at pool scale.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.h"
#include "mem/frame_allocator.h"

namespace lmp::mem {

// The executable spec: a per-frame bitmap with the exact semantics of the
// original FrameAllocator (next-fit scan with a wrapping hint, first-fit
// below a bound).  Frames are scanned a 64-bit word at a time, but every
// placement is the one a frame-by-frame scan makes.  Bits past
// num_frames() stay clear.
class ReferenceBitmap {
 public:
  explicit ReferenceBitmap(std::uint64_t num_frames)
      : words_(WordsFor(num_frames), 0),
        num_frames_(num_frames),
        free_frames_(num_frames) {}

  std::optional<std::vector<FrameRun>> NextFit(std::uint64_t frames) {
    if (frames == 0) return std::vector<FrameRun>{};
    if (frames > free_frames_) return std::nullopt;
    std::vector<FrameRun> runs;
    std::uint64_t remaining = frames;
    // From the hint to the end, then wrapping once over [0, hint).
    FrameNumber pos = TakeAscending(hint_, num_frames_, remaining, runs);
    if (remaining > 0) pos = TakeAscending(0, hint_, remaining, runs);
    LMP_CHECK(remaining == 0) << "free count disagreed with bitmap";
    hint_ = pos % num_frames_;
    return runs;
  }

  std::optional<std::vector<FrameRun>> FitBelow(std::uint64_t frames,
                                                FrameNumber bound) {
    if (frames == 0) return std::vector<FrameRun>{};
    const FrameNumber limit = std::min<FrameNumber>(bound, num_frames_);
    if (limit - CountUsed(0, limit) < frames) return std::nullopt;
    std::vector<FrameRun> runs;
    std::uint64_t remaining = frames;
    TakeAscending(0, limit, remaining, runs);
    return runs;
  }

  bool Free(const std::vector<FrameRun>& runs) {
    for (const FrameRun& r : runs) {
      if (r.end() > num_frames_) return false;
      if (CountUsed(r.first, r.end()) != r.count) return false;
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
      ForEachWord(r.first, r.end(), [this](std::size_t w, std::uint64_t m) {
        words_[w] &= ~m;
      });
      free_frames_ += r.count;
    }
    return true;
  }

  bool Resize(std::uint64_t new_num_frames) {
    const std::uint64_t old = num_frames_;
    if (new_num_frames < old && CountUsed(new_num_frames, old) > 0) {
      return false;
    }
    // Growing appends clear words; shrinking drops only clear bits.
    words_.resize(WordsFor(new_num_frames), 0);
    num_frames_ = new_num_frames;
    if (new_num_frames >= old) {
      free_frames_ += new_num_frames - old;
      return true;
    }
    free_frames_ -= old - new_num_frames;
    if (hint_ >= new_num_frames) hint_ = 0;
    return true;
  }

  std::uint64_t free_frames() const { return free_frames_; }
  std::uint64_t FreeRunCount() const {
    std::uint64_t runs = 0;
    for (FrameNumber f = Find(0, num_frames_, false); f < num_frames_;
         f = Find(Find(f, num_frames_, true), num_frames_, false)) {
      ++runs;
    }
    return runs;
  }
  bool IsAllocated(FrameNumber f) const {
    return f < num_frames_ && (words_[f / 64] >> (f % 64) & 1) != 0;
  }
  FrameNumber HighestAllocatedEnd() const {
    for (std::size_t w = words_.size(); w > 0; --w) {
      if (words_[w - 1] != 0) {
        return w * 64 - static_cast<FrameNumber>(
                            std::countl_zero(words_[w - 1]));
      }
    }
    return 0;
  }
  std::uint64_t AllocatedFramesFrom(FrameNumber from) const {
    return from >= num_frames_ ? 0 : CountUsed(from, num_frames_);
  }
  std::uint64_t num_frames() const { return num_frames_; }

 private:
  static std::size_t WordsFor(std::uint64_t frames) {
    return static_cast<std::size_t>((frames + 63) / 64);
  }

  // Calls fn(word index, mask) for each word that [from, end) touches,
  // the mask selecting the range's bits in that word.
  template <typename Fn>
  static void ForEachWord(FrameNumber from, FrameNumber end, Fn&& fn) {
    while (from < end) {
      const FrameNumber word_end =
          std::min<FrameNumber>(end, from / 64 * 64 + 64);
      const std::uint64_t count = word_end - from;
      const std::uint64_t bits = count == 64 ? ~0ull : (1ull << count) - 1;
      fn(static_cast<std::size_t>(from / 64), bits << (from % 64));
      from = word_end;
    }
  }

  std::uint64_t CountUsed(FrameNumber from, FrameNumber end) const {
    std::uint64_t used = 0;
    ForEachWord(from, end, [&](std::size_t w, std::uint64_t m) {
      used += static_cast<std::uint64_t>(std::popcount(words_[w] & m));
    });
    return used;
  }

  // The first frame in [from, end) that is allocated (`used`) or free
  // (`!used`), or `end` when there is none.
  FrameNumber Find(FrameNumber from, FrameNumber end, bool used) const {
    while (from < end) {
      const std::uint64_t word = used ? words_[from / 64] : ~words_[from / 64];
      const std::uint64_t hits = word & (~0ull << (from % 64));
      if (hits != 0) {
        return std::min<FrameNumber>(
            end, from / 64 * 64 +
                     static_cast<FrameNumber>(std::countr_zero(hits)));
      }
      from = from / 64 * 64 + 64;
    }
    return end;
  }

  // Grabs free frames in [from, end) in ascending order until `remaining`
  // reaches 0, appending them to `runs` (adjacent frames coalesce).
  // Returns one past the last frame grabbed, or `from` if none was.
  FrameNumber TakeAscending(FrameNumber from, FrameNumber end,
                            std::uint64_t& remaining,
                            std::vector<FrameRun>& runs) {
    FrameNumber last_end = from;
    while (remaining > 0) {
      const FrameNumber f = Find(from, end, false);
      if (f == end) break;
      // The run ends at the next allocated frame; look no further than
      // the frames still wanted.
      const std::uint64_t take =
          Find(f, std::min<FrameNumber>(end, f + remaining), true) - f;
      if (!runs.empty() && runs.back().end() == f) {
        runs.back().count += take;
      } else {
        runs.push_back(FrameRun{f, take});
      }
      ForEachWord(f, f + take, [this](std::size_t w, std::uint64_t m) {
        words_[w] |= m;
      });
      free_frames_ -= take;
      remaining -= take;
      from = last_end = f + take;
    }
    return last_end;
  }

  std::vector<std::uint64_t> words_;
  std::uint64_t num_frames_;
  std::uint64_t free_frames_;
  FrameNumber hint_ = 0;
};

}  // namespace lmp::mem
