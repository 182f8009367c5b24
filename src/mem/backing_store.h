// BackingStore: real memory behind the functional layer.
//
// The pool manager operates on real bytes — reads, writes, and migrations
// actually move data, so correctness (address-stable migration, coherence,
// recovery) is testable.  The store is sparse: it keeps one owning pointer
// per frame, and only frames that hold data own memory.  An absent frame
// reads as zeros; the first write (or mutable Frame()) materializes it, and
// copying an absent frame releases the destination.  A never-written
// region therefore costs 8 bytes per frame, not a frame of zeros.
// Benchmarks that sweep paper-scale capacities (96 GB) still run the timing
// layer against frame *accounting* only and create no BackingStore
// (`with_backing = false`), so they skip even the per-frame pointer table.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/units.h"
#include "mem/frame_allocator.h"

namespace lmp::mem {

class BackingStore {
 public:
  BackingStore(std::uint64_t num_frames, Bytes frame_size)
      : frame_size_(frame_size),
        frames_(num_frames),
        zeros_(static_cast<std::byte*>(std::calloc(frame_size, 1))) {
    LMP_CHECK(frame_size > 0);
    LMP_CHECK(zeros_ != nullptr);
  }

  std::uint64_t num_frames() const { return frames_.size(); }
  Bytes frame_size() const { return frame_size_; }
  // Frames that currently own memory (observability and tests).
  std::uint64_t resident_frames() const { return resident_; }

  // Materializes an absent frame (zeroed) so the caller may write it.
  std::span<std::byte> Frame(FrameNumber f) {
    LMP_CHECK(f < num_frames());
    return std::span<std::byte>(Materialize(f), frame_size_);
  }
  // Never allocates: an absent frame reads as zeros.
  std::span<const std::byte> Frame(FrameNumber f) const {
    LMP_CHECK(f < num_frames());
    const std::byte* p = frames_[f] ? frames_[f].get() : zeros_.get();
    return std::span<const std::byte>(p, frame_size_);
  }

  // Byte-addressed accessors; [offset, offset+len) may span frames.  Read
  // never allocates.  Write skips chunks of zeros aimed at absent frames,
  // which already read as zeros.
  void Read(Bytes offset, std::span<std::byte> out) const {
    LMP_CHECK(offset + out.size() <= num_frames() * frame_size_);
    for (Bytes done = 0; done < out.size();) {
      const FrameNumber f = (offset + done) / frame_size_;
      const Bytes in_frame = (offset + done) % frame_size_;
      const Bytes take = std::min(frame_size_ - in_frame, out.size() - done);
      std::memcpy(out.data() + done, Frame(f).data() + in_frame, take);
      done += take;
    }
  }
  void Write(Bytes offset, std::span<const std::byte> in) {
    LMP_CHECK(offset + in.size() <= num_frames() * frame_size_);
    for (Bytes done = 0; done < in.size();) {
      const FrameNumber f = (offset + done) / frame_size_;
      const Bytes in_frame = (offset + done) % frame_size_;
      const Bytes take = std::min(frame_size_ - in_frame, in.size() - done);
      const auto chunk = in.subspan(done, take);
      if (frames_[f] || !AllZero(chunk)) {
        std::memcpy(Materialize(f) + in_frame, chunk.data(), take);
      }
      done += take;
    }
  }

  // Copies frame `from` of `src` over frame `to` of this store.  Copying an
  // absent frame releases the destination instead of writing zeros.
  void CopyFrame(const BackingStore& src, FrameNumber from, FrameNumber to) {
    LMP_CHECK(from < src.num_frames() && to < num_frames());
    LMP_CHECK(src.frame_size_ == frame_size_);
    if (&src == this && from == to) return;
    const std::byte* s = src.frames_[from].get();
    if (s == nullptr) {
      if (frames_[to]) {
        frames_[to].reset();
        --resident_;
      }
      return;
    }
    if (!frames_[to]) {
      frames_[to] = std::make_unique_for_overwrite<std::byte[]>(frame_size_);
      ++resident_;
    }
    std::memcpy(frames_[to].get(), s, frame_size_);
  }

  // Drops the memory of frames [first, first + count), which read as zeros
  // again.  Called wherever the allocator takes frames back, so a freed
  // frame's bytes never reach its next owner.
  void Release(FrameNumber first, std::uint64_t count) {
    LMP_CHECK(first + count <= num_frames());
    for (FrameNumber f = first; f < first + count; ++f) {
      if (frames_[f]) {
        frames_[f].reset();
        --resident_;
      }
    }
  }

  // Grow to match a resized FrameAllocator.  Only the pointer table grows;
  // frames never move, so outstanding spans stay valid.  Never shrinks (the
  // allocator guarantees the shrunk tail holds no live data).
  void EnsureFrames(std::uint64_t num_frames) {
    if (num_frames > frames_.size()) frames_.resize(num_frames);
  }

 private:
  struct FreeDeleter {
    void operator()(std::byte* p) const { std::free(p); }
  };

  static bool AllZero(std::span<const std::byte> bytes) {
    for (std::byte b : bytes) {
      if (b != std::byte{0}) return false;
    }
    return true;
  }

  std::byte* Materialize(FrameNumber f) {
    if (!frames_[f]) {
      frames_[f] = std::make_unique<std::byte[]>(frame_size_);
      ++resident_;
    }
    return frames_[f].get();
  }

  Bytes frame_size_;
  std::vector<std::unique_ptr<std::byte[]>> frames_;
  // One shared frame of zeros that the const accessors hand out for absent
  // frames.  calloc leaves large frames' pages untouched until read.
  std::unique_ptr<std::byte, FreeDeleter> zeros_;
  std::uint64_t resident_ = 0;
};

}  // namespace lmp::mem
