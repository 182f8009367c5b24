// LocalFrameMap — translation step 2 (§5 "Address translation").
//
// Per-server fine-grained map from (segment, offset) to physical frames in
// that server's shared region.  Only the owning server consults it, so it
// can be as fine-grained as needed without any remote traffic — the core of
// the paper's two-step translation argument.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "core/logical_address.h"
#include "mem/frame_allocator.h"

namespace lmp::core {

struct PhysicalExtent {
  mem::FrameNumber frame = 0;  // first frame
  Bytes offset_in_frame = 0;
  Bytes length = 0;
};

class LocalFrameMap {
 public:
  explicit LocalFrameMap(Bytes frame_size) : frame_size_(frame_size) {}

  // Binds a segment to frame runs (in order).  The runs must cover `size`.
  Status Bind(SegmentId id, Bytes size, std::vector<mem::FrameRun> runs);

  Status Unbind(SegmentId id);

  bool Contains(SegmentId id) const { return map_.contains(id); }

  // Step-2 resolution: calls fn(const PhysicalExtent&) for each physical
  // extent covering [offset, offset+len) of a bound segment, in order.
  // Extents never span frame-run boundaries.  Allocates nothing.
  template <typename Fn>
  Status ForEachExtent(SegmentId id, Bytes offset, Bytes len, Fn&& fn) const;

  // Frame runs backing a segment (migration source / free on unbind).
  StatusOr<std::vector<mem::FrameRun>> RunsOf(SegmentId id) const;

  // Calls fn(id, runs) for every bound segment, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [id, binding] : map_) fn(id, binding.runs);
  }

  Bytes frame_size() const { return frame_size_; }

 private:
  struct Binding {
    Bytes size = 0;
    std::vector<mem::FrameRun> runs;
  };

  Bytes frame_size_;
  std::unordered_map<SegmentId, Binding> map_;
};

template <typename Fn>
Status LocalFrameMap::ForEachExtent(SegmentId id, Bytes offset, Bytes len,
                                    Fn&& fn) const {
  auto it = map_.find(id);
  if (it == map_.end()) return NotFoundError("segment not bound here");
  const Binding& b = it->second;
  if (offset + len > b.size) {
    return InvalidArgumentError("range exceeds segment size");
  }
  Bytes pos = offset;  // byte position within the segment
  const Bytes end = offset + len;
  Bytes run_start = 0;  // segment-relative start of the current run
  for (const mem::FrameRun& run : b.runs) {
    if (pos == end) break;
    const Bytes run_end = run_start + run.count * frame_size_;
    if (pos < run_end) {
      const Bytes within = pos - run_start;
      const Bytes take = std::min(end, run_end) - pos;
      fn(PhysicalExtent{run.first + within / frame_size_,
                        within % frame_size_, take});
      pos += take;
    }
    run_start = run_end;
  }
  if (pos != end) return InternalError("frame runs shorter than bound size");
  return Status::Ok();
}

}  // namespace lmp::core
