#include "core/local_map.h"

namespace lmp::core {

Status LocalFrameMap::Bind(SegmentId id, Bytes size,
                           std::vector<mem::FrameRun> runs) {
  if (map_.contains(id)) {
    return AlreadyExistsError("segment already bound");
  }
  Bytes covered = 0;
  for (const auto& r : runs) covered += r.count * frame_size_;
  if (covered < size) {
    return InvalidArgumentError("frame runs do not cover segment size");
  }
  map_[id] = Binding{size, std::move(runs)};
  return Status::Ok();
}

Status LocalFrameMap::Unbind(SegmentId id) {
  if (map_.erase(id) == 0) return NotFoundError("segment not bound");
  return Status::Ok();
}

StatusOr<std::vector<mem::FrameRun>> LocalFrameMap::RunsOf(
    SegmentId id) const {
  auto it = map_.find(id);
  if (it == map_.end()) return NotFoundError("segment not bound here");
  return it->second.runs;
}

}  // namespace lmp::core
