#include "cluster/server.h"

#include "common/logging.h"

namespace lmp::cluster {

Server::Server(ServerId id, Bytes total_memory, Bytes shared_memory,
               int cores, Bytes frame_size, bool with_backing)
    : id_(id),
      total_memory_(total_memory),
      frame_size_(frame_size),
      cores_(cores),
      shared_alloc_(mem::FramesForBytes(shared_memory, frame_size),
                    frame_size) {
  LMP_CHECK(shared_memory <= total_memory)
      << "shared region cannot exceed server DRAM";
  LMP_CHECK(cores > 0);
  if (with_backing) {
    backing_ = std::make_unique<mem::BackingStore>(
        shared_alloc_.num_frames(), frame_size);
  }
}

Status Server::ResizeShared(Bytes new_shared_bytes) {
  if (new_shared_bytes > total_memory_) {
    return InvalidArgumentError("shared region larger than server DRAM");
  }
  const std::uint64_t frames =
      mem::FramesForBytes(new_shared_bytes, frame_size_);
  LMP_RETURN_IF_ERROR(shared_alloc_.Resize(frames));
  if (backing_ != nullptr) backing_->EnsureFrames(frames);
  return Status::Ok();
}

Status Server::Crash() {
  if (crashed_) return FailedPreconditionError("server already crashed");
  crashed_ = true;
  return Status::Ok();
}

Status Server::Recover() {
  if (!crashed_) return FailedPreconditionError("server is not crashed");
  // A recovered host rejoins with its shared region empty: all frames are
  // re-usable but prior contents are gone (the replication / erasure layer
  // is responsible for restoring data).
  crashed_ = false;
  const std::uint64_t frames = shared_alloc_.num_frames();
  shared_alloc_ = mem::FrameAllocator(frames, frame_size_);
  if (backing_ != nullptr) {
    backing_ = std::make_unique<mem::BackingStore>(frames, frame_size_);
  }
  return Status::Ok();
}

PoolDevice::PoolDevice(Bytes capacity, Bytes frame_size, bool with_backing)
    : alloc_(mem::FramesForBytes(capacity, frame_size), frame_size) {
  if (with_backing) {
    backing_ =
        std::make_unique<mem::BackingStore>(alloc_.num_frames(), frame_size);
  }
}

}  // namespace lmp::cluster
