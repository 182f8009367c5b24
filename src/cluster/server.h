// Server and PoolDevice: the memory-owning nodes of a deployment.
//
// A Server partitions its DRAM into a private region (OS, process state —
// never pooled) and a shared region that contributes to the logical pool
// (§3.2).  The split is a software knob: ResizeShared() is the mechanism
// behind the paper's "memory flexibility" benefit (§4.5) and is driven at
// runtime by the sizing policy.  A PoolDevice is the physical-pool box: all
// of its memory is pool memory and the ratio is fixed at deployment time —
// exactly the rigidity the paper argues against.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "common/status.h"
#include "common/units.h"
#include "mem/backing_store.h"
#include "mem/frame_allocator.h"

namespace lmp::cluster {

using ServerId = std::uint32_t;

class Server {
 public:
  // `with_backing` materialises real bytes for the shared region (functional
  // tests); timing-only experiments pass false and use pure accounting.
  Server(ServerId id, Bytes total_memory, Bytes shared_memory, int cores,
         Bytes frame_size, bool with_backing);

  ServerId id() const { return id_; }
  int cores() const { return cores_; }
  Bytes total_memory() const { return total_memory_; }
  Bytes shared_bytes() const {
    return shared_alloc_.num_frames() * frame_size_;
  }
  Bytes private_bytes() const { return total_memory_ - shared_bytes(); }
  Bytes frame_size() const { return frame_size_; }

  mem::FrameAllocator& shared_allocator() { return shared_alloc_; }
  const mem::FrameAllocator& shared_allocator() const { return shared_alloc_; }

  bool has_backing() const { return backing_ != nullptr; }
  mem::BackingStore& backing() {
    LMP_CHECK(backing_ != nullptr) << "server has no backing store";
    return *backing_;
  }

  // Adjusts the private/shared split.  Growing succeeds as long as the new
  // shared size fits in total memory; shrinking requires the reclaimed
  // frames to be free (the sizing policy must migrate data out first).
  Status ResizeShared(Bytes new_shared_bytes);

  // Crash / recovery (challenge 5, "Failure domains").  Both report state
  // errors instead of silently re-applying: a double crash (or a recovery
  // of a live host) is a fault-plan bug the chaos layer wants surfaced.
  bool crashed() const { return crashed_; }
  Status Crash();
  Status Recover();

 private:
  ServerId id_;
  Bytes total_memory_;
  Bytes frame_size_;
  int cores_;
  mem::FrameAllocator shared_alloc_;
  std::unique_ptr<mem::BackingStore> backing_;
  bool crashed_ = false;
};

class PoolDevice {
 public:
  PoolDevice(Bytes capacity, Bytes frame_size, bool with_backing);

  Bytes capacity() const { return alloc_.capacity_bytes(); }
  mem::FrameAllocator& allocator() { return alloc_; }
  const mem::FrameAllocator& allocator() const { return alloc_; }

  bool has_backing() const { return backing_ != nullptr; }
  mem::BackingStore& backing() {
    LMP_CHECK(backing_ != nullptr) << "pool has no backing store";
    return *backing_;
  }

 private:
  mem::FrameAllocator alloc_;
  std::unique_ptr<mem::BackingStore> backing_;
};

}  // namespace lmp::cluster
