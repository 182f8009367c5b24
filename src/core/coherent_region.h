// CoherentRegion: the small coherent slice of the pool plus the
// coordination primitives the paper says it exists for (§3.2: "a few GBs of
// coherent memory that can be used for coordination and synchronization").
//
// The region holds real bytes; every load/store goes through the
// CoherenceDirectory so tests and benches observe true MSI traffic.  On top
// of the raw cells sit a queued hand-off lock, a sense-reversing barrier,
// and a fetch-add counter — the NUMA-aware-coordination building blocks §5
// points at.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "core/coherence.h"

namespace lmp::core {

class CoherentRegion {
 public:
  CoherentRegion(Bytes size, Bytes granularity, int num_hosts,
                 DirectoryOptions options = {});

  CoherenceDirectory& directory() { return directory_; }
  const CoherenceDirectory& directory() const { return directory_; }
  Bytes size() const { return data_.size() * sizeof(std::uint64_t); }
  int num_hosts() const { return num_hosts_; }

  // 8-byte cell accessors; offset must be 8-aligned and in range.
  StatusOr<std::uint64_t> Load(int host, Bytes offset);
  Status Store(int host, Bytes offset, std::uint64_t value);
  StatusOr<std::uint64_t> FetchAdd(int host, Bytes offset,
                                   std::uint64_t delta);
  // Atomic compare-and-swap; returns the previous value.
  StatusOr<std::uint64_t> CompareExchange(int host, Bytes offset,
                                          std::uint64_t expected,
                                          std::uint64_t desired,
                                          bool* exchanged);

 private:
  Status CheckCell(Bytes offset) const;

  int num_hosts_;
  CoherenceDirectory directory_;
  std::vector<std::uint64_t> data_;
};

// Test-and-test-and-set lock on one coherent cell, with a FIFO of waiters.
// Callers are logical hosts interleaved by the (single-threaded) harness.
// A host that finds the lock held may Enqueue instead of retrying; every
// Unlock then hands the cell straight to the head waiter — the releaser's
// store names the successor and the successor's load observes it, both
// through the directory — and runs that waiter's grant callback.  So the
// lock is never free while anyone waits, and waiters are served in
// arrival order.
class DistributedLock {
 public:
  using Ticket = std::uint64_t;
  using GrantFn = std::function<void()>;

  DistributedLock(CoherentRegion* region, Bytes cell_offset);

  StatusOr<bool> TryLock(int host);
  // Queues `host` behind the current holder; the lock must be held.  When
  // an Unlock hands it the lock, `on_grant` runs inside that Unlock with
  // `host` already the holder.  The ticket names the waiter for Leave.
  Ticket Enqueue(int host, GrantFn on_grant);
  // Removes a queued waiter without running its callback; a no-op once
  // the ticket is no longer queued (granted or already left).
  void Leave(Ticket ticket);
  // Releases the lock, or hands it to the head waiter.
  Status Unlock(int host);
  bool IsHeld() const { return holder_ >= 0; }
  int holder() const { return holder_; }
  std::size_t waiters() const { return waiters_.size(); }

  // Hand-offs count as acquisitions.
  std::uint64_t acquisitions() const { return acquisitions_; }
  std::uint64_t failed_attempts() const { return failed_attempts_; }

 private:
  struct Waiter {
    Ticket ticket;
    int host;
    GrantFn on_grant;
  };

  CoherentRegion* region_;
  Bytes offset_;
  int holder_ = -1;  // mirror for assertions; truth lives in the region
  std::deque<Waiter> waiters_;
  Ticket next_ticket_ = 1;
  std::uint64_t acquisitions_ = 0;
  std::uint64_t failed_attempts_ = 0;
};

// Sense-reversing barrier over two coherent cells (count, generation).
class CoherentBarrier {
 public:
  CoherentBarrier(CoherentRegion* region, Bytes cells_offset,
                  int participants);

  // Returns true for the arrival that releases the barrier.
  StatusOr<bool> Arrive(int host);
  StatusOr<std::uint64_t> Generation(int host);

 private:
  CoherentRegion* region_;
  Bytes count_offset_;
  Bytes gen_offset_;
  int participants_;
};

}  // namespace lmp::core
