#include "core/coherent_region.h"

#include "common/logging.h"

namespace lmp::core {

CoherentRegion::CoherentRegion(Bytes size, Bytes granularity, int num_hosts)
    : num_hosts_(num_hosts),
      directory_(size, granularity, num_hosts),
      data_(size / sizeof(std::uint64_t), 0) {
  LMP_CHECK(size % sizeof(std::uint64_t) == 0);
}

Status CoherentRegion::CheckCell(Bytes offset) const {
  if (offset % sizeof(std::uint64_t) != 0) {
    return InvalidArgumentError("cell offset must be 8-aligned");
  }
  if (offset + sizeof(std::uint64_t) > size()) {
    return InvalidArgumentError("cell beyond coherent region");
  }
  return Status::Ok();
}

StatusOr<std::uint64_t> CoherentRegion::Load(int host, Bytes offset) {
  LMP_RETURN_IF_ERROR(CheckCell(offset));
  LMP_ASSIGN_OR_RETURN(int msgs, directory_.AcquireShared(
                                     host, offset, sizeof(std::uint64_t)));
  (void)msgs;
  return data_[offset / sizeof(std::uint64_t)];
}

Status CoherentRegion::Store(int host, Bytes offset, std::uint64_t value) {
  LMP_RETURN_IF_ERROR(CheckCell(offset));
  LMP_ASSIGN_OR_RETURN(int msgs, directory_.AcquireExclusive(
                                     host, offset, sizeof(std::uint64_t)));
  (void)msgs;
  data_[offset / sizeof(std::uint64_t)] = value;
  return Status::Ok();
}

StatusOr<std::uint64_t> CoherentRegion::FetchAdd(int host, Bytes offset,
                                                 std::uint64_t delta) {
  LMP_RETURN_IF_ERROR(CheckCell(offset));
  LMP_ASSIGN_OR_RETURN(int msgs, directory_.AcquireExclusive(
                                     host, offset, sizeof(std::uint64_t)));
  (void)msgs;
  std::uint64_t& cell = data_[offset / sizeof(std::uint64_t)];
  const std::uint64_t prev = cell;
  cell += delta;
  return prev;
}

StatusOr<std::uint64_t> CoherentRegion::CompareExchange(
    int host, Bytes offset, std::uint64_t expected, std::uint64_t desired,
    bool* exchanged) {
  LMP_RETURN_IF_ERROR(CheckCell(offset));
  LMP_ASSIGN_OR_RETURN(int msgs, directory_.AcquireExclusive(
                                     host, offset, sizeof(std::uint64_t)));
  (void)msgs;
  std::uint64_t& cell = data_[offset / sizeof(std::uint64_t)];
  const std::uint64_t prev = cell;
  const bool ok = (prev == expected);
  if (ok) cell = desired;
  if (exchanged != nullptr) *exchanged = ok;
  return prev;
}

DistributedLock::DistributedLock(CoherentRegion* region, Bytes cell_offset)
    : region_(region), offset_(cell_offset) {
  LMP_CHECK(region != nullptr);
}

StatusOr<bool> DistributedLock::TryLock(int host) {
  // Test (shared read) ...
  LMP_ASSIGN_OR_RETURN(std::uint64_t cur, region_->Load(host, offset_));
  if (cur != 0) {
    ++failed_attempts_;
    return false;
  }
  // ... and test-and-set (exclusive CAS).  Encode holder as host+1.
  bool exchanged = false;
  LMP_ASSIGN_OR_RETURN(
      std::uint64_t prev,
      region_->CompareExchange(host, offset_, 0,
                               static_cast<std::uint64_t>(host) + 1,
                               &exchanged));
  (void)prev;
  if (!exchanged) {
    ++failed_attempts_;
    return false;
  }
  holder_ = host;
  ++acquisitions_;
  return true;
}

DistributedLock::Ticket DistributedLock::Enqueue(int host,
                                                 GrantFn on_grant) {
  LMP_CHECK(IsHeld()) << "enqueue on a free lock; TryLock first";
  const Ticket ticket = next_ticket_++;
  waiters_.push_back(Waiter{ticket, host, std::move(on_grant)});
  return ticket;
}

void DistributedLock::Leave(Ticket ticket) {
  std::erase_if(waiters_,
                [ticket](const Waiter& w) { return w.ticket == ticket; });
}

Status DistributedLock::Unlock(int host) {
  LMP_ASSIGN_OR_RETURN(std::uint64_t cur, region_->Load(host, offset_));
  if (cur != static_cast<std::uint64_t>(host) + 1) {
    return FailedPreconditionError("unlock by non-holder");
  }
  if (waiters_.empty()) {
    LMP_RETURN_IF_ERROR(region_->Store(host, offset_, 0));
    holder_ = -1;
    return Status::Ok();
  }
  // Hand-off: the releaser writes the successor into the cell and the
  // successor's load observes it, so the directory sees the transfer.
  Waiter next = std::move(waiters_.front());
  waiters_.pop_front();
  LMP_RETURN_IF_ERROR(region_->Store(
      host, offset_, static_cast<std::uint64_t>(next.host) + 1));
  LMP_ASSIGN_OR_RETURN(std::uint64_t seen, region_->Load(next.host, offset_));
  (void)seen;
  holder_ = next.host;
  ++acquisitions_;
  next.on_grant();
  return Status::Ok();
}

CoherentBarrier::CoherentBarrier(CoherentRegion* region, Bytes cells_offset,
                                 int participants)
    : region_(region),
      count_offset_(cells_offset),
      gen_offset_(cells_offset + sizeof(std::uint64_t)),
      participants_(participants) {
  LMP_CHECK(region != nullptr);
  LMP_CHECK(participants > 0);
}

StatusOr<bool> CoherentBarrier::Arrive(int host) {
  LMP_ASSIGN_OR_RETURN(std::uint64_t prev,
                       region_->FetchAdd(host, count_offset_, 1));
  if (prev + 1 == static_cast<std::uint64_t>(participants_)) {
    // Last arrival: reset the count and bump the generation.
    LMP_RETURN_IF_ERROR(region_->Store(host, count_offset_, 0));
    LMP_ASSIGN_OR_RETURN(std::uint64_t gen,
                         region_->FetchAdd(host, gen_offset_, 1));
    (void)gen;
    return true;
  }
  return false;
}

StatusOr<std::uint64_t> CoherentBarrier::Generation(int host) {
  return region_->Load(host, gen_offset_);
}

}  // namespace lmp::core
