#include "ops/btree_ops.h"

#include <memory>
#include <string>
#include <utility>

#include "common/logging.h"

namespace lmp::ops {

using workloads::PoolBtree;

BtreeOpDriver::BtreeOpDriver(OpEngine* engine, PoolBtree* tree,
                             int num_hosts)
    : engine_(engine), tree_(tree) {
  LMP_CHECK(engine_ != nullptr && tree_ != nullptr);
  // One 8-byte coherent cell per lock stripe, 8-byte coherence granularity
  // so stripes never false-share.
  lock_region_ = std::make_unique<core::CoherentRegion>(
      static_cast<Bytes>(kLockStripes) * 8, 8, num_hosts);
  locks_.reserve(kLockStripes);
  for (int i = 0; i < kLockStripes; ++i) {
    locks_.push_back(std::make_unique<core::DistributedLock>(
        lock_region_.get(), static_cast<Bytes>(i) * 8));
  }
}

void BtreeOpDriver::State::Release() {
  on_value = nullptr;
  on_rows = nullptr;
  rows.clear();
  path.clear();
  written.clear();
  next_write = 0;
  driver->free_.push_back(this);
}

BtreeOpDriver::State* BtreeOpDriver::NewState() {
  if (free_.empty()) {
    states_.push_back(std::make_unique<State>());
    states_.back()->driver = this;
    return states_.back().get();
  }
  State* s = free_.back();
  free_.pop_back();
  return s;
}

OpId BtreeOpDriver::SubmitGet(
    cluster::ServerId server, int core, std::uint64_t key,
    std::function<void(StatusOr<std::uint64_t>)> on_value) {
  State* s = NewState();
  s->key = key;
  s->on_value = std::move(on_value);
  return engine_->Submit(
      OpKind::kGet, server, core,
      [this, s](OpEngine::Op& o) {
        s->node = tree_->root();  // the root as the first hop finds it
        GetHop(o, s);
      },
      s);
}

void BtreeOpDriver::GetHop(OpEngine::Op& op, State* s) {
  engine_->Read(
      op, tree_->buffer(), tree_->NodeOffset(s->node), PoolBtree::kNodeBytes,
      [this, s](OpEngine::Op& o) {
        // The transfer landed: take the functional step at this simulated
        // instant (the hotness profile sees the node access now), and
        // resolve the next hop against the segment map as it is NOW — a
        // migration during the transfer changes what the next hop costs.
        auto step = tree_->DescendStep(o.server(), s->node, s->key,
                                       engine_->simulator()->now());
        if (!step.ok()) {
          engine_->Finish(o, step.status());
          return;
        }
        if (!step->leaf) {
          s->node = step->child;
          GetHop(o, s);
          return;
        }
        if (step->found) {
          if (s->on_value) s->on_value(step->value);
          engine_->Finish(o);
          return;
        }
        const Status miss = NotFoundError("key " + std::to_string(s->key));
        if (s->on_value) s->on_value(miss);
        engine_->Finish(o, miss);
      });
}

OpId BtreeOpDriver::SubmitScan(
    cluster::ServerId server, int core, std::uint64_t start,
    std::size_t limit,
    std::function<
        void(const std::vector<std::pair<std::uint64_t, std::uint64_t>>&)>
        on_rows) {
  State* s = NewState();
  s->key = start;
  s->limit = limit;
  s->on_rows = std::move(on_rows);
  return engine_->Submit(
      OpKind::kScan, server, core,
      [this, s](OpEngine::Op& o) {
        s->node = tree_->root();  // the root as the first hop finds it
        ScanHop(o, s);
      },
      s);
}

void BtreeOpDriver::ScanHop(OpEngine::Op& op, State* s) {
  engine_->Read(
      op, tree_->buffer(), tree_->NodeOffset(s->node), PoolBtree::kNodeBytes,
      [this, s](OpEngine::Op& o) {
        auto step = tree_->ScanDescendStep(o.server(), s->node, s->key,
                                           s->limit, &s->rows,
                                           engine_->simulator()->now());
        if (!step.ok()) {
          engine_->Finish(o, step.status());
          return;
        }
        if (!step->leaf) {
          s->node = step->child;
          ScanHop(o, s);
          return;
        }
        ScanOn(o, s, step->next);
      });
}

void BtreeOpDriver::ConsumeLeaf(OpEngine::Op& op, State* s) {
  engine_->Read(
      op, tree_->buffer(), tree_->NodeOffset(s->node), PoolBtree::kNodeBytes,
      [this, s](OpEngine::Op& o) {
        auto next = tree_->ReadLeafRows(o.server(), s->node, s->key, s->limit,
                                        &s->rows, engine_->simulator()->now());
        if (!next.ok()) {
          engine_->Finish(o, next.status());
          return;
        }
        ScanOn(o, s, *next);
      });
}

void BtreeOpDriver::ScanOn(OpEngine::Op& op, State* s, std::uint32_t next) {
  if (s->rows.size() < s->limit && next != PoolBtree::kNilNode) {
    s->node = next;
    ConsumeLeaf(op, s);
    return;
  }
  if (s->on_rows) s->on_rows(s->rows);
  engine_->Finish(op);
}

OpId BtreeOpDriver::SubmitPut(cluster::ServerId server, int core,
                              std::uint64_t key, std::uint64_t value) {
  State* s = NewState();
  s->key = key;
  s->value = value;
  s->lock = lock_for(key);
  return engine_->Submit(
      OpKind::kPut, server, core,
      [this, s](OpEngine::Op& o) {
        engine_->Acquire(o, s->lock, [this, s](OpEngine::Op& locked) {
          // Holding the stripe: re-descend from the root (the lock is what
          // keeps the recorded path valid against concurrent writers).
          s->node = tree_->root();
          PutHop(locked, s);
        });
      },
      s);
}

void BtreeOpDriver::PutHop(OpEngine::Op& op, State* s) {
  engine_->Read(
      op, tree_->buffer(), tree_->NodeOffset(s->node), PoolBtree::kNodeBytes,
      [this, s](OpEngine::Op& o) {
        s->path.push_back(s->node);
        auto step = tree_->DescendStep(o.server(), s->node, s->key,
                                       engine_->simulator()->now());
        if (!step.ok()) {
          // Finishing hands the stripe to the next queued writer.
          engine_->Finish(o, step.status());
          return;
        }
        if (!step->leaf) {
          s->node = step->child;
          PutHop(o, s);
          return;
        }
        // Apply the mutation, then price every node it wrote as dependent
        // transfers (the write-back is itself a chain of pool accesses).
        const Status applied =
            tree_->InsertAtPath(o.server(), s->path, s->key, s->value,
                                engine_->simulator()->now(), &s->written);
        if (!applied.ok()) {
          engine_->Finish(o, applied);
          return;
        }
        PriceWrites(o, s);
      });
}

void BtreeOpDriver::PriceWrites(OpEngine::Op& op, State* s) {
  if (s->next_write >= s->written.size()) {
    engine_->Release(op, s->lock,
                     [this](OpEngine::Op& o) { engine_->Finish(o); });
    return;
  }
  engine_->Write(op, tree_->buffer(),
                 tree_->NodeOffset(s->written[s->next_write]),
                 PoolBtree::kNodeBytes, [this, s](OpEngine::Op& o) {
                   ++s->next_write;
                   PriceWrites(o, s);
                 });
}

}  // namespace lmp::ops
