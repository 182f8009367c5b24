#include "ops/btree_ops.h"

#include <memory>
#include <string>
#include <utility>

#include "common/logging.h"

namespace lmp::ops {

using workloads::PoolBtree;

BtreeOpDriver::BtreeOpDriver(OpEngine* engine, PoolBtree* tree,
                             int num_hosts, Options options)
    : engine_(engine), tree_(tree), options_(options) {
  LMP_CHECK(engine_ != nullptr && tree_ != nullptr);
  LMP_CHECK(options_.lock_stripes >= 1);
  // One 8-byte coherent cell per lock stripe, 8-byte coherence granularity
  // so stripes never false-share.
  lock_region_ = std::make_unique<core::CoherentRegion>(
      static_cast<Bytes>(options_.lock_stripes) * 8, 8, num_hosts);
  locks_.reserve(options_.lock_stripes);
  for (int i = 0; i < options_.lock_stripes; ++i) {
    locks_.push_back(std::make_unique<core::DistributedLock>(
        lock_region_.get(), static_cast<Bytes>(i) * 8));
  }
}

OpId BtreeOpDriver::SubmitGet(
    cluster::ServerId server, int core, std::uint64_t key,
    std::function<void(StatusOr<std::uint64_t>)> on_value) {
  return engine_->Submit(
      OpKind::kGet, server, core,
      [this, key, cb = std::move(on_value)](OpEngine::Op& o) {
        GetHop(o, tree_->root(), key, cb);
      });
}

void BtreeOpDriver::GetHop(
    OpEngine::Op& op, std::uint32_t node, std::uint64_t key,
    const std::function<void(StatusOr<std::uint64_t>)>& cb) {
  engine_->Read(
      op, tree_->buffer(), tree_->NodeOffset(node), PoolBtree::kNodeBytes,
      [this, node, key, cb](OpEngine::Op& o) {
        // The transfer landed: take the functional step at this simulated
        // instant (the hotness profile sees the node access now), and
        // resolve the next hop against the segment map as it is NOW — a
        // migration during the transfer changes what the next hop costs.
        auto step = tree_->DescendStep(o.server(), node, key,
                                       engine_->simulator()->now());
        if (!step.ok()) {
          engine_->Finish(o, step.status());
          return;
        }
        if (!step->leaf) {
          GetHop(o, step->child, key, cb);
          return;
        }
        if (step->found) {
          if (cb) cb(step->value);
          engine_->Finish(o);
          return;
        }
        const Status miss = NotFoundError("key " + std::to_string(key));
        if (cb) cb(miss);
        engine_->Finish(o, miss);
      });
}

OpId BtreeOpDriver::SubmitScan(
    cluster::ServerId server, int core, std::uint64_t start,
    std::size_t limit,
    std::function<
        void(const std::vector<std::pair<std::uint64_t, std::uint64_t>>&)>
        on_rows) {
  return engine_->Submit(
      OpKind::kScan, server, core,
      [this, start, limit, cb = std::move(on_rows)](OpEngine::Op& o) {
        auto rows = std::make_shared<
            std::vector<std::pair<std::uint64_t, std::uint64_t>>>();
        ScanHop(o, tree_->root(), start, limit, rows, cb);
      });
}

void BtreeOpDriver::ScanHop(
    OpEngine::Op& op, std::uint32_t node, std::uint64_t start,
    std::size_t limit, RowsPtr rows,
    const std::function<void(
        const std::vector<std::pair<std::uint64_t, std::uint64_t>>&)>& cb) {
  engine_->Read(
      op, tree_->buffer(), tree_->NodeOffset(node), PoolBtree::kNodeBytes,
      [this, node, start, limit, rows, cb](OpEngine::Op& o) {
        auto step = tree_->ScanDescendStep(o.server(), node, start,
                                           engine_->simulator()->now());
        if (!step.ok()) {
          engine_->Finish(o, step.status());
          return;
        }
        if (!step->leaf) {
          ScanHop(o, step->child, start, limit, rows, cb);
          return;
        }
        for (const auto& [k, v] : step->view.entries) {
          if (k < start) continue;
          if (rows->size() == limit) break;
          rows->emplace_back(k, v);
        }
        if (rows->size() < limit && step->view.next != PoolBtree::kNilNode) {
          ConsumeLeaf(o, step->view.next, start, limit, rows, cb);
          return;
        }
        if (cb) cb(*rows);
        engine_->Finish(o);
      });
}

void BtreeOpDriver::ConsumeLeaf(
    OpEngine::Op& op, std::uint32_t node, std::uint64_t start,
    std::size_t limit, RowsPtr rows,
    const std::function<void(
        const std::vector<std::pair<std::uint64_t, std::uint64_t>>&)>& cb) {
  engine_->Read(
      op, tree_->buffer(), tree_->NodeOffset(node), PoolBtree::kNodeBytes,
      [this, node, start, limit, rows, cb](OpEngine::Op& o) {
        auto view = tree_->ReadLeafView(o.server(), node,
                                        engine_->simulator()->now());
        if (!view.ok()) {
          engine_->Finish(o, view.status());
          return;
        }
        for (const auto& [k, v] : view->entries) {
          if (k < start) continue;
          if (rows->size() == limit) break;
          rows->emplace_back(k, v);
        }
        if (rows->size() < limit && view->next != PoolBtree::kNilNode) {
          ConsumeLeaf(o, view->next, start, limit, rows, cb);
          return;
        }
        if (cb) cb(*rows);
        engine_->Finish(o);
      });
}

OpId BtreeOpDriver::SubmitPut(cluster::ServerId server, int core,
                              std::uint64_t key, std::uint64_t value) {
  core::DistributedLock* lock = lock_for(key);
  return engine_->Submit(
      OpKind::kPut, server, core, [this, key, value, lock](OpEngine::Op& o) {
        engine_->Acquire(
            o, lock, [this, key, value, lock](OpEngine::Op& locked) {
              // Holding the stripe: re-descend from the root (the lock is
              // what keeps the recorded path valid against concurrent
              // writers).
              auto path = std::make_shared<std::vector<std::uint32_t>>();
              PutHop(locked, tree_->root(), key, value, lock, path);
            });
      });
}

void BtreeOpDriver::PutHop(OpEngine::Op& op, std::uint32_t node,
                           std::uint64_t key, std::uint64_t value,
                           core::DistributedLock* lock, PathPtr path) {
  engine_->Read(
      op, tree_->buffer(), tree_->NodeOffset(node), PoolBtree::kNodeBytes,
      [this, node, key, value, lock, path](OpEngine::Op& o) {
        path->push_back(node);
        auto step = tree_->DescendStep(o.server(), node, key,
                                       engine_->simulator()->now());
        if (!step.ok()) {
          // Finishing hands the stripe to the next queued writer.
          engine_->Finish(o, step.status());
          return;
        }
        if (!step->leaf) {
          PutHop(o, step->child, key, value, lock, path);
          return;
        }
        // Apply the mutation, then price every node it wrote as dependent
        // transfers (the write-back is itself a chain of pool accesses).
        auto written = std::make_shared<std::vector<std::uint32_t>>();
        const Status applied =
            tree_->InsertAtPath(o.server(), *path, key, value,
                                engine_->simulator()->now(), written.get());
        if (!applied.ok()) {
          engine_->Finish(o, applied);
          return;
        }
        PriceWrites(o, written, 0, lock);
      });
}

void BtreeOpDriver::PriceWrites(OpEngine::Op& op, WritesPtr written,
                                std::size_t index,
                                core::DistributedLock* lock) {
  if (index >= written->size()) {
    engine_->Release(op, lock,
                     [this](OpEngine::Op& o) { engine_->Finish(o); });
    return;
  }
  engine_->Write(op, tree_->buffer(), tree_->NodeOffset((*written)[index]),
                 PoolBtree::kNodeBytes,
                 [this, written, index, lock](OpEngine::Op& o) {
                   PriceWrites(o, written, index + 1, lock);
                 });
}

}  // namespace lmp::ops
