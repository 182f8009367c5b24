// Property/fuzz tests for the run-indexed FrameAllocator: random
// Allocate/Free/Resize/bounded-allocation sequences are cross-checked
// against a reference bitmap model (the pre-run-index implementation's
// semantics, kept in support/reference_bitmap.h as the executable spec).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "mem/frame_allocator.h"
#include "support/reference_bitmap.h"

namespace lmp::mem {
namespace {

void CheckAgreement(const FrameAllocator& alloc, const ReferenceBitmap& model,
                    Rng& rng) {
  ASSERT_EQ(alloc.num_frames(), model.num_frames());
  ASSERT_EQ(alloc.free_frames(), model.free_frames());
  ASSERT_EQ(alloc.HighestAllocatedEnd(), model.HighestAllocatedEnd());
  const FrameNumber probe =
      model.num_frames() == 0 ? 0 : rng.NextBounded(model.num_frames() + 4);
  ASSERT_EQ(alloc.IsAllocated(probe), model.IsAllocated(probe));
  ASSERT_EQ(alloc.AllocatedFramesFrom(probe),
            model.AllocatedFramesFrom(probe));
}

// Random Allocate/Free/Resize/bounded sequences: the new allocator must
// be frame-for-frame identical to the bitmap spec, including run order and
// the next-fit hint trajectory.
TEST(AllocPropertyTest, DefaultLocusMatchesBitmapSpecExactly) {
  Rng rng(0xA110C8);
  FrameAllocator alloc(512, KiB(4));
  ReferenceBitmap model(512);
  std::vector<std::vector<FrameRun>> live;

  for (int step = 0; step < 6000; ++step) {
    const std::uint64_t dice = rng.NextBounded(10);
    if (dice < 4) {  // plain allocation
      const std::uint64_t frames = rng.NextBounded(48) + 1;
      auto got = alloc.Allocate(AllocRequest::Of(frames));
      auto want = model.NextFit(frames);
      ASSERT_EQ(got.ok(), want.has_value()) << "step " << step;
      if (got.ok()) {
        ASSERT_EQ(*got, *want) << "step " << step;
        live.push_back(*got);
      }
    } else if (dice < 6) {  // bounded allocation
      const std::uint64_t frames = rng.NextBounded(24) + 1;
      const FrameNumber bound = rng.NextBounded(alloc.num_frames() + 8);
      auto got = alloc.Allocate(AllocRequest::Below(frames, bound));
      auto want = model.FitBelow(frames, bound);
      ASSERT_EQ(got.ok(), want.has_value()) << "step " << step;
      if (got.ok()) {
        ASSERT_EQ(*got, *want) << "step " << step;
        live.push_back(*got);
      }
    } else if (dice < 9) {  // free a random live allocation
      if (live.empty()) continue;
      const std::size_t pick = rng.NextBounded(live.size());
      ASSERT_TRUE(alloc.Free(live[pick]).ok()) << "step " << step;
      ASSERT_TRUE(model.Free(live[pick])) << "step " << step;
      live[pick] = live.back();
      live.pop_back();
    } else {  // resize (grow or shrink attempt)
      const std::uint64_t target = rng.NextBounded(768) + 1;
      const bool got = alloc.Resize(target).ok();
      const bool want = model.Resize(target);
      ASSERT_EQ(got, want) << "step " << step << " resize " << target;
    }
    CheckAgreement(alloc, model, rng);
  }
}

}  // namespace
}  // namespace lmp::mem
