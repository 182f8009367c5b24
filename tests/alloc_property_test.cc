// Property/fuzz tests for the run-indexed FrameAllocator: random
// Allocate/Free/Resize/bounded-allocation sequences are cross-checked
// against a reference bitmap model (the pre-run-index implementation's
// semantics, kept in support/reference_bitmap.h as the executable spec),
// and cohort placement is
// checked against per-frame first-fit models plus the packing invariant
// (mobile cohorts stay below pinned cohorts).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "mem/frame_allocator.h"
#include "support/reference_bitmap.h"

namespace lmp::mem {
namespace {

// Request builder the tests use; keeps call sites one-liners without
// tripping -Wmissing-field-initializers on the skipped optional fields.
AllocRequest InCohort(std::uint64_t frames, Mobility cohort) {
  AllocRequest request = AllocRequest::Of(frames);
  request.cohort = cohort;
  return request;
}

// Canonical form for comparisons where take order is policy-internal
// (pinned returns descending runs): sorted by start frame.
std::vector<FrameRun> Sorted(std::vector<FrameRun> runs) {
  std::sort(runs.begin(), runs.end(),
            [](const FrameRun& a, const FrameRun& b) {
              return a.first < b.first;
            });
  return runs;
}

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

// Random Allocate/Free/Resize/bounded sequences with no cohort: the
// new allocator must be frame-for-frame identical to the bitmap spec,
// including run order and the next-fit hint trajectory.
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

// Cohorts against the per-frame models: mobile takes the lowest free
// frames, pinned the highest, and next-fit requests interleaved on the
// same allocator keep their own hint trajectory.
TEST(AllocPropertyTest, LocusPlacementMatchesFirstFitModels) {
  Rng rng(0x10C05);
  FrameAllocator alloc(512, KiB(4));
  ReferenceBitmap model(512);
  std::vector<std::vector<FrameRun>> live;

  for (int step = 0; step < 6000; ++step) {
    const std::uint64_t dice = rng.NextBounded(10);
    if (dice < 5) {
      const std::uint64_t policy = rng.NextBounded(3);
      const std::uint64_t frames = rng.NextBounded(32) + 1;
      AllocRequest request = AllocRequest::Of(frames);
      std::optional<std::vector<FrameRun>> want;
      if (policy == 0) {
        request.cohort = Mobility::kMobile;
        want = model.FitLow(frames);
      } else if (policy == 1) {
        request.cohort = Mobility::kPinned;
        want = model.FitHigh(frames);
      } else {
        want = model.NextFit(frames);
      }
      auto got = alloc.Allocate(request);
      ASSERT_EQ(got.ok(), want.has_value()) << "step " << step;
      if (got.ok()) {
        ASSERT_EQ(Sorted(*got), Sorted(*want)) << "step " << step;
        live.push_back(*got);
      }
    } else if (dice < 9) {
      if (live.empty()) continue;
      const std::size_t pick = rng.NextBounded(live.size());
      ASSERT_TRUE(alloc.Free(live[pick]).ok()) << "step " << step;
      ASSERT_TRUE(model.Free(live[pick])) << "step " << step;
      live[pick] = live.back();
      live.pop_back();
    } else {
      const std::uint64_t target = rng.NextBounded(768) + 1;
      ASSERT_EQ(alloc.Resize(target).ok(), model.Resize(target))
          << "step " << step;
    }
    CheckAgreement(alloc, model, rng);
  }
}

// The packing invariant: while the two cohorts' footprints stay clear of
// the midpoint, every mobile frame sits below every pinned frame — under
// churn, not just on a fresh allocator.
TEST(AllocPropertyTest, MobileStaysBelowPinnedUnderChurn) {
  Rng rng(0xB0D1);
  FrameAllocator alloc(1024, KiB(4));
  struct Held {
    std::vector<FrameRun> runs;
    std::uint64_t frames = 0;
    bool is_mobile = false;
  };
  std::vector<Held> live;
  std::uint64_t mobile_frames = 0;
  std::uint64_t pinned_frames = 0;
  const std::uint64_t kBudget = 300;  // per cohort

  for (int step = 0; step < 8000; ++step) {
    const bool is_mobile = rng.NextBernoulli(0.5);
    std::uint64_t& held = is_mobile ? mobile_frames : pinned_frames;
    if (rng.NextBernoulli(0.6)) {
      const std::uint64_t frames = rng.NextBounded(24) + 1;
      if (held + frames > kBudget) continue;
      auto runs = alloc.Allocate(InCohort(
          frames, is_mobile ? Mobility::kMobile : Mobility::kPinned));
      ASSERT_TRUE(runs.ok()) << "step " << step;
      live.push_back(Held{*runs, frames, is_mobile});
      held += frames;
    } else {
      // Free a random allocation of this cohort, if any.
      std::vector<std::size_t> candidates;
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].is_mobile == is_mobile) candidates.push_back(i);
      }
      if (candidates.empty()) continue;
      const std::size_t pick = candidates[rng.NextBounded(candidates.size())];
      ASSERT_TRUE(alloc.Free(live[pick].runs).ok()) << "step " << step;
      held -= live[pick].frames;
      live[pick] = live.back();
      live.pop_back();
    }
    // Invariant: max mobile frame < min pinned frame.
    FrameNumber mobile_max = 0;
    FrameNumber pinned_min = alloc.num_frames();
    bool any_mobile = false, any_pinned = false;
    for (const Held& h : live) {
      for (const FrameRun& r : h.runs) {
        if (h.is_mobile) {
          any_mobile = true;
          mobile_max = std::max(mobile_max, r.end() - 1);
        } else {
          any_pinned = true;
          pinned_min = std::min(pinned_min, r.first);
        }
      }
    }
    if (any_mobile && any_pinned) {
      ASSERT_LT(mobile_max, pinned_min) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace lmp::mem
