// Address translation (§5): two-step vs flat directory.
//
// Two-step translation resolves a segment's home through a per-server
// cache backed by the replicated coarse map, so a hit, a miss and a
// post-migration stale refresh all stay on the issuing server.  The design
// §5 rejects, one flat directory homed on one server, costs every other
// server a fabric round trip per lookup, charged at Link0's unloaded
// latency.  stdout holds only deterministic numbers; the host ns per lookup
// go to stderr as `wall.translate_<case>_ns=` lines.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "args.h"
#include "trace_sidecar.h"

#include "common/logging.h"
#include "common/table.h"
#include "core/segment_map.h"
#include "core/translation.h"
#include "fabric/link.h"

namespace {

using namespace lmp;
using core::AddressTranslator;
using core::Location;
using core::SegmentId;

constexpr std::uint64_t kLookups = 1 << 20;

core::SegmentMap MakeMap(SegmentId segments) {
  core::SegmentMap map;
  for (SegmentId s = 0; s < segments; ++s) {
    core::SegmentInfo info;
    info.id = s;
    info.size = GiB(1);
    info.home = Location::OnServer(static_cast<int>(s % 4));
    LMP_CHECK_OK(map.Insert(info));
  }
  return map;
}

// Host ns spent in `body`.
template <typename Body>
double Timed(Body body) {
  const auto start = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Translates segments 0..count-1 in order.
void Sweep(AddressTranslator& translator, SegmentId count) {
  for (SegmentId s = 0; s < count; ++s) {
    LMP_CHECK(translator.TranslateHome(s).ok());
  }
}

// `s` is null for the flat directory, which has no cache.
void AddRow(TablePrinter& table, const char* wall_name, const char* scheme,
            double host_ns, const core::TranslationStats* s,
            double fabric_ns) {
  std::fprintf(stderr, "wall.translate_%s_ns=%.1f\n", wall_name,
               host_ns / kLookups);
  const auto count = [s](std::uint64_t core::TranslationStats::*field) {
    return s == nullptr ? std::string("-") : std::to_string(s->*field);
  };
  table.AddRow({scheme, std::to_string(kLookups),
                count(&core::TranslationStats::hits),
                count(&core::TranslationStats::misses),
                count(&core::TranslationStats::stale_hits),
                TablePrinter::Num(fabric_ns, 0)});
}

}  // namespace

int main(int argc, char** argv) {
  lmp::bench::TraceSidecar sidecar(lmp::bench::Args::Parse(argc, argv));
  std::printf("== Fabric ns each translation scheme adds per lookup ==\n");
  TablePrinter schemes({"Scheme", "Lookups", "Hits", "Misses", "Stale",
                        "Fabric ns/lookup"});
  core::SegmentMap map = MakeMap(1024);

  // Hit: 1024 segments, all cached by a warm-up sweep.
  AddressTranslator translator(&map, 4096);
  Sweep(translator, 1024);
  translator.ResetStats();
  const double hit_ns = Timed([&] {
    for (std::uint64_t i = 0; i < kLookups / 1024; ++i) {
      Sweep(translator, 1024);
    }
  });
  AddRow(schemes, "hit", "two-step, cache hit", hit_ns, &translator.stats(),
         0);

  // Miss: a 64-entry cache over 65536 segments, strided so every lookup
  // misses; it still resolves against the LOCAL replica of the coarse map.
  const core::SegmentMap big_map = MakeMap(65536);
  AddressTranslator cold(&big_map, 64);
  const double miss_ns = Timed([&] {
    for (std::uint64_t i = 0; i < kLookups; ++i) {
      LMP_CHECK(cold.TranslateHome((i * 9973) % 65536).ok());
    }
  });
  AddRow(schemes, "miss", "two-step, cache miss", miss_ns, &cold.stats(),
         0);

  // Stale: each round migrates all 1024 cached segments (untimed), so every
  // lookup finds its entry stale by generation and refreshes it locally.
  translator.ResetStats();
  double stale_ns = 0;
  for (std::uint64_t round = 1; round <= kLookups / 1024; ++round) {
    for (SegmentId s = 0; s < 1024; ++s) {
      LMP_CHECK_OK(map.UpdateHome(
          s, Location::OnServer(static_cast<int>((s + round) % 4))));
    }
    stale_ns += Timed([&] { Sweep(translator, 1024); });
  }
  AddRow(schemes, "stale", "two-step, stale after migration", stale_ns,
         &translator.stats(), 0);

  // Flat directory: the lookup is as cheap as a hit, but each one made by
  // a server other than the directory's home crosses Link0.
  const double flat_ns = Timed([&] {
    for (std::uint64_t i = 0; i < kLookups; ++i) {
      LMP_CHECK(map.Lookup(i % 1024).ok());
    }
  });
  AddRow(schemes, "flat", "flat directory (remote)", flat_ns, nullptr,
         fabric::LinkProfile::Link0().LoadedLatency(0));
  schemes.Print();

  // Hit rate against capacity over a cyclic sweep: an LRU smaller than the
  // cycle evicts each entry just before its reuse.
  std::printf("\n== Translation-cache hit rate, cyclic sweep over 4096 "
              "segments x 16 passes ==\n");
  TablePrinter sweep({"Cache entries", "Lookups", "Hits", "Hit rate"});
  const core::SegmentMap sweep_map = MakeMap(4096);
  for (const std::size_t capacity : {256, 1024, 4096}) {
    AddressTranslator lru(&sweep_map, capacity);
    for (int pass = 0; pass < 16; ++pass) Sweep(lru, 4096);
    const core::TranslationStats& s = lru.stats();
    sweep.AddRow({std::to_string(capacity), std::to_string(16 * 4096),
                  std::to_string(s.hits), TablePrinter::Num(s.HitRate(), 4)});
  }
  sweep.Print();
  sidecar.Flush();
  return 0;
}
