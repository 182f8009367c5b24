#include "core/access_bits.h"

#include <algorithm>

#include "common/logging.h"

namespace lmp::core {

AccessBitSampler::AccessBitSampler(Bytes page_size) : page_size_(page_size) {
  LMP_CHECK(page_size > 0);
}

void AccessBitSampler::OnAccess(SegmentId seg, cluster::ServerId server,
                                Bytes offset, Bytes len) {
  if (len == 0) return;
  const std::uint64_t first = offset / page_size_;
  const std::uint64_t last = (offset + len - 1) / page_size_;
  auto& bitmap = bits_[Key{seg, server}];
  if (bitmap.size() <= last) bitmap.resize(last + 1, false);
  for (std::uint64_t p = first; p <= last; ++p) bitmap[p] = true;
}

std::vector<AccessBitSampler::ScanEntry> AccessBitSampler::ScanAndClear() {
  std::vector<ScanEntry> entries;
  last_scan_.clear();
  for (auto& [key, bitmap] : bits_) {
    std::uint64_t touched = 0;
    for (std::vector<bool>::reference bit : bitmap) {
      if (bit) {
        ++touched;
        bit = false;  // the "clear" half of scan-and-clear
      }
    }
    if (touched > 0) {
      entries.push_back(ScanEntry{key.segment, key.server, touched});
      last_scan_[key] = touched;
    }
  }

  // One pass over the interval in last_scan_'s own order: per segment the
  // totals and the strict-> winner come out as a walk over last_scan_
  // filtered to that segment would find them.
  dominant_.clear();
  for (std::vector<Touched>& list : by_server_) list.clear();
  std::unordered_map<SegmentId, double> totals;
  for (const auto& [key, touched] : last_scan_) {
    const double bytes =
        static_cast<double>(touched) * static_cast<double>(page_size_);
    double& total = totals[key.segment];
    Dominant& dom = dominant_[key.segment];
    total += bytes;
    if (bytes > dom.bytes) {
      dom.bytes = bytes;
      dom.server = key.server;
    }
    if (key.server >= by_server_.size()) {
      by_server_.resize(key.server + std::size_t{1});
    }
    by_server_[key.server].push_back(Touched{key.segment, &dom});
  }
  for (auto& [seg, dom] : dominant_) dom.share = dom.bytes / totals[seg];
  for (std::vector<Touched>& list : by_server_) {
    std::sort(list.begin(), list.end(),
              [](const Touched& a, const Touched& b) { return a.seg < b.seg; });
  }
  ++scans_;
  return entries;
}

double AccessBitSampler::EstimatedBytes(SegmentId seg,
                                        cluster::ServerId server) const {
  auto it = last_scan_.find(Key{seg, server});
  if (it == last_scan_.end()) return 0;
  return static_cast<double>(it->second) * static_cast<double>(page_size_);
}

bool AccessBitSampler::DominantAccessor(SegmentId seg, Dominant* out) const {
  auto it = dominant_.find(seg);
  if (it == dominant_.end()) return false;
  *out = it->second;
  return true;
}

const std::vector<AccessBitSampler::Touched>& AccessBitSampler::SegmentsOf(
    cluster::ServerId server) const {
  static const std::vector<Touched> kNone;
  return server < by_server_.size() ? by_server_[server] : kNone;
}

}  // namespace lmp::core
