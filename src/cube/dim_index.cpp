#include "cube/dim_index.h"

#include <algorithm>

#include "common/macros.h"

namespace msketch {

namespace {
const std::vector<uint32_t> kEmptyPostings;
}  // namespace

uint32_t DimIndex::Add(uint32_t value, uint32_t cell_id) {
  std::vector<uint32_t>& list = postings_[value];
  MSKETCH_DCHECK(list.empty() || list.back() < cell_id);
  const uint32_t pos = static_cast<uint32_t>(list.size());
  list.push_back(cell_id);
  ++total_;
  return pos;
}

const std::vector<uint32_t>& DimIndex::Postings(uint32_t value) const {
  auto it = postings_.find(value);
  if (it == postings_.end()) return kEmptyPostings;
  return it->second;
}

size_t GallopLowerBound(const std::vector<uint32_t>& list, size_t from,
                        uint32_t target) {
  const size_t n = list.size();
  if (from >= n || list[from] >= target) return from;
  // Invariant: list[lo] < target. Double the step until the probe
  // overshoots (or runs off the end), then binary-search (lo, hi].
  size_t lo = from;
  size_t step = 1;
  while (lo + step < n && list[lo + step] < target) {
    lo += step;
    step <<= 1;
  }
  const size_t hi = std::min(n, lo + step + 1);
  return static_cast<size_t>(
      std::lower_bound(list.begin() + lo + 1, list.begin() + hi, target) -
      list.begin());
}

std::vector<uint32_t> IntersectPostings(
    const std::vector<const std::vector<uint32_t>*>& lists) {
  MSKETCH_CHECK(!lists.empty());
  // Probe from the smallest list: every survivor must appear everywhere.
  size_t smallest = 0;
  for (size_t i = 1; i < lists.size(); ++i) {
    if (lists[i]->size() < lists[smallest]->size()) smallest = i;
  }
  const std::vector<uint32_t>& probe = *lists[smallest];
  std::vector<uint32_t> out;
  if (probe.empty()) return out;
  out.reserve(probe.size());
  // Monotone cursor per non-probe list, plus the per-list advance
  // strategy: gallop when the list dwarfs the probe (each probe id lands
  // far ahead, so log(gap) beats a walk), linear otherwise (comparable
  // lists interleave densely; stepping beats re-bracketing).
  struct Cursor {
    const std::vector<uint32_t>* list;
    size_t pos = 0;
    bool gallop = false;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(lists.size() - 1);
  for (size_t i = 0; i < lists.size(); ++i) {
    if (i == smallest) continue;
    cursors.push_back(
        Cursor{lists[i], 0, lists[i]->size() > 8 * probe.size()});
  }
  for (uint32_t id : probe) {
    bool in_all = true;
    for (Cursor& c : cursors) {
      const std::vector<uint32_t>& list = *c.list;
      if (c.gallop) {
        c.pos = GallopLowerBound(list, c.pos, id);
      } else {
        while (c.pos < list.size() && list[c.pos] < id) ++c.pos;
      }
      if (c.pos == list.size()) return out;  // this list is exhausted
      if (list[c.pos] != id) {
        in_all = false;
        break;
      }
    }
    if (in_all) out.push_back(id);
  }
  return out;
}

}  // namespace msketch
