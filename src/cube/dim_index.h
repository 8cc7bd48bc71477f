// Per-dimension inverted indexes for the columnar cube engine.
//
// Each dimension keeps one postings list per distinct value id: the
// sorted cell ids whose coordinate takes that value. A filtered query
// intersects the postings of its constrained dimensions, so the merge
// kernel visits only matching cells instead of scanning the whole cube
// (the Druid-style bitmap-index plan from Section 7.1 of the paper,
// specialized to sorted id lists).
//
// Cell ids are assigned in ingest order and only ever appended, so
// postings stay sorted without any re-sorting.
#ifndef MSKETCH_CUBE_DIM_INDEX_H_
#define MSKETCH_CUBE_DIM_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace msketch {

/// Inverted index for one cube dimension: value id -> sorted cell ids.
class DimIndex {
 public:
  /// Records that `cell_id` has value `value` in this dimension and
  /// returns its position in the value's postings list. Cell ids must
  /// arrive in increasing order (they do: ids are assigned sequentially
  /// on first touch), keeping each postings list sorted and every
  /// position fixed for the life of the index.
  uint32_t Add(uint32_t value, uint32_t cell_id);

  /// The sorted cell ids carrying `value`; empty for unseen values.
  const std::vector<uint32_t>& Postings(uint32_t value) const;

  /// Number of distinct values seen.
  size_t num_values() const { return postings_.size(); }

  /// Total ids across all postings lists (== number of cells indexed).
  size_t total_postings() const { return total_; }

  /// Visits every (value, postings) pair in unspecified order (the
  /// rollup builder walks all values; nothing query-path depends on the
  /// iteration order).
  template <typename Fn>
  void ForEachValue(Fn&& fn) const {
    for (const auto& [value, list] : postings_) fn(value, list);
  }

 private:
  // Keyed by value id (not a dense array) so sparse or adversarial ids
  // cost memory proportional to distinct values, like the hash-keyed
  // cube this index accelerates. Neither Add (once per new cell) nor
  // Postings (once per query per constrained dim) is on the merge path.
  std::unordered_map<uint32_t, std::vector<uint32_t>> postings_;
  size_t total_ = 0;
};

/// Intersects sorted postings lists into one sorted id list. With a
/// single list the result is a copy; with several, the smallest list
/// drives and every other list keeps a monotone cursor: because probe
/// ids ascend, each cursor only moves forward, advanced by galloping
/// (exponential then binary) search when the list is >8x longer than the
/// probe — cost O(p log(gap)) — and by a linear scan when lengths are
/// comparable, where the cursors degrade to an O(sum of lengths)
/// multiway merge instead of p binary searches from scratch.
std::vector<uint32_t> IntersectPostings(
    const std::vector<const std::vector<uint32_t>*>& lists);

/// First index >= `from` with list[index] >= target (list.size() when
/// none): exponential probe doubling from `from`, then binary search in
/// the bracketed window. Cost O(log(answer - from)) — cheap when the
/// cursor is near, which is exactly the skewed-list intersection case.
size_t GallopLowerBound(const std::vector<uint32_t>& list, size_t from,
                        uint32_t target);

}  // namespace msketch

#endif  // MSKETCH_CUBE_DIM_INDEX_H_
