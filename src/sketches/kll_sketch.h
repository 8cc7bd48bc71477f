// KLL quantile sketch (Karnin, Lang, Liberty, "Optimal Quantile
// Approximation in Streams", FOCS 2016) with a deterministically tracked
// rank-error certificate.
//
// A compactor hierarchy: level h holds items of weight 2^h. When a level
// reaches capacity it is sorted and either the odd- or even-indexed half
// is promoted to level h+1 at doubled weight. One compaction of level h
// perturbs the (weighted) rank of any threshold by at most 2^h, so the
// running sum of compaction weights is a hard bound on the rank error of
// every estimate this sketch will ever return — not a probabilistic
// bound, a certificate.
//
// Unlike textbook KLL we keep a *uniform* per-level capacity k instead of
// geometrically decaying capacities: decaying levels make the worst-case
// deterministic bound degenerate to ~n/c while the uniform layout keeps
// it at ~(k/2) * log2(n/k) total weight, i.e. a certified rank epsilon of
// about log2(n/k)/(2k). The router consumes that certificate directly
// (CertifiedInterval), so the deterministic bound is the product, not the
// in-expectation one.
//
// The compaction coin is a deterministic splitmix64 counter so that equal
// ingest orders produce bit-identical sketches (snapshot/recovery
// bit-exactness relies on this).
#ifndef MSKETCH_SKETCHES_KLL_SKETCH_H_
#define MSKETCH_SKETCHES_KLL_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace msketch {

/// Certified rank interval for a quantile query: the true phi-quantile of
/// the accumulated multiset is guaranteed to lie in [lower, upper].
struct KllInterval {
  double lower;
  double upper;
};

/// Smallest per-level capacity a KllSketch keeps (a smaller k clamps).
constexpr int kKllMinK = 8;
/// Most levels a sketch can hold: level h weighs 2^h and the row count
/// is a u64, and the decoder rejects more.
constexpr size_t kKllMaxLevels = 64;

/// A KLL sketch's scalar state, as its serialized header carries it.
struct KllHeader {
  int k = kKllMinK;
  uint64_t n = 0;
  uint64_t rank_error_bound = 0;
  uint64_t coin_state = 0;
  double min = 0.0;
  double max = 0.0;
  uint32_t num_levels = 0;
};

/// A borrowed view of one KLL sketch's full state: the header plus each
/// level's items (level h weighs 2^h). A KllSketch and a columnar arena
/// (cube/epoch_delta.h) both hand these out, so one writer, one merge and
/// one adoption serve both. Valid while the viewed storage is unchanged.
struct KllView {
  KllHeader header;
  const double* level_items[kKllMaxLevels];
  size_t level_sizes[kKllMaxLevels];
};

/// The serialized KllSketch format, one definition for every writer and
/// reader: u32 k | u64 n | u64 rank error bound | u64 coin state | f64
/// min | f64 max | u32 level count | per level: u32 count, f64 items.
void WriteKll(const KllView& view, BytesWriter* out);
/// Reads one serialized sketch: its header into `header` (k clamped as
/// the KllSketch constructor clamps it) and each level's items appended
/// to `items`, with the level's end offset in `items` appended to
/// `level_ends`. Rejects an implausible header, items above level 0
/// under a zero error bound, and a weighted item count that overflows
/// or differs from n.
Status ReadKll(BytesReader* in, KllHeader* header, std::vector<double>* items,
               std::vector<uint32_t>* level_ends);

class KllSketch {
 public:
  /// `k`: per-level compactor capacity (clamped to >= 8). Retained items
  /// are bounded by ~k * log2(n/k); certified rank error is about
  /// log2(n/k) / (2k).
  explicit KllSketch(int k = 200);

  void Accumulate(double x);
  void AccumulateBatch(const double* xs, size_t n);

  /// Mergeable: the merged certificate is the sum of both inputs'
  /// certificates plus whatever compactions the merge itself triggers.
  /// Self-merge is safe and equivalent to merging a copy.
  Status Merge(const KllSketch& other);
  /// The same merge from a view (which must not alias this sketch).
  Status Merge(const KllView& other);

  /// A sketch bit-identical to the viewed one, coin state included.
  static KllSketch FromView(const KllView& view);
  /// This sketch's state as a view.
  KllView View() const;

  /// Point estimate of the phi-quantile, phi in [0, 1]. Each call sorts
  /// the retained items; a query over many phis should sort once with
  /// KllSortedView.
  Result<double> EstimateQuantile(double phi) const;

  /// Certified enclosure of the true phi-quantile: the ceil(phi*n)-th
  /// smallest row up to the rank error bound. Never fails on a non-empty
  /// sketch; worst case it returns [min, max], which is still a sound
  /// certificate. An uncompacted sketch (rank_error_bound() == 0) holds
  /// every row, so its certificate is the point at that exact row.
  Result<KllInterval> CertifiedInterval(double phi) const;

  /// Weighted count of retained items strictly below / at-or-below x.
  /// |RankBelow(x) - true_rank_below(x)| <= rank_error_bound().
  uint64_t RankBelow(double x) const;
  uint64_t RankAtOrBelow(double x) const;

  uint64_t count() const { return n_; }
  double min() const { return min_; }
  double max() const { return max_; }
  int k() const { return k_; }
  /// Hard bound on the absolute rank error of any estimate (sum of
  /// compaction weights so far).
  uint64_t rank_error_bound() const { return rank_error_bound_; }
  /// rank_error_bound() / count(), the certified rank epsilon.
  double epsilon() const;
  size_t num_retained() const;
  size_t num_levels() const { return levels_.size(); }
  /// Items retained at level `h` (weight 2^h). With rank_error_bound()
  /// == 0 every row sits at level 0, in arrival order.
  const std::vector<double>& level(size_t h) const { return levels_[h]; }
  size_t SizeBytes() const;

  KllSketch CloneEmpty() const { return KllSketch(k_); }
  void Reset();

  void Serialize(BytesWriter* w) const;
  static Result<KllSketch> Deserialize(BytesReader* r);
  /// Bit-exact equality (serialized forms would match byte for byte).
  bool IdenticalTo(const KllSketch& other) const;

 private:
  void CompactLevel(size_t h);
  void CompressPending();
  bool CoinFlip();

  int k_;
  uint64_t n_ = 0;
  uint64_t rank_error_bound_ = 0;
  uint64_t coin_state_;
  double min_ = 0.0, max_ = 0.0;
  // levels_[h] holds items of weight 2^h; level 0 is an unsorted insert
  // buffer, higher levels stay sorted.
  std::vector<std::vector<double>> levels_;
};

/// The retained items of a KllSketch, sorted once. Answers
/// EstimateQuantile and CertifiedInterval for any number of phis, bit for
/// bit as the sketch's own calls would, so a query over many phis pays
/// for one sort. Holds a copy of the items: the sketch may change or go
/// away after the view is built.
class KllSortedView {
 public:
  explicit KllSortedView(const KllSketch& sketch);

  Result<double> EstimateQuantile(double phi) const;
  Result<KllInterval> CertifiedInterval(double phi) const;

 private:
  // A retained value with its weight 2^level.
  struct WeightedItem {
    double value;
    uint64_t weight;
  };
  std::vector<WeightedItem> items_;  // ascending value
  uint64_t n_;
  uint64_t rank_error_bound_;
  double min_, max_;
};

}  // namespace msketch

#endif  // MSKETCH_SKETCHES_KLL_SKETCH_H_
