#include "sketches/kll_sketch.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/macros.h"

namespace msketch {
namespace {

// splitmix64: one multiply-xor-shift round per coin, deterministic.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

KllSketch::KllSketch(int k) : k_(std::max(k, kKllMinK)), coin_state_(0) {
  // Level 0 grows on demand: k comes from decoded bytes too, and a
  // sketch adopted from a view assigns its levels whole.
  levels_.emplace_back();
}

bool KllSketch::CoinFlip() { return (SplitMix64(&coin_state_) & 1u) != 0; }

void KllSketch::Accumulate(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  levels_[0].push_back(x);
  if (levels_[0].size() >= static_cast<size_t>(k_)) CompressPending();
}

void KllSketch::AccumulateBatch(const double* xs, size_t n) {
  for (size_t i = 0; i < n; ++i) Accumulate(xs[i]);
}

void KllSketch::CompactLevel(size_t h) {
  // Growing levels_ reallocates it, so take references only afterwards.
  if (h + 1 >= levels_.size()) {
    levels_.emplace_back();
    levels_.back().reserve(k_ + k_ / 2);
  }
  std::vector<double>& level = levels_[h];
  // Level 0 is an unsorted insert buffer; higher levels are kept sorted
  // (promotion below merges in order), but a merge may have concatenated
  // two sorted runs, so re-sort unconditionally — cost is dominated by
  // the promotion merge anyway.
  std::sort(level.begin(), level.end());

  const size_t pairs = level.size() / 2;
  if (pairs == 0) return;
  const size_t offset = CoinFlip() ? 1 : 0;

  std::vector<double>& up = levels_[h + 1];
  const size_t up_old = up.size();
  for (size_t i = 0; i < pairs; ++i) up.push_back(level[2 * i + offset]);
  // Keep the level above sorted: the promoted run is sorted, merge it in.
  std::inplace_merge(up.begin(), up.begin() + up_old, up.end());

  // Any leftover odd item stays at this level untouched (no rank error).
  if (level.size() % 2 == 1) {
    level[0] = level.back();
    level.resize(1);
  } else {
    level.clear();
  }

  // One compaction of weight-2^h items perturbs any rank by at most 2^h:
  // of the r compacted items below a threshold, either ceil(r/2) or
  // floor(r/2) survive at doubled weight.
  rank_error_bound_ += (1ULL << h);
}

void KllSketch::CompressPending() {
  for (size_t h = 0; h < levels_.size(); ++h) {
    if (levels_[h].size() >= static_cast<size_t>(k_)) CompactLevel(h);
  }
}

Status KllSketch::Merge(const KllSketch& other) {
  if (&other == this) {
    const KllSketch copy = other;
    return Merge(copy.View());
  }
  return Merge(other.View());
}

Status KllSketch::Merge(const KllView& other) {
  const KllHeader& oh = other.header;
  if (oh.k != k_) {
    return Status::InvalidArgument("KllSketch::Merge: mismatched k");
  }
  if (oh.n == 0) return Status::OK();
  if (n_ == 0) {
    min_ = oh.min;
    max_ = oh.max;
  } else {
    min_ = std::min(min_, oh.min);
    max_ = std::max(max_, oh.max);
  }
  n_ += oh.n;
  rank_error_bound_ += oh.rank_error_bound;
  if (oh.num_levels > levels_.size()) levels_.resize(oh.num_levels);
  for (size_t h = 0; h < oh.num_levels; ++h) {
    const double* src = other.level_items[h];
    levels_[h].insert(levels_[h].end(), src, src + other.level_sizes[h]);
  }
  CompressPending();
  return Status::OK();
}

KllSketch KllSketch::FromView(const KllView& view) {
  const KllHeader& h = view.header;
  KllSketch out(h.k);
  out.n_ = h.n;
  out.rank_error_bound_ = h.rank_error_bound;
  out.coin_state_ = h.coin_state;
  out.min_ = h.min;
  out.max_ = h.max;
  out.levels_.resize(std::max<uint32_t>(h.num_levels, 1));
  for (size_t l = 0; l < h.num_levels; ++l) {
    out.levels_[l].assign(view.level_items[l],
                          view.level_items[l] + view.level_sizes[l]);
  }
  return out;
}

KllView KllSketch::View() const {
  MSKETCH_CHECK(levels_.size() <= kKllMaxLevels);
  KllView view;
  view.header.k = k_;
  view.header.n = n_;
  view.header.rank_error_bound = rank_error_bound_;
  view.header.coin_state = coin_state_;
  view.header.min = min_;
  view.header.max = max_;
  view.header.num_levels = static_cast<uint32_t>(levels_.size());
  for (size_t h = 0; h < levels_.size(); ++h) {
    view.level_items[h] = levels_[h].data();
    view.level_sizes[h] = levels_[h].size();
  }
  return view;
}

uint64_t KllSketch::RankBelow(double x) const {
  uint64_t r = 0;
  for (size_t h = 0; h < levels_.size(); ++h) {
    const uint64_t w = 1ULL << h;
    for (double v : levels_[h]) {
      if (v < x) r += w;
    }
  }
  return r;
}

uint64_t KllSketch::RankAtOrBelow(double x) const {
  uint64_t r = 0;
  for (size_t h = 0; h < levels_.size(); ++h) {
    const uint64_t w = 1ULL << h;
    for (double v : levels_[h]) {
      if (v <= x) r += w;
    }
  }
  return r;
}

Result<double> KllSketch::EstimateQuantile(double phi) const {
  return KllSortedView(*this).EstimateQuantile(phi);
}

Result<KllInterval> KllSketch::CertifiedInterval(double phi) const {
  return KllSortedView(*this).CertifiedInterval(phi);
}

double KllSketch::epsilon() const {
  if (n_ == 0) return 0.0;
  return static_cast<double>(rank_error_bound_) / static_cast<double>(n_);
}

size_t KllSketch::num_retained() const {
  size_t total = 0;
  for (const auto& level : levels_) total += level.size();
  return total;
}

size_t KllSketch::SizeBytes() const {
  return sizeof(*this) + num_retained() * sizeof(double) +
         levels_.size() * sizeof(std::vector<double>);
}

void KllSketch::Reset() {
  n_ = 0;
  rank_error_bound_ = 0;
  coin_state_ = 0;
  min_ = max_ = 0.0;
  // A fresh sketch's one empty level; level 0 keeps its buffer.
  levels_.resize(1);
  levels_[0].clear();
}

void WriteKll(const KllView& view, BytesWriter* w) {
  const KllHeader& h = view.header;
  w->PutU32(static_cast<uint32_t>(h.k));
  w->PutU64(h.n);
  w->PutU64(h.rank_error_bound);
  w->PutU64(h.coin_state);
  w->PutDouble(h.min);
  w->PutDouble(h.max);
  w->PutU32(h.num_levels);
  for (size_t l = 0; l < h.num_levels; ++l) {
    w->PutDoubles(view.level_items[l], view.level_sizes[l]);
  }
}

Status ReadKll(BytesReader* r, KllHeader* header, std::vector<double>* items,
               std::vector<uint32_t>* level_ends) {
  uint32_t k = 0, num_levels = 0;
  uint64_t n = 0, err = 0, coin = 0;
  double mn = 0.0, mx = 0.0;
  MSKETCH_RETURN_NOT_OK(r->GetU32(&k));
  MSKETCH_RETURN_NOT_OK(r->GetU64(&n));
  MSKETCH_RETURN_NOT_OK(r->GetU64(&err));
  MSKETCH_RETURN_NOT_OK(r->GetU64(&coin));
  MSKETCH_RETURN_NOT_OK(r->GetDouble(&mn));
  MSKETCH_RETURN_NOT_OK(r->GetDouble(&mx));
  MSKETCH_RETURN_NOT_OK(r->GetU32(&num_levels));
  if (k > (1u << 24) || num_levels > kKllMaxLevels) {
    return Status::Serialization("KllSketch: implausible header");
  }
  header->k = std::max(static_cast<int>(k), kKllMinK);
  header->n = n;
  header->rank_error_bound = err;
  header->coin_state = coin;
  header->min = mn;
  header->max = mx;
  header->num_levels = num_levels;
  // Compaction keeps the weighted retained count equal to the row count,
  // and only compaction lifts items above level 0 or raises the error
  // bound. The exact-answer path trusts both invariants.
  uint64_t weighted = 0;
  for (uint32_t h = 0; h < num_levels; ++h) {
    const size_t begin = items->size();
    MSKETCH_RETURN_NOT_OK(r->AppendDoubles(items));
    level_ends->push_back(static_cast<uint32_t>(items->size()));
    const uint64_t size = items->size() - begin;
    if (size == 0) continue;
    if (err == 0 && h > 0) {
      return Status::Serialization(
          "KllSketch: items above level 0 with a zero error bound");
    }
    if (size > (std::numeric_limits<uint64_t>::max() - weighted) >> h) {
      return Status::Serialization("KllSketch: weighted count overflows");
    }
    weighted += size << h;
  }
  if (weighted != n) {
    return Status::Serialization(
        "KllSketch: weighted retained count differs from count");
  }
  return Status::OK();
}

void KllSketch::Serialize(BytesWriter* w) const { WriteKll(View(), w); }

Result<KllSketch> KllSketch::Deserialize(BytesReader* r) {
  KllView view;
  std::vector<double> items;
  std::vector<uint32_t> level_ends;
  MSKETCH_RETURN_NOT_OK(ReadKll(r, &view.header, &items, &level_ends));
  size_t begin = 0;
  for (size_t h = 0; h < level_ends.size(); ++h) {
    view.level_items[h] = items.data() + begin;
    view.level_sizes[h] = level_ends[h] - begin;
    begin = level_ends[h];
  }
  return FromView(view);
}

bool KllSketch::IdenticalTo(const KllSketch& other) const {
  if (k_ != other.k_ || n_ != other.n_ ||
      rank_error_bound_ != other.rank_error_bound_ ||
      coin_state_ != other.coin_state_ ||
      levels_.size() != other.levels_.size()) {
    return false;
  }
  // Bit-exact double comparison (matches serialized bytes).
  auto bits_equal = [](double a, double b) {
    uint64_t ba, bb;
    std::memcpy(&ba, &a, sizeof(ba));
    std::memcpy(&bb, &b, sizeof(bb));
    return ba == bb;
  };
  if (!bits_equal(min_, other.min_) || !bits_equal(max_, other.max_)) {
    return false;
  }
  for (size_t h = 0; h < levels_.size(); ++h) {
    if (levels_[h].size() != other.levels_[h].size()) return false;
    for (size_t i = 0; i < levels_[h].size(); ++i) {
      if (!bits_equal(levels_[h][i], other.levels_[h][i])) return false;
    }
  }
  return true;
}

KllSortedView::KllSortedView(const KllSketch& sketch)
    : n_(sketch.count()),
      rank_error_bound_(sketch.rank_error_bound()),
      min_(sketch.min()),
      max_(sketch.max()) {
  items_.reserve(sketch.num_retained());
  for (size_t h = 0; h < sketch.num_levels(); ++h) {
    const uint64_t w = 1ULL << h;
    for (double v : sketch.level(h)) items_.push_back({v, w});
  }
  std::sort(items_.begin(), items_.end(),
            [](const WeightedItem& a, const WeightedItem& b) {
              return a.value < b.value;
            });
}

Result<double> KllSortedView::EstimateQuantile(double phi) const {
  if (n_ == 0) {
    return Status::InvalidArgument("KllSketch::EstimateQuantile: empty");
  }
  if (phi < 0.0 || phi > 1.0) {
    return Status::InvalidArgument("KllSketch::EstimateQuantile: phi");
  }
  if (phi <= 0.0) return min_;
  if (phi >= 1.0) return max_;
  const double target = phi * static_cast<double>(n_);
  uint64_t cum = 0;
  for (const WeightedItem& it : items_) {
    cum += it.weight;
    if (static_cast<double>(cum) >= target) return it.value;
  }
  return max_;
}

Result<KllInterval> KllSortedView::CertifiedInterval(double phi) const {
  if (n_ == 0) {
    return Status::InvalidArgument("KllSketch::CertifiedInterval: empty");
  }
  if (phi < 0.0 || phi > 1.0) {
    return Status::InvalidArgument("KllSketch::CertifiedInterval: phi");
  }
  // Target rank, 1-based: the r-th smallest element.
  uint64_t r = static_cast<uint64_t>(
      std::ceil(phi * static_cast<double>(n_)));
  r = std::max<uint64_t>(1, std::min(r, n_));
  const uint64_t err = rank_error_bound_;

  // [min, max] is always sound; tighten from both ends with retained
  // values. Each probe is individually sound: if even the optimistic
  // estimate R<(v)+err of the true rank-below is short of r, fewer than r
  // elements precede v, so the r-th smallest is >= v. Symmetrically for
  // the upper end with R<=(v)-err. With err == 0 both ends stop at the
  // r-th smallest, so the certificate is that point.
  KllInterval out{min_, max_};
  uint64_t below = 0;     // weighted count of items strictly below cursor
  size_t i = 0;
  while (i < items_.size()) {
    const double v = items_[i].value;
    uint64_t at = 0;  // total weight of ties at v
    while (i < items_.size() && items_[i].value == v) {
      at += items_[i].weight;
      ++i;
    }
    if (below + err < r) out.lower = std::max(out.lower, v);
    if (below + at >= err + r) {
      out.upper = std::min(out.upper, v);
      break;  // further values only loosen the upper bound
    }
    below += at;
  }
  if (out.lower > out.upper) {
    // Numerically impossible given sound probes, but never let a caller
    // see a crossed certificate.
    out.lower = min_;
    out.upper = max_;
  }
  return out;
}

}  // namespace msketch
