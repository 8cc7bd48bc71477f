// Sliding-window aggregation over pre-aggregated panes (Section 7.2.2).
//
// TurnstileWindow exploits the linearity of the moments sketch: advancing
// the window merges the incoming pane and *subtracts* the outgoing one
// (O(k) per slide), with min/max re-derived from the panes' tracked
// extrema — exact, because windows are unions of whole panes.
//
// RemergeWindow is the baseline every non-subtractable summary must use:
// re-merge all W panes on each slide (O(W) merges).
#ifndef MSKETCH_WINDOW_SLIDING_WINDOW_H_
#define MSKETCH_WINDOW_SLIDING_WINDOW_H_

#include <algorithm>
#include <deque>
#include <limits>

#include "common/macros.h"
#include "common/status.h"
#include "core/moments_sketch.h"

namespace msketch {

class TurnstileWindow {
 public:
  TurnstileWindow(int k, size_t window_panes)
      : window_panes_(window_panes), agg_(k) {
    MSKETCH_CHECK(window_panes >= 1);
  }

  /// Slides the window forward by one pane. A merge/subtract failure
  /// (mismatched sketch order) leaves the window unchanged and is
  /// reported rather than aborting — streaming feeds push panes from
  /// data the process does not control.
  Status PushPane(const MomentsSketch& pane) {
    Status s = agg_.Merge(pane);
    if (!s.ok()) return s;
    panes_.push_back(pane);
    if (panes_.size() > window_panes_) {
      s = agg_.Subtract(panes_.front());
      if (!s.ok()) return s;
      panes_.pop_front();
    }
    RefreshRange();
    return Status::OK();
  }

  bool Full() const { return panes_.size() == window_panes_; }
  size_t size() const { return panes_.size(); }

  /// The aggregate sketch for the current window.
  const MomentsSketch& Current() const { return agg_; }

 private:
  void RefreshRange() {
    // Seed from infinities and let only non-empty panes contribute: an
    // empty pane contributes no data, so its tracked range — sentinel or
    // stale (e.g. left over from subtraction) — must not poison the
    // window extrema.
    double mn = std::numeric_limits<double>::infinity();
    double mx = -std::numeric_limits<double>::infinity();
    for (const MomentsSketch& p : panes_) {
      if (p.count() == 0) continue;
      mn = std::min(mn, p.min());
      mx = std::max(mx, p.max());
    }
    if (agg_.count() > 0) agg_.SetRange(mn, mx);
  }

  size_t window_panes_;
  std::deque<MomentsSketch> panes_;
  MomentsSketch agg_;
};

template <typename Summary>
class RemergeWindow {
 public:
  RemergeWindow(Summary prototype, size_t window_panes)
      : window_panes_(window_panes), prototype_(std::move(prototype)) {
    MSKETCH_CHECK(window_panes >= 1);
  }

  void PushPane(const Summary& pane) {
    panes_.push_back(pane);
    if (panes_.size() > window_panes_) panes_.pop_front();
  }

  bool Full() const { return panes_.size() == window_panes_; }

  /// Rebuilds the window aggregate from scratch (W merges).
  Summary Current() const {
    Summary out = prototype_.CloneEmpty();
    for (const Summary& p : panes_) {
      MSKETCH_CHECK(out.Merge(p).ok());
    }
    return out;
  }

 private:
  size_t window_panes_;
  Summary prototype_;
  std::deque<Summary> panes_;
};

}  // namespace msketch

#endif  // MSKETCH_WINDOW_SLIDING_WINDOW_H_
