#include "cube/summary_router.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/atomic_fit.h"
#include "core/solver_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace msketch {
namespace {

double Clamp(double v, double lo, double hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

obs::Counter* BackendCounter(const char* backend) {
  return obs::GlobalRegistry().GetCounter(
      "msk_router_answers_total", {{"backend", backend}},
      "Certified answers by producing backend");
}

// Certified-interval widths feed a mergeable histogram — the width
// distribution is the router's accuracy story, and a mean would hide the
// wide-interval tail exactly where degradation kicks in.
obs::Histogram* WidthHistogram() {
  static obs::Histogram* const hist = obs::GlobalRegistry().GetHistogram(
      "msk_router_interval_width", {},
      "Certified-interval widths (upper - lower) per answer",
      obs::HistogramUnit::kValue);
  return hist;
}

// Hankel condition number above which the maxent solve and the moment
// interval are skipped when a KLL backend exists (the solve would diverge
// or fit garbage; the conditioning monitor routes around it). The paper's
// kappa_max (1e4) gates per-moment selection; this gates the whole
// solve, so it is orders looser.
constexpr double kKappaRoute = 1e12;

// Certified interval for one phi. A rejected moment vector (`trusted`
// false) gets the KLL certificate alone; otherwise the moment interval,
// intersected with the KLL certificate when present (`kll` non-null).
// The moment interval is the fallback wherever the KLL certificate is
// unavailable.
QuantileInterval IntervalFor(const RankBoundOracle& oracle,
                             const KllSortedView* kll, bool trusted,
                             double phi, RouterStats* stats) {
  std::optional<KllInterval> kiv;
  if (kll != nullptr) {
    if (auto k = kll->CertifiedInterval(phi); k.ok()) kiv = k.value();
  }
  if (!trusted && kiv) return {kiv->lower, kiv->upper};
  const QuantileInterval iv =
      oracle.QuantileInterval(phi, RouterOptions::interval_steps);
  return kiv ? IntersectCertificates(iv, *kiv, stats) : iv;
}

// Estimate from the KLL sketch, or the certificate midpoint when the
// sketch has none, clamped into the certificate.
void AnswerFromKll(const KllSortedView& kll, double phi,
                   CertifiedQuantile* r) {
  auto est = kll.EstimateQuantile(phi);
  r->estimate = Clamp(est.ok() ? est.value()
                               : 0.5 * (r->interval.lower + r->interval.upper),
                      r->interval.lower, r->interval.upper);
  r->backend = QuantileBackend::kKll;
}

}  // namespace

QuantileInterval IntersectCertificates(const QuantileInterval& moments,
                                       const KllInterval& kll,
                                       RouterStats* stats) {
  // Both enclosures should contain the true quantile, and then so does
  // their intersection. The moment bounds can miss it on ill-conditioned
  // selections (a few heavy-tailed rows); the KLL interval cannot. So
  // when the two are disjoint, keep the KLL certificate.
  const double lo = std::max(moments.lower, kll.lower);
  const double hi = std::min(moments.upper, kll.upper);
  if (lo > hi) return {kll.lower, kll.upper};
  if (lo > moments.lower || hi < moments.upper) {
    ++stats->intersected_certificates;
    return {lo, hi};
  }
  return moments;
}

void PublishRouterStats(const RouterStats& s) {
  if (s.queries == 0) return;
  obs::MetricsRegistry& reg = obs::GlobalRegistry();
  static obs::Counter* const queries = reg.GetCounter(
      "msk_router_queries_total", {}, "Quantile answers routed");
  static obs::Counter* const moments = BackendCounter("moments");
  static obs::Counter* const kll = BackendCounter("kll");
  static obs::Counter* const atomic_c = BackendCounter("atomic");
  static obs::Counter* const bounds = BackendCounter("bounds");
  static obs::Counter* const degenerate = BackendCounter("degenerate");
  static obs::Counter* const exact = reg.GetCounter(
      "msk_router_exact_answers_total", {},
      "KLL answers from an uncompacted rank sketch (exact, no solve)");
  static obs::Counter* const intersected = reg.GetCounter(
      "msk_router_intersected_certificates_total", {},
      "Certificates tightened by moments ∩ KLL intersection");
  static obs::Counter* const cond_rejects = reg.GetCounter(
      "msk_router_conditioning_rejects_total", {},
      "Solves skipped by the Hankel conditioning pre-screen");
  static obs::Counter* const solver_failures = reg.GetCounter(
      "msk_router_solver_failures_total", {},
      "Maxent refusals/divergences absorbed by the degradation chain");
  static obs::Counter* const cache_hits = reg.GetCounter(
      "msk_router_cache_hits_total", {},
      "Distributions reused from a solver cache instead of solved");
  static obs::Counter* const warm = reg.GetCounter(
      "msk_router_warm_solves_total", {}, "Warm-started maxent solves");
  static obs::Counter* const cold = reg.GetCounter(
      "msk_router_cold_solves_total", {}, "Cold maxent solves");
  static obs::Counter* const cold_restarts = reg.GetCounter(
      "msk_router_cold_restarts_total", {},
      "Cold restarts inside warm solves");
  static obs::Counter* const iter_capped = reg.GetCounter(
      "msk_router_iteration_capped_total", {},
      "Solves that hit the Newton iteration cap");
  static obs::Counter* const atomic_screen = reg.GetCounter(
      "msk_router_atomic_screen_hits_total", {},
      "Solver refusals due to the atomic (near-discrete) screen");
  queries->Add(s.queries);
  moments->Add(s.moments_answers);
  kll->Add(s.kll_answers);
  atomic_c->Add(s.atomic_answers);
  bounds->Add(s.bounds_fallbacks);
  degenerate->Add(s.degenerate_answers);
  exact->Add(s.exact_answers);
  intersected->Add(s.intersected_certificates);
  cond_rejects->Add(s.conditioning_rejects);
  solver_failures->Add(s.solver_failures);
  cache_hits->Add(s.cache_hits);
  warm->Add(s.solve.warm_solves);
  cold->Add(s.solve.cold_solves);
  cold_restarts->Add(s.solve.cold_restarts);
  iter_capped->Add(s.solve.iteration_capped);
  atomic_screen->Add(s.solve.atomic_screen_hits);
}

const char* QuantileBackendName(QuantileBackend backend) {
  switch (backend) {
    case QuantileBackend::kMoments:
      return "moments";
    case QuantileBackend::kKll:
      return "kll";
    case QuantileBackend::kAtomic:
      return "atomic";
    case QuantileBackend::kBounds:
      return "bounds";
    case QuantileBackend::kDegenerate:
      return "degenerate";
  }
  return "unknown";
}

bool RoutePreSolve(const MomentsSketch& moments, const KllSketch* kll,
                   const std::vector<double>& phis,
                   std::vector<CertifiedQuantile>* out, RouterStats* stats,
                   std::optional<KllSortedView>* sorted_out) {
  out->assign(phis.size(), CertifiedQuantile{});
  sorted_out->reset();
  stats->queries += phis.size();

  if (moments.count() == 0) {
    for (auto& r : *out) {
      r.status = Status::InvalidArgument("SummaryRouter: empty cell");
    }
    return true;
  }

  // Point-mass cell: the answer is exact; no backend needed.
  if (moments.min() >= moments.max()) {
    for (auto& r : *out) {
      r.estimate = moments.min();
      r.interval = {moments.min(), moments.min()};
      r.backend = QuantileBackend::kDegenerate;
      r.certified = true;
    }
    stats->degenerate_answers += phis.size();
    return true;
  }

  // Every KLL answer of this query (interval or estimate, any phi, in
  // either stage) comes from one sort of the retained items.
  std::optional<KllSortedView>& sorted = *sorted_out;
  if (kll != nullptr && kll->count() > 0) sorted.emplace(*kll);

  // Exact path: a rank sketch that never compacted holds every row, so
  // its certificate is the point at the ceil(phi*n)-th smallest row, an
  // exact phi-quantile. No oracle, no moment interval and no solve can
  // improve on it. Out-of-range phis clamp like the moment bounds do.
  if (sorted && kll->rank_error_bound() == 0) {
    for (size_t i = 0; i < phis.size(); ++i) {
      const KllInterval iv =
          sorted->CertifiedInterval(Clamp(phis[i], 0.0, 1.0)).value();
      CertifiedQuantile& r = (*out)[i];
      r.estimate = iv.lower;
      r.interval = {iv.lower, iv.upper};
      r.backend = QuantileBackend::kKll;
      r.certified = true;
      WidthHistogram()->Observe(0.0);
    }
    stats->kll_answers += phis.size();
    stats->exact_answers += phis.size();
    return true;
  }

  // Conditioning pre-screen: a moment vector near the boundary of the
  // moment cone makes the maxent solve diverge or fit garbage, and the
  // rank-bound solves behind its moment interval are no more reliable.
  // When a rank sketch exists, skip both instead of paying for (or
  // trusting) them.
  const RankBoundOracle oracle(moments);
  const bool rejected =
      sorted && !(oracle.HankelConditionNumber() <= kKappaRoute);

  // Certificates: they hold no matter which estimator answers.
  for (size_t i = 0; i < phis.size(); ++i) {
    CertifiedQuantile& r = (*out)[i];
    r.interval = IntervalFor(oracle, sorted ? &*sorted : nullptr, !rejected,
                             phis[i], stats);
    r.certified = true;
    WidthHistogram()->Observe(r.interval.upper - r.interval.lower);
  }

  if (rejected) {
    ++stats->conditioning_rejects;
    for (size_t i = 0; i < phis.size(); ++i) {
      AnswerFromKll(*sorted, phis[i], &(*out)[i]);
    }
    stats->kll_answers += phis.size();
    return true;
  }
  return false;
}

void RoutePostSolve(const MomentsSketch& moments, const KllSortedView* kll,
                    const std::vector<double>& phis,
                    const MaxEntDistribution* dist,
                    std::vector<CertifiedQuantile>* out, RouterStats* stats) {
  std::vector<CertifiedQuantile>& answers = *out;
  if (dist != nullptr) {
    for (size_t i = 0; i < phis.size(); ++i) {
      answers[i].estimate = Clamp(dist->Quantile(phis[i]),
                                  answers[i].interval.lower,
                                  answers[i].interval.upper);
      answers[i].backend = QuantileBackend::kMoments;
    }
    stats->moments_answers += phis.size();
    return;
  }

  // Solver refused or diverged past its own retries. Absorb the failure
  // and degrade: the certificates already hold.
  ++stats->solver_failures;

  auto atomic = FitAtomicDistribution(moments);
  if (atomic.ok()) {
    for (size_t i = 0; i < phis.size(); ++i) {
      answers[i].estimate = Clamp(atomic.value().Quantile(phis[i]),
                                  answers[i].interval.lower,
                                  answers[i].interval.upper);
      answers[i].backend = QuantileBackend::kAtomic;
    }
    stats->atomic_answers += phis.size();
    return;
  }

  if (kll != nullptr) {
    for (size_t i = 0; i < phis.size(); ++i) {
      AnswerFromKll(*kll, phis[i], &answers[i]);
    }
    stats->kll_answers += phis.size();
    return;
  }

  // Last resort: the certificate's own midpoint. Worst-case error is half
  // the interval width — still bounded, still certified.
  for (auto& r : answers) {
    r.estimate = 0.5 * (r.interval.lower + r.interval.upper);
    r.backend = QuantileBackend::kBounds;
  }
  stats->bounds_fallbacks += phis.size();
}

SummaryRouter::SummaryRouter(RouterOptions options) : opt_(options) {}

CertifiedQuantile SummaryRouter::Query(const MomentsSketch& moments,
                                       const KllSketch* kll, double phi,
                                       const WarmStart* hint) {
  std::vector<CertifiedQuantile> out =
      QueryMany(moments, kll, std::vector<double>{phi}, hint);
  return out.front();
}

std::vector<CertifiedQuantile> SummaryRouter::QueryMany(
    const MomentsSketch& moments, const KllSketch* kll,
    const std::vector<double>& phis, const WarmStart* hint) {
  obs::Span span("query.router");
  RouterStats call;
  std::vector<CertifiedQuantile> out;
  std::optional<KllSortedView> sorted;
  if (!RoutePreSolve(moments, kll, phis, &out, &call, &sorted)) {
    // Cache lookup, then warm -> cold -> drop-moments backoff inside
    // SolveMaxEnt; the post-solve stage only sees success or refusal.
    const WarmStart* seed = hint != nullptr && hint->valid() ? hint : nullptr;
    bool hit = false;
    Result<std::shared_ptr<const MaxEntDistribution>> solved =
        SolveCached(moments, opt_.maxent, seed, &hit);
    if (!solved.ok()) {
      call.solve.RecordRefusal(solved.status());
    } else {
      if (hit) {
        ++call.cache_hits;
      } else {
        call.solve.Record(solved.value()->diagnostics());
      }
      last_warm_ = solved.value()->warm_start();
    }
    RoutePostSolve(moments, sorted ? &*sorted : nullptr, phis,
                   solved.ok() ? solved.value().get() : nullptr, &out, &call);
  }
  stats_.MergeFrom(call);
  PublishRouterStats(call);
  return out;
}

}  // namespace msketch
