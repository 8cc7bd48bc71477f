#include "cube/batch_query.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "core/atomic_fit.h"
#include "core/chebyshev_moments.h"
#include "core/maxent_problem.h"
#include "cube/data_cube.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"

namespace msketch {

namespace {

// Rolls a finished batch pipeline's counters into the global registry —
// once per GROUP BY, via cached instrument pointers, so the per-group
// hot loop stays untouched.
void PublishBatchStats(const BatchStats& s) {
  if (s.groups == 0) return;
  obs::MetricsRegistry& reg = obs::GlobalRegistry();
  static obs::Counter* const groups = reg.GetCounter(
      "msk_batch_groups_total", {}, "Groups estimated by GROUP BY queries");
  static obs::Counter* const cold = reg.GetCounter(
      "msk_batch_cold_solves_total", {}, "Cold maxent solves in batches");
  static obs::Counter* const warm = reg.GetCounter(
      "msk_batch_warm_solves_total", {},
      "Warm-started maxent solves in batches");
  static obs::Counter* const cache_hits = reg.GetCounter(
      "msk_batch_cache_hits_total", {}, "Solver-cache hits in batches");
  static obs::Counter* const failed = reg.GetCounter(
      "msk_batch_failed_solves_total", {},
      "Groups whose solve failed past every fallback");
  static obs::Counter* const atomic_fb = reg.GetCounter(
      "msk_batch_atomic_fallbacks_total", {},
      "Groups answered by the atomic-fit fallback");
  groups->Add(s.groups);
  cold->Add(s.solve.cold_solves);
  warm->Add(s.solve.warm_solves);
  cache_hits->Add(s.cache_hits);
  failed->Add(s.failed_solves);
  atomic_fb->Add(s.atomic_fallbacks);
}

// A materialized group with its similarity-ordering features.
struct Group {
  CubeCoords key;
  MomentsSketch sketch;
  bool log_usable = false;
  double m1 = 0.0, m2 = 0.0;  // scaled first/second moments
};

// Scaled first and second moments — the cheap 2-D proxy for "these two
// sketches will accept each other's theta". Full Chebyshev conversion is
// overkill for ordering; mean and spread in the scaled domain capture
// most of the distributional distance.
void FillSimilarityFeatures(Group* g) {
  const MomentsSketch& s = g->sketch;
  g->log_usable = s.LogMomentsUsable();
  if (s.count() == 0 || !(s.min() < s.max())) return;
  // Order in the domain the solver will integrate in: log moments when
  // they are usable (they win the primary-domain vote for long-tailed
  // data and are available whenever standard moments are).
  if (g->log_usable) {
    const ScaleMap map = MakeScaleMap(std::log(s.min()), std::log(s.max()));
    const std::vector<double> nu = s.LogMoments();
    g->m1 = map.Forward(nu[1]);
    if (s.k() >= 2) {
      g->m2 = (nu[2] - 2.0 * map.center * nu[1] + map.center * map.center) /
              (map.radius * map.radius);
    }
  } else {
    const ScaleMap map = MakeScaleMap(s.min(), s.max());
    const std::vector<double> mu = s.StandardMoments();
    g->m1 = map.Forward(mu[1]);
    if (s.k() >= 2) {
      g->m2 = (mu[2] - 2.0 * map.center * mu[1] + map.center * map.center) /
              (map.radius * map.radius);
    }
  }
}

std::vector<Group> CollectGroups(const CubeStore& store,
                                 const std::vector<size_t>& group_dims) {
  for (size_t d : group_dims) {
    MSKETCH_CHECK_MSG(d < store.num_dims(),
                      "GROUP BY dimension out of range");
  }
  std::vector<Group> groups;
  {
    // The group-merge step alone, so a trace splits a GROUP BY into
    // merge and estimation.
    obs::Span span("query.group_merge");
    if (group_dims.size() == 1 && store.HasFreshRollup()) {
      // A single-dimension GROUP BY partitions the cells by that
      // dimension's value — exactly the per-value postings the rollup
      // index pre-merged. One planned query per distinct value folds
      // span nodes instead of every cell, so the merge side of a
      // high-cardinality GROUP BY shrinks by ~the span width.
      const size_t d = group_dims[0];
      CubeFilter filter(store.num_dims(), kAnyValue);
      store.dim_index(d).ForEachValue(
          [&](uint32_t value, const std::vector<uint32_t>&) {
            filter[d] = static_cast<int64_t>(value);
            Group g;
            g.key = {value};
            g.sketch = store.QueryWhere(filter);
            groups.push_back(std::move(g));
          });
    } else {
      store.ForEachGroup(group_dims, [&](const CubeCoords& key,
                                         const MomentsSketch& sketch) {
        Group g;
        g.key = key;
        g.sketch = sketch;
        groups.push_back(std::move(g));
      });
    }
  }
  for (Group& g : groups) FillSimilarityFeatures(&g);
  // Similarity order: identical-moment groups land adjacent (same chain,
  // so the cache absorbs them), near-identical ones neighbor each other
  // for warm starts. A plain lexicographic (m1, m2) sort jumps in m2 at
  // every m1 step; snaking through coarse m1 buckets keeps *both*
  // coordinates slowly varying along a chain, which is what the solver's
  // warm gate rewards. Key as final tiebreak makes it a strict total
  // order, so the result does not depend on the collection order. The
  // sort permutes indexes; each group moves once, into its place.
  auto bucket = [](double m1) {
    return static_cast<int>(std::floor((m1 + 1.0) / 0.02));
  };
  std::vector<uint32_t> order(groups.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t ia, uint32_t ib) {
    const Group& a = groups[ia];
    const Group& b = groups[ib];
    if (a.log_usable != b.log_usable) return a.log_usable < b.log_usable;
    const int ba = bucket(a.m1), bb = bucket(b.m1);
    if (ba != bb) return ba < bb;
    const bool reverse = (ba & 1) != 0;  // snake direction
    if (a.m2 != b.m2) return reverse ? a.m2 > b.m2 : a.m2 < b.m2;
    if (a.m1 != b.m1) return a.m1 < b.m1;
    return a.key < b.key;
  });
  std::vector<Group> sorted;
  sorted.reserve(groups.size());
  for (uint32_t i : order) sorted.push_back(std::move(groups[i]));
  return sorted;
}

// One shard's warm chain over its slice of the similarity order. Solve
// looks the group up in the batch's cache and, on a miss, runs the
// scalar solve (MaxEntProblem::Solve, the SolveMaxEnt sequence) with the
// shard's condition-number memo, seeded from the chain's last solution
// when options.use_warm_start is set, then inserts the result. A
// duplicate group later in the chain hits that entry.
class ChainSolver {
 public:
  using DistResult = Result<std::shared_ptr<const MaxEntDistribution>>;

  ChainSolver(SolverCache* cache, const BatchOptions& options,
              BatchStats* stats)
      : cache_(cache), options_(options), stats_(stats) {}

  DistResult Solve(const MomentsSketch& sketch) {
    std::string key;
    if (cache_ != nullptr) {
      if (auto hit = cache_->Lookup(sketch, options_.maxent, &key)) {
        ++stats_->cache_hits;
        return hit;
      }
    }
    const WarmStart* hint =
        options_.use_warm_start && last_ != nullptr ? &last_->warm_start()
                                                    : nullptr;
    Result<MaxEntDistribution> solved =
        MaxEntProblem::Solve(sketch, options_.maxent, hint, &cond_memo_);
    if (!solved.ok()) {
      stats_->solve.RecordRefusal(solved.status());
      return solved.status();
    }
    stats_->solve.Record(solved->diagnostics());
    auto dist =
        std::make_shared<const MaxEntDistribution>(std::move(solved).value());
    if (cache_ != nullptr) cache_->InsertWithKey(std::move(key), dist);
    // Point masses export no seed; the chain keeps the last one that does.
    if (dist->warm_start().valid()) last_ = dist;
    return dist;
  }

 private:
  SolverCache* cache_;
  const BatchOptions& options_;
  BatchStats* stats_;
  CondMemo cond_memo_;
  std::shared_ptr<const MaxEntDistribution> last_;
};

// Shards the similarity-ordered groups and runs `process(index, solver,
// shard_stats, shard)` for each group index; merges per-shard stats into
// *stats and publishes them.
template <typename ProcessFn>
void RunChains(size_t num_groups, const BatchOptions& options,
               BatchStats* stats, const ProcessFn& process) {
  const int threads = std::max(1, options.threads);
  SolverCache local_cache(
      SolverCacheOptions{options.cache_capacity, 1e-9,
                         static_cast<size_t>(std::max(1, threads))});
  SolverCache* cache = nullptr;
  if (options.use_cache) {
    cache = options.cache != nullptr ? options.cache : &local_cache;
  }
  std::vector<BatchStats> shard_stats(static_cast<size_t>(threads));
  ParallelShards(num_groups, threads,
                 [&](size_t begin, size_t end, int shard) {
                   BatchStats& st = shard_stats[shard];
                   ChainSolver solver(cache, options, &st);
                   for (size_t i = begin; i < end; ++i) {
                     process(i, &solver, &st, shard);
                   }
                 });
  stats->groups = num_groups;
  for (const BatchStats& st : shard_stats) stats->MergeFrom(st);
  PublishBatchStats(*stats);
}

// The filter selecting one group's cells.
CubeFilter GroupFilter(const CubeStore& store,
                       const std::vector<size_t>& group_dims,
                       const CubeCoords& key) {
  CubeFilter filter(store.num_dims(), kAnyValue);
  for (size_t g = 0; g < group_dims.size(); ++g) {
    filter[group_dims[g]] = static_cast<int64_t>(key[g]);
  }
  return filter;
}

}  // namespace

std::vector<GroupQuantiles> GroupByQuantiles(
    const CubeStore& store, const std::vector<size_t>& group_dims,
    const std::vector<double>& phis, const BatchOptions& options,
    BatchStats* stats) {
  std::vector<Group> groups = CollectGroups(store, group_dims);
  // Shards write disjoint slots of `out`; no locking needed.
  std::vector<GroupQuantiles> out(groups.size());
  BatchStats local_stats;
  RunChains(groups.size(), options, &local_stats,
            [&](size_t i, ChainSolver* solver, BatchStats* st, int) {
              const Group& g = groups[i];
              GroupQuantiles& r = out[i];
              r.key = g.key;
              r.count = g.sketch.count();
              const ChainSolver::DistResult dist = solver->Solve(g.sketch);
              if (dist.ok()) {
                r.quantiles = dist.value()->Quantiles(phis);
                r.k1 = dist.value()->diagnostics().k1;
                r.k2 = dist.value()->diagnostics().k2;
                return;
              }
              // Near-discrete group: mirror the cascade's fallback.
              if (auto atomic = FitAtomicDistribution(g.sketch); atomic.ok()) {
                ++st->atomic_fallbacks;
                r.used_atomic = true;
                r.quantiles.reserve(phis.size());
                for (double phi : phis) {
                  r.quantiles.push_back(atomic->Quantile(phi));
                }
                return;
              }
              ++st->failed_solves;
              r.status = dist.status();
            });
  std::sort(out.begin(), out.end(),
            [](const GroupQuantiles& a, const GroupQuantiles& b) {
              return a.key < b.key;
            });
  if (stats != nullptr) *stats = local_stats;
  return out;
}

std::vector<GroupThreshold> GroupByThreshold(
    const CubeStore& store, const std::vector<size_t>& group_dims,
    double phi, double t, const BatchOptions& options, BatchStats* stats) {
  std::vector<Group> groups = CollectGroups(store, group_dims);
  std::vector<GroupThreshold> out(groups.size());
  BatchStats local_stats;
  // One bounds cascade per shard; stats merge afterwards. The cascade's
  // own maxent stage is bypassed — unresolved groups route through the
  // shard's chain solver, so they share its cache and warm chain.
  std::vector<ThresholdCascade> cascades(
      static_cast<size_t>(std::max(1, options.threads)),
      ThresholdCascade(options.cascade));
  RunChains(groups.size(), options, &local_stats,
            [&](size_t i, ChainSolver* solver, BatchStats* st, int shard) {
              const Group& g = groups[i];
              GroupThreshold& r = out[i];
              r.key = g.key;
              r.count = g.sketch.count();
              ThresholdCascade& cascade = cascades[shard];
              RankBounds bounds;
              switch (cascade.CheckBounds(g.sketch, phi, t, &bounds)) {
                case ThresholdCascade::Decision::kTrue:
                  r.exceeds = true;
                  return;
                case ThresholdCascade::Decision::kFalse:
                  r.exceeds = false;
                  return;
                case ThresholdCascade::Decision::kUnresolved:
                  break;
              }
              const ChainSolver::DistResult dist = solver->Solve(g.sketch);
              ThresholdCascade::MaxEntResolution resolution;
              r.exceeds = cascade.DecideWithDistribution(
                  dist.ok() ? dist.value().get() : nullptr, g.sketch, phi, t,
                  bounds, &resolution);
              if (resolution == ThresholdCascade::MaxEntResolution::kAtomic) {
                ++st->atomic_fallbacks;
              } else if (resolution ==
                         ThresholdCascade::MaxEntResolution::kBounds) {
                ++st->failed_solves;
              }
            });
  for (const ThresholdCascade& c : cascades) {
    local_stats.cascade.MergeFrom(c.stats());
  }
  std::sort(out.begin(), out.end(),
            [](const GroupThreshold& a, const GroupThreshold& b) {
              return a.key < b.key;
            });
  if (stats != nullptr) *stats = local_stats;
  return out;
}

std::vector<GroupQuantilesCertified> GroupByQuantilesCertified(
    const CubeStore& store, const std::vector<size_t>& group_dims,
    const std::vector<double>& phis, const RouterOptions& options,
    RouterStats* stats) {
  std::vector<Group> groups = CollectGroups(store, group_dims);
  const size_t n = groups.size();
  std::vector<GroupQuantilesCertified> out(n);
  BatchOptions batch;
  batch.maxent = options.maxent;
  BatchStats batch_stats;
  // Default BatchOptions run one shard, so one RouterStats suffices.
  RouterStats router_stats;
  RunChains(n, batch, &batch_stats,
            [&](size_t i, ChainSolver* solver, BatchStats*, int) {
              const Group& g = groups[i];
              out[i].key = g.key;
              out[i].count = g.sketch.count();
              std::optional<KllSketch> kll;
              if (store.kll_enabled()) {
                Result<KllSketch> merged =
                    store.MergeKllWhere(GroupFilter(store, group_dims, g.key));
                if (merged.ok()) kll = std::move(merged).value();
              }
              // The group's sorted rank sketch (empty without a KLL).
              std::optional<KllSortedView> sorted;
              if (RoutePreSolve(g.sketch, kll ? &*kll : nullptr, phis,
                                &out[i].answers, &router_stats, &sorted)) {
                return;
              }
              const ChainSolver::DistResult dist = solver->Solve(g.sketch);
              RoutePostSolve(g.sketch, sorted ? &*sorted : nullptr, phis,
                             dist.ok() ? dist.value().get() : nullptr,
                             &out[i].answers, &router_stats);
            });
  std::sort(out.begin(), out.end(),
            [](const GroupQuantilesCertified& a,
               const GroupQuantilesCertified& b) { return a.key < b.key; });
  router_stats.solve.MergeFrom(batch_stats.solve);
  router_stats.cache_hits += batch_stats.cache_hits;
  PublishRouterStats(router_stats);
  if (stats != nullptr) stats->MergeFrom(router_stats);
  return out;
}

std::vector<GroupQuantiles> DataCube<MomentsSummary>::GroupByQuantiles(
    const std::vector<size_t>& group_dims, const std::vector<double>& phis,
    const BatchOptions& options, BatchStats* stats) const {
  return msketch::GroupByQuantiles(store_, group_dims, phis, options, stats);
}

std::vector<GroupThreshold> DataCube<MomentsSummary>::GroupByThreshold(
    const std::vector<size_t>& group_dims, double phi, double t,
    const BatchOptions& options, BatchStats* stats) const {
  return msketch::GroupByThreshold(store_, group_dims, phi, t, options,
                                   stats);
}

}  // namespace msketch
