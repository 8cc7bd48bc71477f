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
  if (s.cascade.total == 0) return;
  static constexpr const char* kCascadeHelp =
      "Threshold GROUP BY groups decided by each cascade stage";
  static obs::Counter* const range = reg.GetCounter(
      "msk_cascade_resolved_total", {{"stage", "range"}}, kCascadeHelp);
  static obs::Counter* const markov = reg.GetCounter(
      "msk_cascade_resolved_total", {{"stage", "markov"}}, kCascadeHelp);
  static obs::Counter* const rtt = reg.GetCounter(
      "msk_cascade_resolved_total", {{"stage", "rtt"}}, kCascadeHelp);
  static obs::Counter* const maxent = reg.GetCounter(
      "msk_cascade_resolved_total", {{"stage", "maxent"}}, kCascadeHelp);
  range->Add(s.cascade.resolved_simple);
  markov->Add(s.cascade.resolved_markov);
  rtt->Add(s.cascade.resolved_rtt);
  maxent->Add(s.cascade.resolved_maxent);
}

// A materialized group with its similarity-ordering features.
struct Group {
  CubeCoords key;
  MomentsSketch sketch;
  uint32_t id = 0;  // GroupByThreshold: the group's id in its partition
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

// Aborts on a group dimension the store does not have.
void CheckGroupDims(const CubeStore& store,
                    const std::vector<size_t>& group_dims) {
  for (size_t d : group_dims) {
    MSKETCH_CHECK_MSG(d < store.num_dims(),
                      "GROUP BY dimension out of range");
  }
}

// True when the GROUP BY reads its groups off a fresh rollup (see
// ForEachRollupGroup).
bool RollupBacked(const CubeStore& store,
                  const std::vector<size_t>& group_dims) {
  return group_dims.size() == 1 && store.HasFreshRollup();
}

// Hands each value of dimension `d` and its merged sketch to `fn`. A
// single-dimension GROUP BY partitions the cells by that dimension's
// value — exactly the per-value postings the rollup index pre-merged.
// One planned query per distinct value folds span nodes instead of every
// cell, so the merge side of a high-cardinality GROUP BY shrinks by ~the
// span width.
template <typename Fn>
void ForEachRollupGroup(const CubeStore& store, size_t d, const Fn& fn) {
  CubeFilter filter(store.num_dims(), kAnyValue);
  store.dim_index(d).ForEachValue(
      [&](uint32_t value, const std::vector<uint32_t>&) {
        filter[d] = static_cast<int64_t>(value);
        fn(value, store.QueryWhere(filter));
      });
}

// Fills the groups' features and puts them in similarity order:
// identical-moment groups land adjacent (same chain, so the cache
// absorbs them), near-identical ones neighbor each other for warm
// starts. A plain lexicographic (m1, m2) sort jumps in m2 at every m1
// step; snaking through coarse m1 buckets keeps *both* coordinates
// slowly varying along a chain, which is what the solver's warm gate
// rewards. Key as final tiebreak makes it a strict total order, so the
// result does not depend on the collection order, and the order of a
// subset of groups is the subsequence of the full set's order. The sort
// permutes indexes; each group moves once, into its place.
void SimilarityOrder(std::vector<Group>* groups) {
  for (Group& g : *groups) FillSimilarityFeatures(&g);
  auto bucket = [](double m1) {
    return static_cast<int>(std::floor((m1 + 1.0) / 0.02));
  };
  std::vector<uint32_t> order(groups->size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t ia, uint32_t ib) {
    const Group& a = (*groups)[ia];
    const Group& b = (*groups)[ib];
    if (a.log_usable != b.log_usable) return a.log_usable < b.log_usable;
    const int ba = bucket(a.m1), bb = bucket(b.m1);
    if (ba != bb) return ba < bb;
    const bool reverse = (ba & 1) != 0;  // snake direction
    if (a.m2 != b.m2) return reverse ? a.m2 > b.m2 : a.m2 < b.m2;
    if (a.m1 != b.m1) return a.m1 < b.m1;
    return a.key < b.key;
  });
  std::vector<Group> sorted;
  sorted.reserve(groups->size());
  for (uint32_t i : order) sorted.push_back(std::move((*groups)[i]));
  *groups = std::move(sorted);
}

// Every group of the GROUP BY, materialized, in similarity order.
std::vector<Group> CollectGroups(const CubeStore& store,
                                 const std::vector<size_t>& group_dims) {
  CheckGroupDims(store, group_dims);
  std::vector<Group> groups;
  {
    // The group-merge step alone, so a trace splits a GROUP BY into
    // merge and estimation.
    obs::Span span("query.group_merge");
    if (RollupBacked(store, group_dims)) {
      ForEachRollupGroup(store, group_dims[0],
                         [&](uint32_t value, MomentsSketch sketch) {
                           Group g;
                           g.key = {value};
                           g.sketch = std::move(sketch);
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
  SimilarityOrder(&groups);
  return groups;
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
// *stats. The caller sets `groups` and publishes.
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
  for (const BatchStats& st : shard_stats) stats->MergeFrom(st);
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
  local_stats.groups = groups.size();
  PublishBatchStats(local_stats);
  if (stats != nullptr) *stats = local_stats;
  return out;
}

std::vector<GroupThreshold> GroupByThreshold(
    const CubeStore& store, const std::vector<size_t>& group_dims,
    double phi, double t, const BatchOptions& options, BatchStats* stats) {
  CheckGroupDims(store, group_dims);
  const size_t width = group_dims.size();
  const bool rollup = RollupBacked(store, group_dims);
  // Every group's key and exact count, min and max. A rollup-backed
  // GROUP BY reads them off each value's sketch (keys and ranges only;
  // the sketches are kept aside); otherwise the store's partition step
  // provides them without reading a moment sum.
  GroupPartition part(width);
  std::vector<MomentsSketch> rollup_sketches;
  std::vector<uint8_t> exceeds;  // per group id
  std::vector<Group> groups;     // the groups the range stage leaves open
  BatchStats local_stats;
  {
    obs::Span span("query.group_merge");
    if (rollup) {
      ForEachRollupGroup(store, group_dims[0],
                         [&](uint32_t value, MomentsSketch sketch) {
                           bool created = false;
                           part.keys.FindOrInsert(&value, &created);
                           part.ranges.push_back(
                               {sketch.count(), sketch.min(), sketch.max(), 0});
                           rollup_sketches.push_back(std::move(sketch));
                         });
    } else {
      part = store.PartitionGroups(group_dims);
    }
    // The cascade's range stage decides every group it can from its
    // range alone; only the open groups get a sketch.
    const size_t num_groups = part.num_groups();
    exceeds.assign(num_groups, 0);
    std::vector<uint32_t> open;
    for (uint32_t g = 0; g < num_groups; ++g) {
      const GroupRange& r = part.ranges[g];
      switch (ThresholdCascade::RangeStage(options.cascade, r.count, r.min,
                                           r.max, t)) {
        case ThresholdCascade::Decision::kTrue:
          exceeds[g] = 1;
          break;
        case ThresholdCascade::Decision::kFalse:
          break;
        case ThresholdCascade::Decision::kUnresolved:
          open.push_back(g);
          break;
      }
    }
    local_stats.groups = num_groups;
    local_stats.cascade.total = num_groups - open.size();
    local_stats.cascade.resolved_simple = num_groups - open.size();
    groups.resize(open.size());
    for (size_t j = 0; j < open.size(); ++j) {
      const uint32_t* key = part.keys.Key(open[j]);
      groups[j].key.assign(key, key + width);
      groups[j].id = open[j];
      if (rollup) groups[j].sketch = std::move(rollup_sketches[open[j]]);
    }
    if (!rollup) {
      store.ReduceGroups(part, open,
                         [&](size_t j, const MomentsSketch& sketch) {
                           groups[j].sketch = sketch;
                         });
    }
  }
  SimilarityOrder(&groups);
  // One bounds cascade per shard; stats merge afterwards. The cascade's
  // own maxent stage is bypassed — unresolved groups route through the
  // shard's chain solver, so they share its cache and warm chain. Shards
  // write disjoint entries of `exceeds`.
  std::vector<ThresholdCascade> cascades(
      static_cast<size_t>(std::max(1, options.threads)),
      ThresholdCascade(options.cascade));
  RunChains(groups.size(), options, &local_stats,
            [&](size_t i, ChainSolver* solver, BatchStats* st, int shard) {
              const Group& g = groups[i];
              ThresholdCascade& cascade = cascades[shard];
              RankBounds bounds;
              switch (cascade.CheckBounds(g.sketch, phi, t, &bounds)) {
                case ThresholdCascade::Decision::kTrue:
                  exceeds[g.id] = 1;
                  return;
                case ThresholdCascade::Decision::kFalse:
                  return;
                case ThresholdCascade::Decision::kUnresolved:
                  break;
              }
              const ChainSolver::DistResult dist = solver->Solve(g.sketch);
              ThresholdCascade::MaxEntResolution resolution;
              exceeds[g.id] = cascade.DecideWithDistribution(
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
  // Ascending key order through a permutation over the packed keys. Each
  // key is built once: an open group hands over the one it carries.
  const size_t num_groups = part.num_groups();
  std::vector<uint32_t> order(num_groups);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const uint32_t* ka = part.keys.Key(a);
    const uint32_t* kb = part.keys.Key(b);
    return std::lexicographical_compare(ka, ka + width, kb, kb + width);
  });
  constexpr uint32_t kDecided = ~0u;
  std::vector<uint32_t> slot(num_groups, kDecided);
  for (uint32_t j = 0; j < groups.size(); ++j) slot[groups[j].id] = j;
  std::vector<GroupThreshold> out(num_groups);
  for (size_t i = 0; i < num_groups; ++i) {
    const uint32_t g = order[i];
    GroupThreshold& r = out[i];
    if (slot[g] != kDecided) {
      r.key = std::move(groups[slot[g]].key);
    } else {
      r.key.assign(part.keys.Key(g), part.keys.Key(g) + width);
    }
    r.count = part.ranges[g].count;
    r.exceeds = exceeds[g] != 0;
  }
  PublishBatchStats(local_stats);
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
  batch_stats.groups = n;
  PublishBatchStats(batch_stats);
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
