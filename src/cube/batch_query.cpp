#include "cube/batch_query.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/macros.h"
#include "core/atomic_fit.h"
#include "core/chebyshev_moments.h"
#include "cube/data_cube.h"
#include "obs/metrics.h"
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
  static obs::Counter* const lane_enqueued = reg.GetCounter(
      "msk_lane_solver_enqueued_total", {},
      "Groups enqueued into the lane-batched solver");
  static obs::Counter* const lane_packed_solves = reg.GetCounter(
      "msk_lane_solver_packed_solves_total", {},
      "Packed SIMD Newton solves");
  static obs::Counter* const lane_packed_lanes = reg.GetCounter(
      "msk_lane_solver_packed_lanes_total", {},
      "Occupied lanes across packed solves");
  static obs::Counter* const lane_converged = reg.GetCounter(
      "msk_lane_solver_lane_converged_total", {},
      "Lanes solved entirely in the packed path");
  static obs::Counter* const lane_escalated = reg.GetCounter(
      "msk_lane_solver_lane_escalated_total", {},
      "Converged lanes escalated to a finer scalar grid");
  static obs::Counter* const lane_fallbacks = reg.GetCounter(
      "msk_lane_solver_lane_fallbacks_total", {},
      "Lanes finished on the scalar fallback path");
  static obs::Counter* const lane_warm = reg.GetCounter(
      "msk_lane_solver_warm_lanes_total", {},
      "Lanes seeded from the bucket's warm chain");
  static obs::Counter* const lane_prep_failures = reg.GetCounter(
      "msk_lane_solver_prep_failures_total", {},
      "Groups refused at lane prep (empty, atomic or unusable moments)");
  groups->Add(s.groups);
  cold->Add(s.solve.cold_solves);
  warm->Add(s.solve.warm_solves);
  cache_hits->Add(s.cache_hits);
  failed->Add(s.failed_solves);
  atomic_fb->Add(s.atomic_fallbacks);
  lane_enqueued->Add(s.lane.enqueued);
  lane_packed_solves->Add(s.lane.packed_solves);
  lane_packed_lanes->Add(s.lane.packed_lanes);
  lane_converged->Add(s.lane.lane_converged);
  lane_escalated->Add(s.lane.lane_escalated);
  lane_fallbacks->Add(s.lane.lane_fallbacks);
  lane_warm->Add(s.lane.warm_lanes);
  lane_prep_failures->Add(s.lane.prep_failures);
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
  std::vector<Group> groups;
  if (group_dims.size() == 1 && store.HasFreshRollup()) {
    // A single-dimension GROUP BY partitions the cells by that
    // dimension's value — exactly the per-value postings the rollup
    // index pre-merged. One planned query per distinct value folds span
    // nodes instead of every cell, so the merge side of a
    // high-cardinality GROUP BY shrinks by ~the span width.
    const size_t d = group_dims[0];
    CubeFilter filter(store.num_dims(), kAnyValue);
    store.dim_index(d).ForEachValue(
        [&](uint32_t value, const std::vector<uint32_t>&) {
          filter[d] = static_cast<int64_t>(value);
          Group g;
          g.key = {value};
          g.sketch = store.QueryWhere(filter);
          FillSimilarityFeatures(&g);
          groups.push_back(std::move(g));
        });
  } else {
    store.ForEachGroup(group_dims, [&](const CubeCoords& key,
                                       const MomentsSketch& sketch) {
      Group g;
      g.key = key;
      g.sketch = sketch;
      FillSimilarityFeatures(&g);
      groups.push_back(std::move(g));
    });
  }
  // Similarity order: identical-moment groups land adjacent (same chain,
  // so the cache absorbs them), near-identical ones neighbor each other
  // for warm starts. A plain lexicographic (m1, m2) sort jumps in m2 at
  // every m1 step; snaking through coarse m1 buckets keeps *both*
  // coordinates slowly varying along a chain, which is what the solver's
  // warm gate rewards. Key as final tiebreak keeps the order
  // deterministic.
  auto bucket = [](double m1) {
    return static_cast<int>(std::floor((m1 + 1.0) / 0.02));
  };
  std::sort(groups.begin(), groups.end(),
            [&](const Group& a, const Group& b) {
              if (a.log_usable != b.log_usable) {
                return a.log_usable < b.log_usable;
              }
              const int ba = bucket(a.m1), bb = bucket(b.m1);
              if (ba != bb) return ba < bb;
              const bool reverse = (ba & 1) != 0;  // snake direction
              if (a.m2 != b.m2) return reverse ? a.m2 > b.m2 : a.m2 < b.m2;
              if (a.m1 != b.m1) return a.m1 < b.m1;
              return a.key < b.key;
            });
  return groups;
}

// Per-shard solve facade over the lane-batched solver: cache lookup,
// in-flight coalescing of identical-key groups, then a lane. Results
// arrive through a consumer, possibly after later Solve calls fill the
// lane bucket; callers must invoke Finish() to drain pending lanes
// before reading results.
class ChainSolver {
 public:
  using DistResult = Result<std::shared_ptr<const MaxEntDistribution>>;
  using Consumer = std::function<void(const DistResult&)>;

  ChainSolver(SolverCache* cache, const BatchOptions& options,
              BatchStats* stats)
      : cache_(cache),
        options_(options),
        stats_(stats),
        lane_(options.maxent, options.use_warm_start,
              [this](size_t req, Result<MaxEntDistribution> res) {
                OnLaneResult(req, std::move(res));
              }) {}

  /// Requests a solve; `consumer` runs exactly once, either now (cache
  /// hit / degenerate or refused group) or when the group's lane bucket
  /// solves. References captured by the consumer must outlive Finish().
  void Solve(const MomentsSketch& sketch, Consumer consumer) {
    std::string key;
    if (cache_ != nullptr) {
      if (auto hit = cache_->Lookup(sketch, options_.maxent, &key)) {
        ++stats_->cache_hits;
        consumer(DistResult(std::move(hit)));
        return;
      }
      // In-flight coalescing: an identical-key group already waiting in
      // a lane bucket answers this request too — the similarity order
      // packs duplicates back-to-back, and solving them in separate
      // lanes would waste the cache's whole economy.
      auto pending = pending_by_key_.find(key);
      if (pending != pending_by_key_.end()) {
        ++stats_->cache_hits;
        requests_[pending->second].consumers.push_back(std::move(consumer));
        return;
      }
    }
    const size_t req = requests_.size();
    requests_.push_back(Request{std::move(key), {}});
    requests_[req].consumers.push_back(std::move(consumer));
    if (cache_ != nullptr) pending_by_key_[requests_[req].key] = req;
    lane_.Enqueue(req, sketch);
  }

  /// Drains every pending lane bucket (delivering their consumers).
  void Finish() {
    lane_.FlushAll();
    stats_->lane.MergeFrom(lane_.stats());
  }

 private:
  struct Request {
    std::string key;  // cache key ("" when the cache is off)
    std::vector<Consumer> consumers;
  };

  void OnLaneResult(size_t req, Result<MaxEntDistribution> res) {
    Request& r = requests_[req];
    if (cache_ != nullptr) pending_by_key_.erase(r.key);
    DistResult out = [&]() -> DistResult {
      if (!res.ok()) {
        stats_->solve.RecordRefusal(res.status());
        return res.status();
      }
      stats_->solve.Record(res->diagnostics());
      auto dist =
          std::make_shared<const MaxEntDistribution>(std::move(res.value()));
      if (cache_ != nullptr && !r.key.empty()) {
        cache_->InsertWithKey(std::move(r.key), dist);
      }
      return dist;
    }();
    for (const Consumer& c : r.consumers) c(out);
    r.consumers.clear();
  }

  SolverCache* cache_;
  const BatchOptions& options_;
  BatchStats* stats_;
  LaneMaxEntSolver lane_;
  std::deque<Request> requests_;
  std::unordered_map<std::string, size_t> pending_by_key_;
};

// Shards the similarity-ordered groups and runs `process(index, solver,
// shard_stats, shard)` for each group index; merges per-shard stats into
// *stats and publishes them. Pending lane solves drain before a shard
// finishes, so every consumer has run by the time this returns.
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
                   solver.Finish();
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
              // `st` is this per-group lambda's parameter: the consumer
              // may run after this frame is gone (lane bucket fill /
              // Finish), so it must be captured by value — it points at
              // the long-lived shard_stats slot.
              solver->Solve(
                  g.sketch, [&, i, st](const ChainSolver::DistResult& dist) {
                    const Group& g = groups[i];
                    GroupQuantiles& r = out[i];
                    if (dist.ok()) {
                      r.quantiles = dist.value()->Quantiles(phis);
                      r.k1 = dist.value()->diagnostics().k1;
                      r.k2 = dist.value()->diagnostics().k2;
                      return;
                    }
                    // Near-discrete group: mirror the cascade's fallback.
                    if (auto atomic = FitAtomicDistribution(g.sketch);
                        atomic.ok()) {
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
  // shard's chain solver so they join the lane buckets.
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
              // Cascade survivor: the final maxent stage streams through
              // the shard's chain solver, lane-filling with the other
              // survivors; the decision lands when the lane solves. `st`
              // (this lambda's parameter) is captured by value — the
              // consumer can outlive this frame.
              solver->Solve(
                  g.sketch, [&, i, shard, bounds,
                             st](const ChainSolver::DistResult& dist) {
                    const Group& g = groups[i];
                    const MaxEntDistribution* dp =
                        dist.ok() ? dist.value().get() : nullptr;
                    ThresholdCascade::MaxEntResolution resolution;
                    out[i].exceeds = cascades[shard].DecideWithDistribution(
                        dp, g.sketch, phi, t, bounds, &resolution);
                    if (resolution ==
                        ThresholdCascade::MaxEntResolution::kAtomic) {
                      ++st->atomic_fallbacks;
                    } else if (resolution ==
                               ThresholdCascade::MaxEntResolution::kBounds) {
                      ++st->failed_solves;
                    }
                  });
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
  // Each group's sorted rank sketch from the pre-solve stage (empty
  // without a KLL column), kept only while its group waits for a solve.
  std::vector<std::optional<KllSortedView>> sorted(n);
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
              if (RoutePreSolve(g.sketch, kll ? &*kll : nullptr, phis,
                                &out[i].answers, &router_stats,
                                &sorted[i])) {
                sorted[i].reset();
                return;
              }
              solver->Solve(g.sketch,
                            [&, i](const ChainSolver::DistResult& dist) {
                              RoutePostSolve(
                                  groups[i].sketch,
                                  sorted[i] ? &*sorted[i] : nullptr, phis,
                                  dist.ok() ? dist.value().get() : nullptr,
                                  &out[i].answers, &router_stats);
                              sorted[i].reset();
                            });
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
