// The four perfbench workloads. Each is a closed loop from one calling
// thread: the caller waits for every reply before issuing the next op,
// and epochs are published synchronously with Flush(). The only other
// thread is the replication source's Serve loop in ingest_replicated.
//
// Untraced ops call the public entry point and time it whole. Traced
// ops (--trace 1, every other op) run the same public calls the entry
// point makes, in the same order, with a timer between each: that gives
// the per-layer numbers, and their sum against the traced op time shows
// what the layers account for.
#include "workloads.h"

#include <cmath>
#include <filesystem>
#include <thread>

#include "common/bytes.h"
#include "core/bounds.h"
#include "core/compressed_sketch.h"
#include "cube/batch_query.h"
#include "ingest/streaming_cube.h"
#include "numerics/stats.h"
#include "replica/replica_applier.h"
#include "replica/replication_source.h"
#include "replica/transport.h"

namespace perfbench {

using msketch::CertifiedQuantile;
using msketch::CubeSnapshot;
using msketch::CubeStore;
using msketch::IngestOptions;
using msketch::KllSketch;
using msketch::MomentsSketch;
using msketch::MomentsSummary;
using msketch::RouterOptions;
using msketch::RouterStats;
using msketch::Status;
using msketch::StreamingCube;

namespace {

constexpr int kMomentsK = 10;  // the paper's k on milan
constexpr int kWarmupOps = 3;

// Starting state of every workload: rows published in large epochs.
constexpr size_t kSetupRows = 400000;
constexpr size_t kSetupEpochRows = 50000;

const std::vector<std::vector<size_t>>& AllGroupings() {
  static const std::vector<std::vector<size_t>> g = {
      {0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}};
  return g;
}

IngestOptions CubeOptions() {
  IngestOptions o;
  o.enable_kll = true;  // arms the certified router's KLL backend
  return o;
}

/// Pre-generated starting rows (input generation is not setup time).
std::vector<RowBatch> SetupBatches(RowSource* source,
                                   size_t rows = kSetupRows) {
  std::vector<RowBatch> out;
  for (size_t done = 0; done < rows; done += kSetupEpochRows) {
    out.push_back(source->Next(std::min(kSetupEpochRows, rows - done)));
  }
  return out;
}

/// Per-op times of the row path (traced ops only).
struct RowPathTimes {
  double encode_ms = 0.0;
  double append_ms = 0.0;
  double flush_ms = 0.0;
};

/// One epoch through the public row path: EncodeRows on the string
/// rows, AppendRows, Flush. Returns the snapshot Flush published.
std::shared_ptr<const CubeSnapshot> IngestEpoch(StreamingCube* cube,
                                                const RowBatch& batch,
                                                RowPathTimes* times,
                                                Status* status) {
  Clock::time_point t = Clock::now();
  auto coords = cube->EncodeRows(batch.strings);
  if (!coords.ok()) {
    *status = coords.status();
    return nullptr;
  }
  std::vector<msketch::IngestRow> rows(batch.size());
  for (size_t r = 0; r < batch.size(); ++r) {
    rows[r].coords = std::move(coords.value()[r]);
    rows[r].value = batch.values[r];
  }
  if (times != nullptr) {
    times->encode_ms = MsSince(t);
    t = Clock::now();
  }
  *status = cube->AppendRows(rows.data(), rows.size());
  if (times != nullptr) {
    times->append_ms = MsSince(t);
    t = Clock::now();
  }
  std::shared_ptr<const CubeSnapshot> snap = cube->Flush();
  if (times != nullptr) times->flush_ms = MsSince(t);
  return snap;
}

std::unique_ptr<StreamingCube> NewCube(const Schema& schema) {
  return std::make_unique<StreamingCube>(
      schema.num_dims(), MomentsSummary(kMomentsK), CubeOptions());
}

/// Builds and times the query workloads' starting state: one cube per
/// entry of `tenants`, each fed its batches.
std::vector<std::unique_ptr<StreamingCube>> BuildQueryCubes(
    const Schema& schema, const std::vector<std::vector<RowBatch>>& tenants,
    RssMeter* rss, Report* report) {
  std::vector<std::unique_ptr<StreamingCube>> cubes;
  rss->Start();
  const Clock::time_point t = Clock::now();
  for (const std::vector<RowBatch>& batches : tenants) {
    cubes.push_back(NewCube(schema));
    for (const RowBatch& b : batches) {
      Status st;
      IngestEpoch(cubes.back().get(), b, nullptr, &st);
      if (!st.ok()) {
        report->violations.push_back("setup ingest: " + st.ToString());
      }
    }
  }
  report->Set("setup_s", MsSince(t) / 1000.0, "s");
  size_t cells = 0;
  for (const auto& c : cubes) cells += c->Snapshot()->store.num_cells();
  report->Property("populated_cells", static_cast<double>(cells));
  report->Property("setup_rows", static_cast<double>(kSetupRows));
  return cubes;
}

std::unique_ptr<StreamingCube> BuildQueryCube(
    const Schema& schema, const std::vector<RowBatch>& batches,
    RssMeter* rss, Report* report) {
  return std::move(BuildQueryCubes(schema, {batches}, rss, report).front());
}

/// Decodes an engine group key into the oracle's selection.
Selection KeyToSelection(StreamingCube* cube, IdDecoder* ids,
                         const std::vector<size_t>& dims,
                         const CubeCoords& key) {
  Selection sel;
  sel.dims = dims;
  for (size_t i = 0; i < dims.size(); ++i) {
    sel.values.push_back(ids->Index(dims[i], key[i], [&](size_t d, uint32_t id) {
      return cube->DecodeValue(d, id).value();
    }));
  }
  return sel;
}

std::string SelectionName(const Schema& schema, const Selection& sel) {
  std::string s;
  for (size_t i = 0; i < sel.dims.size(); ++i) {
    if (i > 0) s += ",";
    s += schema.Value(sel.dims[i], sel.values[i]);
  }
  return s;
}

/// The two certificate halves of a selection on the cube's current
/// snapshot (for Checker::Check's known-defect test).
std::function<SplitCertificate()> SplitCertificates(
    const StreamingCube& cube, const std::vector<std::string>& filter,
    double phi) {
  return [&cube, filter, phi] {
    SplitCertificate c;
    c.moments = {0.0, -1.0};  // empty unless computed
    auto f = cube.EncodeFilter(filter);
    if (!f.ok()) return c;
    std::shared_ptr<const CubeSnapshot> snap = cube.Snapshot();
    c.moments = msketch::CertifiedQuantileInterval(
        snap->store.QueryWhere(f.value()), phi, RouterOptions().interval_steps);
    auto kll = snap->store.MergeKllWhere(f.value());
    if (!kll.ok() || kll.value().count() == 0) return c;
    auto k = kll.value().CertifiedInterval(phi);
    if (k.ok()) c.kll = {k.value().lower, k.value().upper};
    return c;
  };
}

/// A point query: a selection (1 or 2 constrained dims) and a phi.
struct PointQuery {
  Selection sel;
  std::vector<std::string> filter;  // engine string filter
  double phi = 0.5;
};

/// Draws `n` distinct non-empty point queries. Constrained values are
/// drawn with the rows' own skew, so selectivity ranges from a few
/// cells to a large share of the cube.
std::vector<PointQuery> QueryPool(const Schema& schema, const ExactIndex& exact,
                                  uint64_t seed, size_t n) {
  static const double kPhis[] = {0.5, 0.9, 0.95, 0.99};
  RowSource draw(schema, seed ^ 0x706f6f6cULL);
  msketch::Rng rng(seed ^ 0x71756572ULL);
  std::vector<PointQuery> pool;
  std::map<std::pair<uint64_t, size_t>, bool> seen;
  while (pool.size() < n) {
    const RowBatch one = draw.Next(1);
    PointQuery q;
    if (rng.NextDouble() < 0.4) {
      q.sel.dims = {static_cast<size_t>(rng.NextBelow(3))};
    } else {
      const size_t skip = rng.NextBelow(3);
      for (size_t d = 0; d < 3; ++d) {
        if (d != skip) q.sel.dims.push_back(d);
      }
    }
    for (size_t d : q.sel.dims) q.sel.values.push_back(one.index[0][d]);
    q.phi = kPhis[rng.NextBelow(4)];
    const uint64_t key = ExactIndex::Pack(q.sel.values) * 8 + q.sel.dims.size();
    const size_t grouping = exact.GroupingIndex(q.sel.dims);
    if (exact.Find(q.sel) == nullptr || seen[{key, grouping}]) continue;
    seen[{key, grouping}] = true;
    q.filter = q.sel.AsFilterStrings(schema);
    pool.push_back(std::move(q));
  }
  return pool;
}

/// Mildly skewed (Zipf s = 0.25) index over a pool: some queries repeat,
/// most are distinct, so a run does not hang on a few hot queries (with
/// s = 0.5 the p50 and throughput of point_certified moved with whether
/// the hottest queries happened to need a long solve).
class PoolPicker {
 public:
  PoolPicker(size_t n, uint64_t seed) : rng_(seed) {
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), 0.25);
      cdf_.push_back(acc);
    }
    for (double& c : cdf_) c /= acc;
  }
  size_t Next() {
    const double u = rng_.NextDouble();
    return std::min<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(),
        cdf_.size() - 1);
  }

 private:
  msketch::Rng rng_;
  std::vector<double> cdf_;
};

/// Per-layer accumulators of the query path (traced ops).
struct QueryLayers {
  Samples plan_merge_us;
  Samples kll_merge_us;
  Samples router_us;
  uint64_t merges = 0;
  uint64_t visited = 0;
  uint64_t plans[4] = {0, 0, 0, 0};
  uint64_t queries = 0;
  RouterStats router;
};

/// The certified point query decomposed into the public calls
/// StreamingCube::QueryQuantileCertified makes: planned merge, KLL
/// merge, router. Each call is timed.
CertifiedQuantile TracedPointQuery(const StreamingCube& cube,
                                   const PointQuery& q, QueryLayers* layers) {
  Clock::time_point t = Clock::now();
  CertifiedQuantile out;
  auto filter = cube.EncodeFilter(q.filter);
  if (!filter.ok()) {
    out.status = filter.status();
    return out;
  }
  std::shared_ptr<const CubeSnapshot> snap = cube.Snapshot();
  CubeStore::QueryStats qs;
  const MomentsSketch moments = snap->store.QueryWhere(filter.value(), &qs);
  layers->plan_merge_us.Add(MsSince(t) * 1000.0);
  t = Clock::now();
  auto kll = snap->store.MergeKllWhere(filter.value());
  layers->kll_merge_us.Add(MsSince(t) * 1000.0);
  t = Clock::now();
  RouterOptions opt;
  opt.maxent = cube.estimator_options();
  msketch::SummaryRouter router(opt);
  out = router.Query(moments, kll.ok() ? &kll.value() : nullptr, q.phi);
  layers->router_us.Add(MsSince(t) * 1000.0);
  layers->router.MergeFrom(router.stats());
  layers->merges += qs.merges;
  layers->visited += qs.visited;
  ++layers->plans[static_cast<int>(qs.plan)];
  ++layers->queries;
  return out;
}

double Share(uint64_t part, uint64_t total) {
  return total == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(total);
}

void SetQueryLayers(const QueryLayers& q, Report* r) {
  r->Set("cube.plan_merge_us", q.plan_merge_us.Mean(), "us");
  r->Set("sketches.kll_merge_us", q.kll_merge_us.Mean(), "us");
  r->Set("cube.router_us", q.router_us.Mean(), "us");
  r->Set("cube.cells_merged_per_query", Share(q.merges, q.queries), "count");
  r->Set("cube.cells_visited_per_query", Share(q.visited, q.queries), "count");
  static const char* kPlans[] = {"scan", "intersect", "rollup", "complement"};
  for (int p = 0; p < 4; ++p) {
    r->Set(std::string("cube.plan_share.") + kPlans[p],
           Share(q.plans[p], q.queries), "share");
  }
}

void SetRouterShares(const RouterStats& s, Report* r) {
  const uint64_t n = s.queries;
  r->Set("core.backend_share.moments", Share(s.moments_answers, n), "share");
  r->Set("core.backend_share.kll", Share(s.kll_answers, n), "share");
  r->Set("core.backend_share.atomic", Share(s.atomic_answers, n), "share");
  r->Set("core.backend_share.bounds", Share(s.bounds_fallbacks, n), "share");
  r->Set("core.solver_failure_share", Share(s.solver_failures, n), "share");
  r->Set("core.conditioning_reject_share", Share(s.conditioning_rejects, n),
         "share");
}

/// Fills every per-layer metric this workload does not run with 0, so
/// each run reports the full list.
void FillIdleLayers(Report* r) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    if (r->metrics.count(name) == 0) r->Set(name, 0.0, unit);
  }
}

/// obs.overhead and obs.accounted_share from the alternating traced and
/// untraced ops.
void SetObs(const Samples& untraced_ms, const Samples& traced_ms,
            double layer_ms_sum, Report* r) {
  r->Set("obs.overhead", traced_ms.Median() - untraced_ms.Median(), "ms");
  r->Set("obs.accounted_share",
         traced_ms.Sum() > 0 ? layer_ms_sum / traced_ms.Sum() : 0.0, "share");
  r->Property("ops_traced", static_cast<double>(traced_ms.size()));
  r->Property("ops_untraced", static_cast<double>(untraced_ms.size()));
}

void SetQuality(const Checker& check, Report* r) {
  r->Set("rank_error", check.MeanRankError(), "rank");
  r->Set("cert_width", check.MeanCertWidth(), "rank");
  r->Set("cert_coverage", check.Coverage(), "share");
  r->Property("answers_checked", static_cast<double>(check.checked()));
  r->Property("paper_rank_misses",
              static_cast<double>(check.paper_rank_misses()));
  r->Set("core.known_cert_misses", static_cast<double>(check.known_misses()),
         "count");
  r->Extra("known_cert_misses", static_cast<double>(check.known_misses()),
           "count");
  r->Extra("hair_cert_misses", static_cast<double>(check.hair_misses()),
           "count");
}

/// rss_mb is read after this many measured ops (or at the end of a
/// shorter loop), so that a faster program, which runs more ops and in
/// ingest_replicated and groupby_certified ingests more rows, does not
/// read as a larger one.
constexpr uint64_t kRssOps = 32;

/// The closed loop: kWarmupOps unmeasured ops, then ops until `seconds`
/// of wall time have passed (untimed checks included, so a run ends on
/// time). `op(i, measured)`. Sets rss_mb from `rss` after kRssOps ops.
template <typename Op>
void RunLoop(const RunOptions& o, const RssMeter& rss, Report* r, Op&& op) {
  for (int i = 0; i < kWarmupOps; ++i) op(static_cast<uint64_t>(i), false);
  const Clock::time_point start = Clock::now();
  uint64_t i = 0;
  for (; MsSince(start) < o.seconds * 1000.0; ++i) {
    op(i, true);
    if (i + 1 == kRssOps) r->Set("rss_mb", rss.GrowthMb(), "MB");
  }
  if (i < kRssOps) r->Set("rss_mb", rss.GrowthMb(), "MB");
}

void Finish(const Checker& check, Report* r) {
  for (const std::string& v : check.violations()) r->violations.push_back(v);
  if (!check.WithinMissCeiling()) {
    r->violations.push_back(
        "tolerated certificate misses over the ceiling: " +
        std::to_string(check.known_misses()) + " known + " +
        std::to_string(check.hair_misses()) + " hair of " +
        std::to_string(check.checked() + check.known_misses() +
                       check.hair_misses()) +
        " answers");
  }
  r->correct = r->violations.empty();
  r->Extra("failure_rate", Share(r->failed, r->attempted), "share");
}

// ------------------------------------------------------------ ingest

/// Bit-exact fingerprint of a store and its dictionaries: sketch
/// columns through the lossless codec, cell coordinates, KLL cells,
/// dictionary values.
std::vector<uint8_t> Fingerprint(
    const CubeStore& store, const std::vector<std::vector<std::string>>& dicts) {
  msketch::BytesWriter w;
  msketch::EncodeSketchColumns(store.Columns(), &w);
  for (size_t id = 0; id < store.num_cells(); ++id) {
    for (uint32_t c : store.CoordsOf(static_cast<uint32_t>(id))) w.PutU32(c);
  }
  w.PutU8(store.kll_enabled() ? 1 : 0);
  if (store.kll_enabled()) {
    for (size_t id = 0; id < store.num_cells(); ++id) {
      store.CellKll(static_cast<uint32_t>(id))->Serialize(&w);
    }
  }
  for (const std::vector<std::string>& dim : dicts) {
    w.PutU32(static_cast<uint32_t>(dim.size()));
    for (const std::string& v : dim) w.PutString(v);
  }
  return w.Take();
}

std::vector<uint8_t> LeaderFingerprint(const StreamingCube& cube) {
  std::vector<std::vector<std::string>> dicts(cube.num_dims());
  for (size_t d = 0; d < cube.num_dims(); ++d) {
    for (uint32_t id = 0;; ++id) {
      auto v = cube.DecodeValue(d, id);
      if (!v.ok()) break;
      dicts[d].push_back(v.value());
    }
  }
  return Fingerprint(cube.Snapshot()->store, dicts);
}

std::vector<uint8_t> FollowerFingerprint(const msketch::ReplicaApplier& a) {
  std::vector<uint8_t> fp;
  a.Inspect([&](const CubeStore& store,
                const std::vector<msketch::Dictionary>& dicts) {
    std::vector<std::vector<std::string>> values(dicts.size());
    for (size_t d = 0; d < dicts.size(); ++d) {
      for (uint32_t id = 0; id < dicts[d].size(); ++id) {
        values[d].push_back(dicts[d].ValueOf(id));
      }
    }
    fp = Fingerprint(store, values);
  });
  return fp;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

/// A replicated durable leader plus one follower on one long-lived
/// in-process connection, served by ReplicationSource::Serve.
struct ReplicatedPair {
  std::string dir;
  std::unique_ptr<msketch::ReplicationSource> source;
  std::unique_ptr<StreamingCube> cube;
  std::unique_ptr<msketch::ReplicaApplier> follower;
  std::unique_ptr<msketch::Transport> leader_end;
  std::unique_ptr<msketch::Transport> follower_end;
  std::thread serve;

  ReplicatedPair() = default;
  ReplicatedPair(const ReplicatedPair&) = delete;
  ReplicatedPair& operator=(const ReplicatedPair&) = delete;
  ~ReplicatedPair() {
    if (serve.joinable()) {
      source->RequestStop();
      follower_end->Close();
      serve.join();
    }
    cube.reset();  // borrows `source`
  }
};

constexpr size_t kRowsPerEpoch = 4096;

std::unique_ptr<ReplicatedPair> BuildReplicated(
    const Schema& schema, const std::vector<RowBatch>& batches,
    const std::string& dir, Status* status) {
  auto p = std::make_unique<ReplicatedPair>();
  p->dir = dir;
  p->source = std::make_unique<msketch::ReplicationSource>();
  p->cube = NewCube(schema);
  msketch::DurabilityOptions d;
  d.dir = dir;
  *status = p->cube->EnableDurability(d);
  if (!status->ok()) return p;
  *status = p->cube->EnableReplication(p->source.get());
  if (!status->ok()) return p;
  for (const RowBatch& b : batches) {
    IngestEpoch(p->cube.get(), b, nullptr, status);
    if (!status->ok()) return p;
  }
  msketch::ReplicaOptions ro;
  ro.kll_k = CubeOptions().kll_k;
  p->follower = std::make_unique<msketch::ReplicaApplier>(
      kMomentsK, schema.num_dims(), ro);
  auto pipe = msketch::MakeInProcessPipe();
  p->leader_end = std::move(pipe.first);
  p->follower_end = std::move(pipe.second);
  msketch::ReplicationSource* src = p->source.get();
  msketch::Transport* le = p->leader_end.get();
  p->serve = std::thread([src, le] { (void)src->Serve(le); });
  *status = p->follower->SyncWithRetry(p->follower_end.get());
  return p;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"setup_s", "s"},
      {"rss_mb", "MB"},
      {"throughput_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"cert_width", "rank"},
      {"cert_coverage", "share"},
  };
  return m;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"ingest.encode_ms", "ms"},
      {"ingest.append_ms", "ms"},
      {"ingest.drain_ms", "ms"},
      {"cube.publish_ms", "ms"},
      {"persist.log_ms", "ms"},
      {"persist.checkpoint_ms", "ms"},
      {"persist.wal_bytes_per_row", "B"},
      {"persist.checkpoints", "count"},
      {"persist.stored_bytes_per_row", "B"},
      {"replica.sync_ms", "ms"},
      {"replica.round_retries", "count"},
      {"replica.lag_epochs_after_sync", "count"},
      {"replica.bytes_shipped_per_row", "B"},
      {"cube.plan_merge_us", "us"},
      {"cube.cells_merged_per_query", "count"},
      {"cube.cells_visited_per_query", "count"},
      {"cube.plan_share.scan", "share"},
      {"cube.plan_share.intersect", "share"},
      {"cube.plan_share.rollup", "share"},
      {"cube.plan_share.complement", "share"},
      {"sketches.kll_merge_us", "us"},
      {"cube.router_us", "us"},
      {"core.backend_share.moments", "share"},
      {"core.backend_share.kll", "share"},
      {"core.backend_share.atomic", "share"},
      {"core.backend_share.bounds", "share"},
      {"core.solver_failure_share", "share"},
      {"core.conditioning_reject_share", "share"},
      {"cube.group_index_ms", "ms"},
      {"cube.cell_merge_ms", "ms"},
      {"cube.group_merge_ms", "ms"},
      {"cube.lane_groupby_ms", "ms"},
      {"core.cascade_share.simple", "share"},
      {"core.cascade_share.markov", "share"},
      {"core.cascade_share.rtt", "share"},
      {"core.cascade_share.maxent", "share"},
      {"core.known_cert_misses", "count"},
      {"obs.overhead", "ms"},
      {"obs.accounted_share", "share"},
  };
  return m;
}

// ------------------------------------------------------ ingest_replicated

Report RunIngestReplicated(const RunOptions& o) {
  Report r;
  r.workload = o.workload;
  const Schema schema;
  RowSource source(schema, o.seed);
  const std::vector<RowBatch> setup = SetupBatches(&source);
  ExactIndex exact(AllGroupings());
  for (const RowBatch& b : setup) exact.AddRows(b);
  const std::vector<PointQuery> pool = QueryPool(schema, exact, o.seed, 256);
  PoolPicker picker(pool.size(), o.seed ^ 0x70696b72ULL);

  const std::string dir = o.work_dir + "/ingest-" + std::to_string(o.seed);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Status st;
  RssMeter rss;
  rss.Start();
  const Clock::time_point t = Clock::now();
  std::unique_ptr<ReplicatedPair> pair = BuildReplicated(schema, setup, dir, &st);
  r.Set("setup_s", MsSince(t) / 1000.0, "s");
  if (!st.ok()) {
    r.violations.push_back("setup: " + st.ToString());
    r.correct = false;
    r.attempted = 1;
    r.failed = 1;
    return r;
  }
  r.Property("setup_rows", static_cast<double>(kSetupRows));
  r.Property("rows_per_epoch", static_cast<double>(kRowsPerEpoch));
  r.Property("query_pool", static_cast<double>(pool.size()));

  StreamingCube* cube = pair->cube.get();
  msketch::ReplicaApplier* follower = pair->follower.get();
  const msketch::DurabilityStats dur0 = cube->durability_stats();
  const msketch::ReplicationSourceStats src0 = pair->source->stats();
  const msketch::ReplicaApplierStats app0 = follower->stats();

  Checker check;
  // The oracle's growth up to the rss_mb reading (benchmark memory
  // inside that figure).
  const double oracle_bytes0 = exact.Bytes();
  double oracle_growth_mb = 0.0;
  Samples untraced_ms, traced_ms;
  Samples encode_ms, append_ms, drain_ms, publish_ms, log_ms, checkpoint_ms,
      sync_ms, lag_epochs;
  QueryLayers ql, warmup_ql;
  BackendMix mix;
  double layer_sum_ms = 0.0;
  uint64_t loop_rows = 0;

  RunLoop(o, rss, &r, [&](uint64_t i, bool measured) {
    const RowBatch batch = source.Next(kRowsPerEpoch);
    const PointQuery& q = pool[picker.Next()];
    const bool traced = o.trace && (i % 2 == 1);
    Status st;
    Status sync;
    CertifiedQuantile answer;
    std::shared_ptr<const CubeSnapshot> snap;
    RowPathTimes rp;
    msketch::PublisherStats ps;
    double sync_time = 0.0;

    const Clock::time_point t0 = Clock::now();
    if (!traced) {
      snap = IngestEpoch(cube, batch, nullptr, &st);
      sync = follower->SyncWithRetry(pair->follower_end.get());
      auto filter = cube->EncodeFilter(q.filter);
      if (filter.ok()) {
        answer = cube->QueryQuantileCertified(filter.value(), q.phi);
      } else {
        answer.status = filter.status();
      }
    } else {
      snap = IngestEpoch(cube, batch, &rp, &st);
      ps = cube->stats().publisher;
      const Clock::time_point ts = Clock::now();
      sync = follower->SyncWithRetry(pair->follower_end.get());
      sync_time = MsSince(ts);
      answer = TracedPointQuery(*cube, q, measured ? &ql : &warmup_ql);
    }
    const double op_ms = MsSince(t0);

    // Untimed: oracle update and checks. A failed op is a non-OK ingest
    // or a sync that failed after its retries; an uncertified answer or
    // one whose interval misses the exact quantile also breaks the gate.
    loop_rows += batch.size();
    exact.AddRows(batch);
    const uint64_t epoch = snap ? snap->epoch : 0;
    snap.reset();
    bool ok = st.ok() && sync.ok();
    const uint64_t applied = follower->applied_epoch();
    const std::vector<double>* truth = exact.Find(q.sel);
    ok = truth != nullptr &&
         check.Check(answer, *truth, q.phi, SelectionName(schema, q.sel),
                     SplitCertificates(*cube, q.filter, q.phi)) &&
         ok;
    if (answer.status.ok()) mix.Add(answer.backend);
    if (!measured) return;
    ++r.attempted;
    if (!ok) ++r.failed;
    if (r.attempted <= kRssOps) {
      oracle_growth_mb = (exact.Bytes() - oracle_bytes0) / 1048576.0;
    }
    lag_epochs.Add(static_cast<double>(epoch > applied ? epoch - applied : 0));
    if (!traced) {
      untraced_ms.Add(op_ms);
      return;
    }
    traced_ms.Add(op_ms);
    encode_ms.Add(rp.encode_ms);
    append_ms.Add(rp.append_ms);
    drain_ms.Add(ps.last_drain_ms);
    publish_ms.Add(ps.last_publish_ms - ps.last_drain_ms -
                   ps.last_durability_ms);
    log_ms.Add(ps.last_durability_ms);
    checkpoint_ms.Add(rp.flush_ms - ps.last_publish_ms);
    sync_ms.Add(sync_time);
    layer_sum_ms += rp.encode_ms + rp.append_ms + rp.flush_ms + sync_time;
  });
  layer_sum_ms += (ql.plan_merge_us.Sum() + ql.kll_merge_us.Sum() +
                   ql.router_us.Sum()) / 1000.0;
  r.Property("oracle_growth_mb", oracle_growth_mb);

  // Untimed: the follower catches up, then must be at the leader's
  // epoch and bit-identical to it.
  // Each round first drains one reply a stalled round left queued (see
  // README), so catching up takes up to one round per stall.
  Status final_sync;
  for (int round = 0; round < 16 && follower->applied_epoch() !=
                                        cube->last_published_epoch();
       ++round) {
    final_sync = follower->SyncWithRetry(pair->follower_end.get());
  }
  if (follower->applied_epoch() != cube->last_published_epoch()) {
    check.Violation("follower did not converge: " + final_sync.ToString());
  }
  // Untimed: the whole pool once more on the final snapshot, so that
  // rank_error and cert_width rest on more answers than one per epoch.
  for (const PointQuery& q : pool) {
    auto filter = cube->EncodeFilter(q.filter);
    const std::vector<double>* truth = exact.Find(q.sel);
    if (!filter.ok() || truth == nullptr) continue;
    const CertifiedQuantile a = cube->QueryQuantileCertified(filter.value(), q.phi);
    if (a.status.ok()) mix.Add(a.backend);
    check.Check(a, *truth, q.phi, SelectionName(schema, q.sel),
                SplitCertificates(*cube, q.filter, q.phi));
  }
  // Untimed: the follower must be bit-identical to the leader.
  if (LeaderFingerprint(*cube) != FollowerFingerprint(*follower)) {
    check.Violation("follower store is not bit-identical to the leader");
  }
  const msketch::DurabilityStats dur1 = cube->durability_stats();
  const msketch::ReplicationSourceStats src1 = pair->source->stats();
  const msketch::ReplicaApplierStats app1 = follower->stats();
  const double rows = static_cast<double>(std::max<uint64_t>(loop_rows, 1));
  const double total_rows = static_cast<double>(cube->rows_published());
  const double stored = static_cast<double>(DirBytes(pair->dir)) / total_rows;

  r.Property("populated_cells",
             static_cast<double>(cube->Snapshot()->store.num_cells()));
  r.Property("groups_per_call", 1.0);
  r.Property("router_backend_mix", mix.Describe());
  r.Property("follower_round_retries",
             static_cast<double>(app1.round_retries - app0.round_retries));
  r.Property("follower_lag_epochs_after_sync", lag_epochs.Mean());
  if (!o.trace) {
    r.AddLatency(untraced_ms, static_cast<double>(kRowsPerEpoch), "rows");
    r.Extra("stored_bytes_per_row", stored, "B");
  } else {
    r.Set("ingest.encode_ms", encode_ms.Mean(), "ms");
    r.Set("ingest.append_ms", append_ms.Mean(), "ms");
    r.Set("ingest.drain_ms", drain_ms.Mean(), "ms");
    r.Set("cube.publish_ms", publish_ms.Mean(), "ms");
    r.Set("persist.log_ms", log_ms.Mean(), "ms");
    r.Set("persist.checkpoint_ms", checkpoint_ms.Mean(), "ms");
    r.Set("replica.sync_ms", sync_ms.Mean(), "ms");
    SetQueryLayers(ql, &r);
    SetRouterShares(ql.router, &r);
    SetObs(untraced_ms, traced_ms, layer_sum_ms, &r);
  }
  // Counters over every measured op (traced and untraced alike).
  if (o.trace) {
    r.Set("persist.wal_bytes_per_row",
          static_cast<double>(dur1.wal_bytes - dur0.wal_bytes) / rows, "B");
    r.Set("persist.checkpoints",
          static_cast<double>(dur1.checkpoints_written -
                              dur0.checkpoints_written),
          "count");
    r.Set("persist.stored_bytes_per_row", stored, "B");
    r.Set("replica.lag_epochs_after_sync", lag_epochs.Mean(), "count");
    r.Set("replica.round_retries",
          static_cast<double>(app1.round_retries - app0.round_retries),
          "count");
    r.Set("replica.bytes_shipped_per_row",
          static_cast<double>(src1.bytes_shipped - src0.bytes_shipped) / rows,
          "B");
    FillIdleLayers(&r);
  }
  SetQuality(check, &r);
  Finish(check, &r);
  pair.reset();
  std::filesystem::remove_all(dir);
  return r;
}

// -------------------------------------------------------- point_certified

Report RunPointCertified(const RunOptions& o) {
  Report r;
  r.workload = o.workload;
  const Schema schema;
  RowSource source(schema, o.seed);
  const std::vector<RowBatch> setup = SetupBatches(&source);
  ExactIndex exact(AllGroupings());
  for (const RowBatch& b : setup) exact.AddRows(b);
  const std::vector<PointQuery> pool = QueryPool(schema, exact, o.seed, 4096);
  PoolPicker picker(pool.size(), o.seed ^ 0x70696b72ULL);

  RssMeter rss;
  std::unique_ptr<StreamingCube> cube =
      BuildQueryCube(schema, setup, &rss, &r);
  r.Property("query_pool", static_cast<double>(pool.size()));
  r.Property("groups_per_call", 1.0);

  Checker check;
  Samples untraced_ms, traced_ms;
  QueryLayers ql, warmup_ql;
  BackendMix mix;
  std::vector<bool> seen(pool.size(), false);
  uint64_t repeats = 0, one_dim = 0;

  RunLoop(o, rss, &r, [&](uint64_t i, bool measured) {
    const size_t idx = picker.Next();
    const PointQuery& q = pool[idx];
    const bool traced = o.trace && (i % 2 == 1);
    CertifiedQuantile answer;
    const Clock::time_point t0 = Clock::now();
    if (!traced) {
      auto filter = cube->EncodeFilter(q.filter);
      if (filter.ok()) {
        answer = cube->QueryQuantileCertified(filter.value(), q.phi);
      } else {
        answer.status = filter.status();
      }
    } else {
      answer = TracedPointQuery(*cube, q, measured ? &ql : &warmup_ql);
    }
    const double op_ms = MsSince(t0);
    const std::vector<double>* truth = exact.Find(q.sel);
    const bool ok = truth != nullptr &&
                    check.Check(answer, *truth, q.phi,
                                SelectionName(schema, q.sel),
                                SplitCertificates(*cube, q.filter, q.phi));
    if (answer.status.ok()) mix.Add(answer.backend);
    if (!measured) return;
    ++r.attempted;
    if (!ok) ++r.failed;
    if (seen[idx]) ++repeats;
    seen[idx] = true;
    if (q.sel.dims.size() == 1) ++one_dim;
    (traced ? traced_ms : untraced_ms).Add(op_ms);
  });

  r.Property("repeated_op_share", Share(repeats, r.attempted));
  r.Property("one_dim_filter_share", Share(one_dim, r.attempted));
  r.Property("router_backend_mix", mix.Describe());
  if (!o.trace) {
    r.AddLatency(untraced_ms, 1.0, "queries");
  } else {
    SetQueryLayers(ql, &r);
    SetRouterShares(ql.router, &r);
    SetObs(untraced_ms, traced_ms,
           (ql.plan_merge_us.Sum() + ql.kll_merge_us.Sum() +
            ql.router_us.Sum()) / 1000.0,
           &r);
    FillIdleLayers(&r);
  }
  SetQuality(check, &r);
  Finish(check, &r);
  return r;
}

// ------------------------------------------------------ groupby_certified

namespace {

/// GroupByQuantilesCertified decomposed into its public calls: the
/// ascending-key group index, the moment merge and KLL merge of each
/// group's cells, and the router's QueryMany, warm-start chained.
struct GroupLayers {
  Samples index_ms;
  Samples cell_merge_ms;
  Samples kll_merge_us;
  Samples router_us;
  RouterStats router;
};

std::vector<msketch::GroupQuantilesCertified> TracedGroupBy(
    const StreamingCube& cube, const std::vector<size_t>& dims,
    const std::vector<double>& phis, GroupLayers* layers) {
  std::shared_ptr<const CubeSnapshot> snap = cube.Snapshot();
  const CubeStore& store = snap->store;
  Clock::time_point t = Clock::now();
  std::map<CubeCoords, std::vector<uint32_t>> groups;
  for (uint32_t id = 0; id < store.num_cells(); ++id) {
    const CubeCoords& coords = store.CoordsOf(id);
    CubeCoords key(dims.size());
    for (size_t g = 0; g < dims.size(); ++g) key[g] = coords[dims[g]];
    groups[key].push_back(id);
  }
  layers->index_ms.Add(MsSince(t));
  RouterOptions opt;
  opt.maxent = cube.estimator_options();
  msketch::SummaryRouter router(opt);
  std::vector<msketch::GroupQuantilesCertified> out;
  double merge_ms = 0.0;
  bool have_warm = false;
  for (const auto& [key, ids] : groups) {
    msketch::GroupQuantilesCertified g;
    g.key = key;
    t = Clock::now();
    const MomentsSketch moments = store.MergeCells(ids.data(), ids.size());
    merge_ms += MsSince(t);
    g.count = moments.count();
    t = Clock::now();
    auto kll = store.MergeKllCells(ids.data(), ids.size());
    layers->kll_merge_us.Add(MsSince(t) * 1000.0);
    t = Clock::now();
    const msketch::WarmStart* hint =
        have_warm && router.last_warm_start().valid()
            ? &router.last_warm_start()
            : nullptr;
    g.answers =
        router.QueryMany(moments, kll.ok() ? &kll.value() : nullptr, phis, hint);
    layers->router_us.Add(MsSince(t) * 1000.0);
    have_warm = true;
    out.push_back(std::move(g));
  }
  layers->cell_merge_ms.Add(merge_ms);
  layers->router.MergeFrom(router.stats());
  return out;
}

}  // namespace

Report RunGroupByCertified(const RunOptions& o) {
  Report r;
  r.workload = o.workload;
  // Four regions per tenant, so a call has four groups. A typical group
  // solve takes a few ms, but 5-20 % of Newton runs hit the iteration
  // cap and take 100-200 ms. With eight groups about half the calls
  // would include one, and the median would flip between the two kinds
  // of call from run to run; with four, most calls have none.
  Schema schema;
  schema.cardinality[0] = 4;
  // Several tenants' cubes, queried in turn: how often the solver hits
  // its cap depends on the data, and one cube's few groups would decide
  // a run's numbers. Seventeen rather than nine cut the throughput's
  // coefficient of variation across eight seeds from 0.13 to 0.10, at
  // about 950 MB instead of 580 MB of engine memory.
  constexpr size_t kTenants = 17;
  std::vector<RowSource> sources;
  std::vector<std::vector<RowBatch>> setup;
  std::vector<ExactIndex> exact;
  for (size_t t = 0; t < kTenants; ++t) {
    sources.emplace_back(schema, o.seed * kTenants + t);
    setup.push_back(SetupBatches(&sources.back(), kSetupRows / kTenants));
    exact.emplace_back(std::vector<std::vector<size_t>>{{0}});
    for (const RowBatch& b : setup.back()) exact.back().AddRows(b);
  }
  RssMeter rss;
  std::vector<std::unique_ptr<StreamingCube>> cubes =
      BuildQueryCubes(schema, setup, &rss, &r);
  setup.clear();
  // The oracle's growth up to the rss_mb reading (benchmark memory
  // inside that figure).
  auto oracle_bytes = [&exact] {
    double bytes = 0.0;
    for (const ExactIndex& e : exact) bytes += e.Bytes();
    return bytes;
  };
  const double oracle_bytes0 = oracle_bytes();
  double oracle_growth_mb = 0.0;

  const std::vector<size_t> dims = {0};
  const std::vector<double> phis = {0.5, 0.9, 0.99};
  constexpr size_t kEpochRows = 2048;
  constexpr size_t kChecksPerCall = 6;
  msketch::Rng pick(o.seed ^ 0x67726f75ULL);
  std::vector<IdDecoder> ids(kTenants);
  Checker check;
  Samples untraced_ms, traced_ms, group_merge_ms, lane_ms;
  GroupLayers gl, warmup_gl;
  BackendMix mix;
  uint64_t groups_total = 0;
  r.Property("tenants", static_cast<double>(kTenants));
  r.Property("rows_per_epoch_between_calls", static_cast<double>(kEpochRows));
  r.Property("phis_per_group", static_cast<double>(phis.size()));

  RunLoop(o, rss, &r, [&](uint64_t i, bool measured) {
    const size_t tenant = i % kTenants;  // odd count: traced ops rotate too
    StreamingCube* cube = cubes[tenant].get();
    const bool traced = o.trace && (i % 2 == 1);
    std::vector<msketch::GroupQuantilesCertified> out;
    const Clock::time_point t0 = Clock::now();
    if (!traced) {
      RouterOptions opt;
      opt.maxent = cube->estimator_options();
      out = cube->GroupByQuantilesCertified(dims, phis, opt);
    } else {
      out = TracedGroupBy(*cube, dims, phis, measured ? &gl : &warmup_gl);
    }
    const double op_ms = MsSince(t0);

    // Untimed: reference probes of the same shape (traced ops only).
    if (traced && measured) {
      std::shared_ptr<const CubeSnapshot> snap = cube->Snapshot();
      Clock::time_point t = Clock::now();
      size_t n = 0;
      snap->store.ForEachGroup(
          dims, [&](const CubeCoords&, const MomentsSketch&) { ++n; });
      group_merge_ms.Add(MsSince(t));
      t = Clock::now();
      msketch::BatchOptions bo;
      bo.maxent = cube->estimator_options();
      (void)msketch::GroupByQuantiles(snap->store, dims, phis, bo);
      lane_ms.Add(MsSince(t));
    }
    // Untimed: check a sample of groups against the oracle.
    bool ok = !out.empty();
    for (const auto& g : out) {
      for (const CertifiedQuantile& a : g.answers) {
        if (a.status.ok()) mix.Add(a.backend);
        if (!a.status.ok() || !a.certified) {
          check.Violation("uncertified GROUP BY answer");
          ok = false;
        }
      }
    }
    for (size_t c = 0; c < kChecksPerCall && !out.empty(); ++c) {
      const auto& g = out[pick.NextBelow(out.size())];
      const Selection sel = KeyToSelection(cube, &ids[tenant], dims, g.key);
      const std::vector<double>* truth = exact[tenant].Find(sel);
      if (truth == nullptr || truth->size() != g.count) {
        check.Violation("group " + SelectionName(schema, sel) +
                        ": count differs from the oracle");
        ok = false;
        continue;
      }
      for (size_t p = 0; p < phis.size(); ++p) {
        ok = check.Check(g.answers[p], *truth, phis[p],
                         SelectionName(schema, sel),
                         SplitCertificates(*cube, sel.AsFilterStrings(schema),
                                           phis[p])) &&
             ok;
      }
    }
    // Untimed: a small epoch lands so no call repeats an earlier one.
    const RowBatch batch = sources[tenant].Next(kEpochRows);
    Status st;
    IngestEpoch(cube, batch, nullptr, &st);
    exact[tenant].AddRows(batch);
    if (!st.ok()) check.Violation("between-call epoch: " + st.ToString());
    if (!measured) return;
    ++r.attempted;
    if (!ok) ++r.failed;
    if (r.attempted <= kRssOps) {
      oracle_growth_mb = (oracle_bytes() - oracle_bytes0) / 1048576.0;
    }
    groups_total += out.size();
    (traced ? traced_ms : untraced_ms).Add(op_ms);
  });
  r.Property("oracle_growth_mb", oracle_growth_mb);

  const double groups_per_call = Share(groups_total, r.attempted);
  r.Property("groups_per_call", groups_per_call);
  r.Property("repeated_op_share", 0.0);
  r.Property("router_backend_mix", mix.Describe());
  if (!o.trace) {
    r.AddLatency(untraced_ms, groups_per_call, "groups");
  } else {
    r.Set("cube.group_index_ms", gl.index_ms.Mean(), "ms");
    r.Set("cube.cell_merge_ms", gl.cell_merge_ms.Mean(), "ms");
    r.Set("sketches.kll_merge_us", gl.kll_merge_us.Mean(), "us");
    r.Set("cube.router_us", gl.router_us.Mean(), "us");
    r.Set("cube.group_merge_ms", group_merge_ms.Mean(), "ms");
    r.Set("cube.lane_groupby_ms", lane_ms.Mean(), "ms");
    SetRouterShares(gl.router, &r);
    SetObs(untraced_ms, traced_ms,
           gl.index_ms.Sum() + gl.cell_merge_ms.Sum() +
               (gl.kll_merge_us.Sum() + gl.router_us.Sum()) / 1000.0,
           &r);
    FillIdleLayers(&r);
  }
  SetQuality(check, &r);
  Finish(check, &r);
  return r;
}

// ------------------------------------------------------ threshold_cascade

Report RunThresholdCascade(const RunOptions& o) {
  Report r;
  r.workload = o.workload;
  const Schema schema;
  RowSource source(schema, o.seed);
  const std::vector<RowBatch> setup = SetupBatches(&source);
  ExactIndex exact(AllGroupings());
  for (const RowBatch& b : setup) exact.AddRows(b);
  RssMeter rss;
  std::unique_ptr<StreamingCube> cube =
      BuildQueryCube(schema, setup, &rss, &r);

  // Thresholds at the alerting end: between the exact phi-quantiles of
  // the groups ranked just below and above the given share of groups,
  // so a few groups exceed and no threshold ties a group's quantile
  // (outside timing, from the oracle).
  struct Alert {
    std::vector<size_t> dims;
    double phi;
    double t;
  };
  const std::vector<size_t> alert_dims = {0, 2};
  constexpr double kAlertPhi = 0.99;
  std::vector<double> qs;
  for (const auto& [key, vals] :
       exact.Groups(exact.GroupingIndex(alert_dims))) {
    qs.push_back(msketch::QuantileOfSorted(vals, kAlertPhi));
  }
  std::sort(qs.begin(), qs.end());
  std::vector<Alert> alerts;
  for (double level : {0.998, 0.999}) {
    const size_t j = std::min(qs.size() - 2, static_cast<size_t>(
                                                 level * qs.size()));
    alerts.push_back({alert_dims, kAlertPhi, 0.5 * (qs[j] + qs[j + 1])});
  }
  IdDecoder ids;
  Checker check;
  BackendMix mix;
  // Untimed, once: a fixed sample of groups gets a certified answer at
  // the alerting phi, checked against the oracle. The snapshot never
  // changes, so checking per call would only repeat these answers.
  {
    constexpr size_t kCheckedGroups = 128;
    const auto& groups = exact.Groups(exact.GroupingIndex(alert_dims));
    std::vector<uint64_t> keys;
    for (const auto& [key, vals] : groups) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    msketch::Rng pick(o.seed ^ 0x74687265ULL);
    for (size_t c = 0; c < kCheckedGroups && !keys.empty(); ++c) {
      const uint64_t key = keys[pick.NextBelow(keys.size())];
      Selection sel;
      sel.dims = alert_dims;
      sel.values = {static_cast<uint16_t>(key >> 16),
                    static_cast<uint16_t>(key & 0xffff)};
      auto filter = cube->EncodeFilter(sel.AsFilterStrings(schema));
      if (!filter.ok()) continue;
      const CertifiedQuantile cq =
          cube->QueryQuantileCertified(filter.value(), kAlertPhi);
      if (cq.status.ok()) mix.Add(cq.backend);
      check.Check(cq, groups.at(key), kAlertPhi, SelectionName(schema, sel),
                  SplitCertificates(*cube, sel.AsFilterStrings(schema),
                                    kAlertPhi));
    }
  }
  Samples untraced_ms, traced_ms, group_merge_ms;
  msketch::BatchStats bs;
  uint64_t groups_total = 0, exceeded = 0, wrong = 0, decisions = 0;

  RunLoop(o, rss, &r, [&](uint64_t i, bool measured) {
    const Alert& a = alerts[i % alerts.size()];
    const bool traced = o.trace && (i % 2 == 1);
    msketch::BatchOptions opt;
    opt.maxent = cube->estimator_options();
    msketch::BatchStats call;
    const Clock::time_point t0 = Clock::now();
    const std::vector<msketch::GroupThreshold> out =
        cube->GroupByThreshold(a.dims, a.phi, a.t, opt, &call);
    const double op_ms = MsSince(t0);
    if (traced && measured) {
      std::shared_ptr<const CubeSnapshot> snap = cube->Snapshot();
      const Clock::time_point t = Clock::now();
      snap->store.ForEachGroup(a.dims,
                               [](const CubeCoords&, const MomentsSketch&) {});
      group_merge_ms.Add(MsSince(t));
    }
    // Untimed: every decision against the exact answer.
    bool ok = !out.empty();
    for (const msketch::GroupThreshold& g : out) {
      const Selection sel = KeyToSelection(cube.get(), &ids, a.dims, g.key);
      const std::vector<double>* truth = exact.Find(sel);
      if (truth == nullptr) {
        check.Violation("threshold group missing from the oracle");
        ok = false;
        continue;
      }
      const bool exact_exceeds = msketch::QuantileOfSorted(*truth, a.phi) > a.t;
      ++decisions;
      if (g.exceeds != exact_exceeds) {
        ++wrong;
        // Tolerated only when t's rank in the group lies within 0.02
        // (plus one rank step) of phi: the maxent stage's estimate may
        // land on either side of a threshold that close.
        const double n = static_cast<double>(truth->size());
        const double below =
            static_cast<double>(msketch::RankOfSorted(*truth, a.t)) / n;
        const double at_or_below =
            static_cast<double>(std::upper_bound(truth->begin(),
                                                 truth->end(), a.t) -
                                truth->begin()) /
            n;
        const double distance =
            a.phi < below ? below - a.phi
                          : (a.phi > at_or_below ? a.phi - at_or_below : 0.0);
        if (distance > 0.02 + 1.0 / n) {
          check.Violation("threshold decision wrong for " +
                          SelectionName(schema, sel));
          ok = false;
        }
      }
    }
    if (!measured) return;
    ++r.attempted;
    if (!ok) ++r.failed;
    groups_total += out.size();
    for (const auto& g : out) exceeded += g.exceeds ? 1 : 0;
    bs.MergeFrom(call);
    (traced ? traced_ms : untraced_ms).Add(op_ms);
  });

  const double groups_per_call = Share(groups_total, r.attempted);
  r.Property("groups_per_call", groups_per_call);
  r.Property("exceeded_share", Share(exceeded, groups_total));
  r.Property("wrong_decision_share", Share(wrong, decisions));
  r.Property("repeated_op_share",
             Share(r.attempted > alerts.size() ? r.attempted - alerts.size() : 0,
                   r.attempted));
  const msketch::CascadeStats& c = bs.cascade;
  r.Property("cascade_stage_shares",
             "simple=" + Fixed(Share(c.resolved_simple, c.total), 3) +
                 " markov=" + Fixed(Share(c.resolved_markov, c.total), 3) +
                 " rtt=" + Fixed(Share(c.resolved_rtt, c.total), 3) +
                 " maxent=" + Fixed(Share(c.resolved_maxent, c.total), 3));
  r.Property("checked_sample_backend_mix", mix.Describe());
  if (!o.trace) {
    r.AddLatency(untraced_ms, groups_per_call, "groups");
  } else {
    r.Set("cube.group_merge_ms", group_merge_ms.Mean(), "ms");
    r.Set("core.cascade_share.simple", Share(c.resolved_simple, c.total),
          "share");
    r.Set("core.cascade_share.markov", Share(c.resolved_markov, c.total),
          "share");
    r.Set("core.cascade_share.rtt", Share(c.resolved_rtt, c.total), "share");
    r.Set("core.cascade_share.maxent", Share(c.resolved_maxent, c.total),
          "share");
    // The threshold entry point is one public call; the traced op times
    // it whole, so it accounts for all of itself.
    SetObs(untraced_ms, traced_ms, traced_ms.Sum(), &r);
    FillIdleLayers(&r);
  }
  SetQuality(check, &r);
  Finish(check, &r);
  return r;
}

}  // namespace perfbench
