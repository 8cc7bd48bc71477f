// Replication-layer tests: frame codec integrity, in-process pipe
// semantics, backoff budgets, source/applier protocol behavior, and
// the tentpole acceptance — a fault-injection soak that drops,
// duplicates, reorders, tears, bit-flips, or resets the link at EVERY
// leader frame boundary and asserts the follower converges to a
// bit-identical replica (columns, coordinates, KLL side column, and
// dictionaries) within the retry budget, while certified queries keep
// answering from the applied state throughout any outage.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "core/compressed_sketch.h"
#include "core/moments_summary.h"
#include "cube/cube_store.h"
#include "cube/dictionary.h"
#include "ingest/streaming_cube.h"
#include "persist/env.h"
#include "persist/fault_env.h"
#include "persist/wal.h"
#include "replica/backoff.h"
#include "replica/fault_transport.h"
#include "replica/frame.h"
#include "replica/replica_applier.h"
#include "replica/replication_source.h"
#include "replica/transport.h"
#include "sketches/kll_sketch.h"

namespace msketch {
namespace {

using std::chrono::milliseconds;

constexpr int kK = 7;
constexpr size_t kDims = 2;
constexpr int kKllK = 32;

// ------------------------------------------------------------ fixtures

/// Bit-exact fingerprint of a replica state: every sketch-column byte
/// (through the lossless codec), every cell's coordinates in id order,
/// every cell's serialized KLL sketch, and every dictionary value.
std::vector<uint8_t> Fingerprint(const CubeStore& store,
                                 const std::vector<std::vector<std::string>>&
                                     dict_values) {
  BytesWriter w;
  EncodeSketchColumns(store.Columns(), &w);
  for (size_t id = 0; id < store.num_cells(); ++id) {
    for (uint32_t c : store.CoordsOf(static_cast<uint32_t>(id))) w.PutU32(c);
  }
  w.PutU8(store.kll_enabled() ? 1 : 0);
  if (store.kll_enabled()) {
    for (size_t id = 0; id < store.num_cells(); ++id) {
      store.CellKll(static_cast<uint32_t>(id))->Serialize(&w);
    }
  }
  for (const std::vector<std::string>& dim : dict_values) {
    w.PutU32(static_cast<uint32_t>(dim.size()));
    for (const std::string& v : dim) w.PutString(v);
  }
  return w.Take();
}

std::vector<std::vector<std::string>> LeaderDicts(const StreamingCube& cube) {
  std::vector<std::vector<std::string>> out(cube.num_dims());
  for (size_t d = 0; d < cube.num_dims(); ++d) {
    for (uint32_t id = 0;; ++id) {
      Result<std::string> v = cube.DecodeValue(d, id);
      if (!v.ok()) break;
      out[d].push_back(v.value());
    }
  }
  return out;
}

std::vector<uint8_t> FollowerFingerprint(const ReplicaApplier& applier) {
  std::vector<uint8_t> fp;
  applier.Inspect([&](const CubeStore& store,
                      const std::vector<Dictionary>& dicts) {
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

ReplicationOptions SourceOptions() {
  ReplicationOptions opt;
  // Small history forces fresh followers through the snapshot path
  // (snapshot + chunked image + trailing deltas in one exchange).
  opt.history_epochs = 2;
  opt.chunk_bytes = 512;  // several chunks per image
  opt.heartbeat_interval = milliseconds(15);
  opt.recv_poll = milliseconds(2);
  opt.send_backoff.initial = milliseconds(1);
  opt.send_backoff.max = milliseconds(4);
  opt.send_backoff.max_attempts = 6;
  return opt;
}

ReplicaOptions ApplierOptions() {
  ReplicaOptions opt;
  opt.kll_k = kKllK;
  opt.retry.initial = milliseconds(1);
  opt.retry.max = milliseconds(8);
  opt.retry.max_attempts = 8;
  opt.recv_timeout = milliseconds(40);
  opt.heartbeat_miss_budget = 4;
  return opt;
}

/// A leader cube with replication enabled and a deterministic
/// 2-string-dim workload published across several epochs.
IngestOptions LeaderIngest() {
  IngestOptions options;
  options.num_shards = 2;
  options.enable_kll = true;
  options.kll_k = kKllK;
  return options;
}

struct Leader {
  std::unique_ptr<ReplicationSource> source;
  std::unique_ptr<StreamingCube> cube;

  explicit Leader(size_t epochs,
                  const ReplicationOptions& options = SourceOptions()) {
    cube = std::make_unique<StreamingCube>(kDims, MomentsSummary(kK),
                                           LeaderIngest());
    source = std::make_unique<ReplicationSource>(options);
    EXPECT_TRUE(cube->EnableReplication(source.get()).ok());
    AppendEpochs(epochs);
  }

  void AppendEpochs(size_t epochs) {
    static const char* kRegions[] = {"us-east", "eu-west", "ap-south"};
    static const char* kServices[] = {"api", "web", "db", "cache"};
    for (size_t e = 0; e < epochs; ++e) {
      for (size_t i = 0; i < 40; ++i) {
        const double v = 0.5 + 0.37 * static_cast<double>((i * 7 + e) % 23) +
                         static_cast<double>(e);
        EXPECT_TRUE(cube->AppendRow({kRegions[(i + e) % 3],
                                     kServices[(i * 3 + e) % 4]},
                                    v)
                        .ok());
      }
      cube->Flush();
    }
  }

  uint64_t epoch() const { return cube->last_published_epoch(); }

  std::vector<uint8_t> fingerprint() const {
    std::shared_ptr<const CubeSnapshot> snap = cube->Snapshot();
    return Fingerprint(snap->store, LeaderDicts(*cube));
  }
};

enum class FaultKind {
  kNone,
  kDrop,
  kDuplicate,
  kReorder,
  kTear,
  kFlip,
  kDelay,
  kReset,
};

const char* FaultName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kTear: return "tear";
    case FaultKind::kFlip: return "flip";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kReset: return "reset";
  }
  return "?";
}

void ArmFault(FaultInjectingTransport* t, FaultKind kind, int64_t index) {
  switch (kind) {
    case FaultKind::kNone: break;
    case FaultKind::kDrop: t->DropFrame(index); break;
    case FaultKind::kDuplicate: t->DuplicateFrame(index); break;
    case FaultKind::kReorder: t->ReorderFrame(index); break;
    case FaultKind::kTear: t->TearFrame(index, 5); break;
    case FaultKind::kFlip: t->FlipBit(index, 37); break;
    case FaultKind::kDelay: t->DelayFrame(index, 30); break;
    case FaultKind::kReset: t->ResetAtFrame(index); break;
  }
}

// Mirrors the applier's round-retry class: transient transport errors
// and link corruption both warrant another round/connection.
bool RoundRetryable(const Status& st) {
  return IsRetryable(st) || st.code() == StatusCode::kCorruption;
}

struct ScenarioResult {
  bool converged = false;
  Status last_status;
  uint64_t clean_run_frames = 0;  // leader sends on the first connection
  int connections = 0;
  bool query_available_during_outage = true;
  ReplicaApplierStats applier_stats;
};

/// Syncs a fresh follower against `leader` with one fault armed on the
/// first connection, reconnecting (clean) as needed, until the
/// follower reaches the leader's epoch or the attempt budget ends.
ScenarioResult RunScenario(Leader* leader, FaultKind kind, int64_t index) {
  ScenarioResult r;
  ReplicaApplier applier(kK, kDims, ApplierOptions());
  const uint64_t target = leader->epoch();
  bool armed = false;
  for (int conn = 0; conn < 6; ++conn) {
    ++r.connections;
    auto pipe = MakeInProcessPipe();
    FaultInjectingTransport leader_end(std::move(pipe.first));
    std::unique_ptr<Transport> follower_end = std::move(pipe.second);
    if (!armed) {
      ArmFault(&leader_end, kind, index);
      armed = true;
    }
    std::thread serve([&] { (void)leader->source->Serve(&leader_end); });
    Status st = applier.SyncWithRetry(follower_end.get());
    leader->source->RequestStop();
    follower_end->Close();
    serve.join();
    r.last_status = st;
    if (conn == 0) r.clean_run_frames = leader_end.stats().frames_sent;
    if (st.ok() && applier.applied_epoch() >= target) {
      r.converged = true;
      break;
    }
    if (!st.ok() && !RoundRetryable(st)) break;
    // Outage (reset scenarios land here): the follower must keep
    // answering certified queries from its applied state.
    if (applier.applied_epoch() > 0) {
      CertifiedQuantile q = applier.QueryQuantileCertified({"", ""}, 0.5);
      if (!q.certified || !q.status.ok()) {
        r.query_available_during_outage = false;
      }
    }
  }
  r.applier_stats = applier.stats();
  if (r.converged) {
    EXPECT_EQ(FollowerFingerprint(applier), leader->fingerprint())
        << "fault=" << FaultName(kind) << " frame=" << index;
  }
  return r;
}

// --------------------------------------------------------- frame codec

TEST(FrameTest, RoundTripsEveryPayloadType) {
  HelloFrame hello;
  hello.have_epoch = 42;
  hello.k = 7;
  hello.num_dims = 2;
  hello.kll_k = 32;
  hello.resume = true;
  hello.resume_epoch = 40;
  hello.resume_next_chunk = 3;
  Result<HelloFrame> h = DecodeHello(EncodeHello(hello));
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h.value().have_epoch, 42u);
  EXPECT_EQ(h.value().k, 7u);
  EXPECT_TRUE(h.value().resume);
  EXPECT_EQ(h.value().resume_epoch, 40u);
  EXPECT_EQ(h.value().resume_next_chunk, 3u);

  SnapChunkFrame chunk;
  chunk.chunk_index = 5;
  chunk.bytes = {1, 2, 3, 4, 5};
  Result<SnapChunkFrame> c = DecodeSnapChunk(EncodeSnapChunk(chunk));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value().chunk_index, 5u);
  EXPECT_EQ(c.value().bytes, chunk.bytes);

  const std::vector<uint8_t> wire =
      EncodeFrame(FrameType::kSnapChunk, EncodeSnapChunk(chunk));
  Result<Frame> frame = DecodeFrame(wire);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame.value().type, FrameType::kSnapChunk);
}

TEST(FrameTest, DetectsTornFlippedAndUnknownFrames) {
  SnapEndFrame end;
  end.snapshot_epoch = 9;
  end.image_crc = 0x1234;
  // A kDelta frame carrying an epoch record with a dictionary delta and
  // a KLL cell: the same sealed bytes the WAL reader sees.
  const CubeCoords coords = {1, 0};
  MomentsSketch sketch(kK);
  KllSketch kll(8);
  for (int i = 0; i < 40; ++i) {
    sketch.Accumulate(0.5 * i);
    kll.Accumulate(0.5 * i);
  }
  BytesWriter record;
  EpochDelta cells(coords.size(), kK);
  const KllView kll_view = kll.View();
  cells.Append(coords.data(), sketch, &kll_view);
  EncodeEpochRecord(4, {2, 0}, {{"ap-south"}, {"api", "db"}}, cells,
                    &record);
  const std::vector<std::vector<uint8_t>> wires = {
      EncodeFrame(FrameType::kSnapEnd, EncodeSnapEnd(end)),
      EncodeFrame(FrameType::kDelta, record.bytes())};

  for (const std::vector<uint8_t>& wire : wires) {
    ASSERT_TRUE(DecodeFrame(wire).ok());
    // Torn: any strict prefix fails as Corruption, never parses.
    for (size_t keep = 0; keep < wire.size(); ++keep) {
      std::vector<uint8_t> torn(wire.begin(), wire.begin() + keep);
      Result<Frame> f = DecodeFrame(torn);
      ASSERT_FALSE(f.ok());
      EXPECT_EQ(f.status().code(), StatusCode::kCorruption);
    }
    // Flipped: every single-bit flip fails as Corruption (the CRC, or
    // a length prefix that no longer matches the frame).
    for (size_t bit = 0; bit < wire.size() * 8; ++bit) {
      std::vector<uint8_t> flipped = wire;
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      Result<Frame> f = DecodeFrame(flipped);
      ASSERT_FALSE(f.ok()) << "bit " << bit;
      EXPECT_EQ(f.status().code(), StatusCode::kCorruption) << "bit " << bit;
    }
    // Unknown type byte (offset 8 = after crc + len) fails closed.
    std::vector<uint8_t> unknown = wire;
    unknown[8] = 0x77;
    EXPECT_FALSE(DecodeFrame(unknown).ok());
  }
}

// ------------------------------------------------------------ transport

TEST(TransportTest, PipeDeliversBothWaysAndResetsBothEnds) {
  auto pipe = MakeInProcessPipe();
  ASSERT_TRUE(pipe.first->Send({1, 2, 3}).ok());
  Result<std::vector<uint8_t>> got = pipe.second->Recv(milliseconds(100));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), (std::vector<uint8_t>{1, 2, 3}));

  ASSERT_TRUE(pipe.second->Send({9}).ok());
  ASSERT_TRUE(pipe.first->Recv(milliseconds(100)).ok());

  // Timeout while connected = idle, not dead.
  Result<std::vector<uint8_t>> idle = pipe.first->Recv(milliseconds(5));
  EXPECT_FALSE(idle.ok());
  EXPECT_EQ(idle.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(pipe.first->connected());

  // Close resets both endpoints; queued frames still drain first.
  ASSERT_TRUE(pipe.first->Send({7}).ok());
  pipe.first->Close();
  EXPECT_FALSE(pipe.second->connected());
  Result<std::vector<uint8_t>> drained = pipe.second->Recv(milliseconds(5));
  ASSERT_TRUE(drained.ok());  // the frame was queued before the close
  EXPECT_EQ(drained.value(), (std::vector<uint8_t>{7}));
  EXPECT_FALSE(pipe.second->Recv(milliseconds(5)).ok());
  EXPECT_FALSE(pipe.first->Send({1}).ok());
}

TEST(TransportTest, FaultInjectionPerturbsExactlyOneFrame) {
  auto pipe = MakeInProcessPipe();
  FaultInjectingTransport faulty(std::move(pipe.first));
  faulty.DropFrame(1);
  ASSERT_TRUE(faulty.Send({0}).ok());
  ASSERT_TRUE(faulty.Send({1}).ok());  // dropped (sender sees success)
  ASSERT_TRUE(faulty.Send({2}).ok());
  EXPECT_EQ(pipe.second->Recv(milliseconds(50)).value(),
            (std::vector<uint8_t>{0}));
  EXPECT_EQ(pipe.second->Recv(milliseconds(50)).value(),
            (std::vector<uint8_t>{2}));
  const FaultTransportStats stats = faulty.stats();
  EXPECT_EQ(stats.frames_sent, 3u);
  EXPECT_EQ(stats.frames_dropped, 1u);
}

TEST(BackoffTest, BudgetAndClassGateRetries) {
  BackoffPolicy policy;
  policy.initial = milliseconds(1);
  policy.max = milliseconds(4);
  policy.max_attempts = 3;
  Backoff backoff(policy, /*seed=*/7);
  // Non-retryable status never retries, whatever the budget.
  EXPECT_FALSE(backoff.ShouldRetry(Status::Corruption("x")));
  EXPECT_FALSE(backoff.ShouldRetry(Status::InvalidArgument("x")));
  // Retryable status retries until the attempt budget is spent.
  EXPECT_TRUE(backoff.ShouldRetry(Status::Unavailable("x")));
  (void)backoff.NextDelay();
  EXPECT_TRUE(backoff.ShouldRetry(Status::Unavailable("x")));
  (void)backoff.NextDelay();
  EXPECT_FALSE(backoff.ShouldRetry(Status::Unavailable("x")));
  backoff.Reset();
  EXPECT_TRUE(backoff.ShouldRetry(Status::IOError("x")));
}

// -------------------------------------------------------- happy paths

TEST(ReplicationTest, FreshFollowerSyncsThroughSnapshotAndDeltas) {
  Leader leader(/*epochs=*/5);
  ReplicaApplier applier(kK, kDims, ApplierOptions());

  auto pipe = MakeInProcessPipe();
  std::thread serve(
      [&] { (void)leader.source->Serve(pipe.first.get()); });
  Status st = applier.SyncWithRetry(pipe.second.get());
  leader.source->RequestStop();
  pipe.second->Close();
  serve.join();

  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(applier.applied_epoch(), leader.epoch());
  EXPECT_EQ(applier.lag_epochs(), 0u);
  // History (2 epochs) cannot cover a 5-epoch backlog: the follower
  // must have installed a snapshot, then applied the trailing deltas.
  const ReplicaApplierStats stats = applier.stats();
  EXPECT_EQ(stats.resyncs, 1u);
  EXPECT_GE(stats.snapshot_chunks, 2u);
  EXPECT_EQ(FollowerFingerprint(applier), leader.fingerprint());

  // The replica answers certified queries, intervals enclosing the
  // estimate, for both filtered and unfiltered selections.
  CertifiedQuantile q = applier.QueryQuantileCertified({"", ""}, 0.5);
  ASSERT_TRUE(q.status.ok());
  EXPECT_TRUE(q.certified);
  EXPECT_LE(q.interval.lower, q.estimate);
  EXPECT_GE(q.interval.upper, q.estimate);
  CertifiedQuantile qf = applier.QueryQuantileCertified({"us-east", ""}, 0.9);
  ASSERT_TRUE(qf.status.ok());
  EXPECT_TRUE(qf.certified);
}

TEST(ReplicationTest, IncrementalCatchUpUsesDeltasNotResync) {
  Leader leader(/*epochs=*/2);
  ReplicaApplier applier(kK, kDims, ApplierOptions());

  auto sync_once = [&] {
    auto pipe = MakeInProcessPipe();
    std::thread serve(
        [&] { (void)leader.source->Serve(pipe.first.get()); });
    Status st = applier.SyncWithRetry(pipe.second.get());
    leader.source->RequestStop();
    pipe.second->Close();
    serve.join();
    return st;
  };

  ASSERT_TRUE(sync_once().ok());
  const uint64_t resyncs_after_first = applier.stats().resyncs;
  // Publish two more epochs (within history) and catch up again: the
  // follower chains deltas onto its applied epoch, no snapshot.
  leader.AppendEpochs(2);
  ASSERT_TRUE(sync_once().ok());
  EXPECT_EQ(applier.applied_epoch(), leader.epoch());
  EXPECT_EQ(applier.stats().resyncs, resyncs_after_first);
  EXPECT_EQ(FollowerFingerprint(applier), leader.fingerprint());
}

TEST(ReplicationTest, ShapeMismatchIsRefusedTerminally) {
  Leader leader(/*epochs=*/1);
  ReplicaOptions wrong = ApplierOptions();
  wrong.kll_k = 0;  // leader dual-writes KLL; this follower doesn't
  ReplicaApplier applier(kK, kDims, wrong);

  auto pipe = MakeInProcessPipe();
  std::thread serve(
      [&] { (void)leader.source->Serve(pipe.first.get()); });
  Status st = applier.SyncWithRetry(pipe.second.get());
  leader.source->RequestStop();
  pipe.second->Close();
  serve.join();

  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(IsRetryable(st));
}

// ------------------------------------------------------ round numbers

TEST(ReplicationTest, HeartbeatsQueuedWhileIdleDoNotStallTheNextRound) {
  Leader leader(/*epochs=*/2);
  ReplicaApplier applier(kK, kDims, ApplierOptions());
  auto pipe = MakeInProcessPipe();
  std::thread serve([&] { (void)leader.source->Serve(pipe.first.get()); });
  ASSERT_TRUE(applier.SyncWithRetry(pipe.second.get()).ok());
  const uint64_t retries = applier.stats().round_retries;

  // Idle on the live connection for eight heartbeat intervals: the
  // leader's idle heartbeats queue up, all from the round it served.
  std::this_thread::sleep_for(SourceOptions().heartbeat_interval * 8);
  leader.AppendEpochs(1);
  Status st = applier.SyncWithRetry(pipe.second.get());
  leader.source->RequestStop();
  pipe.second->Close();
  serve.join();

  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_GE(applier.stats().heartbeats_seen, 5u);
  EXPECT_EQ(applier.stats().round_retries, retries);
  EXPECT_EQ(applier.applied_epoch(), leader.epoch());
  EXPECT_EQ(FollowerFingerprint(applier), leader.fingerprint());
}

TEST(ReplicationTest, ReplyToAStalledRoundDoesNotEndALaterRound) {
  // No idle heartbeats, so the leader's send indices are exactly its
  // replies.
  ReplicationOptions quiet = SourceOptions();
  quiet.heartbeat_interval = std::chrono::seconds(60);
  Leader leader(/*epochs=*/2, quiet);
  const ReplicaOptions options = ApplierOptions();
  ReplicaApplier applier(kK, kDims, options);
  auto pipe = MakeInProcessPipe();
  FaultInjectingTransport leader_end(std::move(pipe.first));
  std::thread serve([&] { (void)leader.source->Serve(&leader_end); });
  ASSERT_TRUE(applier.SyncWithRetry(pipe.second.get()).ok());
  const uint64_t retries = applier.stats().round_retries;

  // Nothing new to ship: the whole reply to the next Hello is one
  // kCaughtUp, held back past the follower's stall budget. The round
  // stalls and a retry sends a second Hello, so two replies come back.
  const int stall_ms = options.heartbeat_miss_budget *
                       static_cast<int>(options.recv_timeout.count());
  leader_end.DelayFrame(static_cast<int64_t>(leader_end.stats().frames_sent),
                        stall_ms * 3 / 2);
  ASSERT_TRUE(applier.SyncWithRetry(pipe.second.get()).ok());
  EXPECT_GT(applier.stats().round_retries, retries);

  // The stalled round's reply must not be taken for a later round's.
  leader.AppendEpochs(1);
  Status st = applier.SyncWithRetry(pipe.second.get());
  leader.source->RequestStop();
  pipe.second->Close();
  serve.join();

  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(applier.applied_epoch(), leader.epoch());
  EXPECT_GE(applier.stats().dup_frames, 1u);
  EXPECT_EQ(FollowerFingerprint(applier), leader.fingerprint());
}

TEST(ReplicationTest, LostHelloStillStallsAndRetries) {
  // Heartbeats of the previous round keep arriving when the leader never
  // read this round's Hello; they must still end the round in time.
  Leader leader(/*epochs=*/2);
  ReplicaApplier applier(kK, kDims, ApplierOptions());
  auto pipe = MakeInProcessPipe();
  FaultInjectingTransport follower_end(std::move(pipe.second));
  std::thread serve([&] { (void)leader.source->Serve(pipe.first.get()); });
  ASSERT_TRUE(applier.SyncWithRetry(&follower_end).ok());
  const uint64_t retries = applier.stats().round_retries;

  leader.AppendEpochs(1);
  const uint64_t hello_index = follower_end.stats().frames_sent;
  follower_end.DropFrame(static_cast<int64_t>(hello_index));
  Status st = applier.SyncWithRetry(&follower_end);
  leader.source->RequestStop();
  follower_end.Close();
  serve.join();

  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(follower_end.stats().frames_dropped, 1u);
  EXPECT_GT(applier.stats().round_retries, retries);
  EXPECT_EQ(applier.applied_epoch(), leader.epoch());
  EXPECT_EQ(FollowerFingerprint(applier), leader.fingerprint());
}

// A CRC-valid delta record whose middle cell has the wrong sketch order
// must not half-apply: the round fails, the follower's state (columns,
// coordinates, KLL column, dictionaries) and applied epoch stay as they
// were, and the next valid record for that epoch applies once, cleanly.
TEST(ReplicationTest, RefusedRecordLeavesTheFollowerUnchanged) {
  Leader leader(/*epochs=*/2);
  ReplicaApplier applier(kK, kDims, ApplierOptions());
  {
    auto pipe = MakeInProcessPipe();
    std::thread serve([&] { (void)leader.source->Serve(pipe.first.get()); });
    ASSERT_TRUE(applier.SyncWithRetry(pipe.second.get()).ok());
    leader.source->RequestStop();
    pipe.second->Close();
    serve.join();
  }
  const uint64_t applied = applier.applied_epoch();
  ASSERT_EQ(applied, leader.epoch());
  const std::vector<uint8_t> before = FollowerFingerprint(applier);
  std::unique_ptr<CubeStore> expected;
  std::vector<uint32_t> dict_start(kDims);
  applier.Inspect([&](const CubeStore& store,
                      const std::vector<Dictionary>& dicts) {
    expected = std::make_unique<CubeStore>(store);
    for (size_t d = 0; d < kDims; ++d) {
      dict_start[d] = static_cast<uint32_t>(dicts[d].size());
    }
  });
  ASSERT_GE(expected->num_cells(), 2u);

  // Epoch applied + 1: an existing cell, the middle cell, and a cell on
  // two newly interned values; the two outer cells carry KLL deltas.
  const std::vector<std::vector<std::string>> dict_values = {{"sa-east"},
                                                             {"queue"}};
  const CubeCoords existing = expected->CoordsOf(0);
  const CubeCoords middle = expected->CoordsOf(1);
  const CubeCoords fresh = {dict_start[0], dict_start[1]};
  MomentsSketch good(kK);
  KllSketch kll(kKllK), bad(2 * kKllK);
  for (double x : {1.5, 2.5, 4.0}) {
    good.Accumulate(x);
    kll.Accumulate(x);
    bad.Accumulate(x);
  }
  const KllView kll_view = kll.View();
  // The three cells, the middle one with `mid` as its KLL delta (null
  // for none).
  auto delta = [&](const KllSketch* mid) {
    EpochDelta cells(kDims, kK);
    const KllView mid_view = mid != nullptr ? mid->View() : kll_view;
    cells.Append(existing.data(), good, &kll_view);
    cells.Append(middle.data(), good, mid != nullptr ? &mid_view : nullptr);
    cells.Append(fresh.data(), good, &kll_view);
    return cells;
  };
  auto record = [&](const KllSketch* mid) {
    BytesWriter w;
    EncodeEpochRecord(applied + 1, dict_start, dict_values, delta(mid), &w);
    return w.Take();
  };
  // Plays the leader's side of one round: the record, then the
  // caught-up frame answering the follower's next Hello.
  auto deliver = [&](const std::vector<uint8_t>& payload) {
    auto pipe = MakeInProcessPipe();
    CaughtUpFrame done;
    done.round = applier.stats().rounds + 1;
    done.through_epoch = applied + 1;
    EXPECT_TRUE(
        pipe.first->Send(EncodeFrame(FrameType::kDelta, payload)).ok());
    EXPECT_TRUE(pipe.first
                    ->Send(EncodeFrame(FrameType::kCaughtUp,
                                       EncodeCaughtUp(done)))
                    .ok());
    return applier.SyncOnce(pipe.second.get());
  };

  // A CRC-valid record the store refuses: the middle cell's KLL delta
  // has the wrong k.
  const Status refused = deliver(record(&bad));
  EXPECT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(applier.applied_epoch(), applied);
  EXPECT_EQ(FollowerFingerprint(applier), before);

  ASSERT_TRUE(deliver(record(nullptr)).ok());
  EXPECT_EQ(applier.applied_epoch(), applied + 1);
  // Each cell applied exactly once on top of the pre-record state.
  ASSERT_TRUE(expected->ApplyDeltas(delta(nullptr)).ok());
  std::vector<std::vector<std::string>> values;
  applier.Inspect([&](const CubeStore&, const std::vector<Dictionary>& dicts) {
    for (const Dictionary& dict : dicts) {
      values.emplace_back();
      for (uint32_t id = 0; id < dict.size(); ++id) {
        values.back().push_back(dict.ValueOf(id));
      }
    }
  });
  ASSERT_EQ(values.size(), kDims);
  EXPECT_EQ(values[0].back(), "sa-east");
  EXPECT_EQ(values[1].back(), "queue");
  EXPECT_EQ(FollowerFingerprint(applier), Fingerprint(*expected, values));
}

// ------------------------------------------- WAL and replica composed

/// Forwards to a base env but never deletes, so every WAL file the
/// durable log rotates away stays readable after the run.
class KeepRetiredFilesEnv : public Env {
 public:
  explicit KeepRetiredFilesEnv(Env* base) : base_(base) {}
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    return base_->NewWritableFile(path);
  }
  Result<std::vector<uint8_t>> ReadFile(const std::string& path) override {
    return base_->ReadFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status DeleteFile(const std::string&) override { return Status::OK(); }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    return base_->ListDir(path);
  }
  Status SyncDir(const std::string& path) override {
    return base_->SyncDir(path);
  }

 private:
  Env* const base_;
};

uint64_t RecordEpoch(const std::vector<uint8_t>& record) {
  BytesReader reader(record);
  uint64_t epoch = 0;
  EXPECT_TRUE(reader.GetU64(&epoch).ok());
  return epoch;
}

TEST(ReplicationTest, WalAndReplicaCarryTheSameRecordAcrossAFailedAppend) {
  char tmpl[] = "/tmp/msketch_replica_XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  FaultInjectingEnv faults(Env::Default());
  KeepRetiredFilesEnv env(&faults);
  DurabilityOptions durability;
  durability.dir = dir;
  durability.env = &env;
  durability.checkpoint_every_epochs = 2;
  durability.max_write_retries = 1;
  durability.retry_backoff = milliseconds(0);
  ReplicationOptions history = SourceOptions();
  history.history_epochs = 64;  // every epoch ships as a kDelta frame

  ReplicationSource source(history);
  StreamingCube cube(kDims, MomentsSummary(kK), LeaderIngest());
  ASSERT_TRUE(cube.EnableDurability(durability).ok());
  ASSERT_TRUE(cube.EnableReplication(&source).ok());

  std::mutex shipped_mu;
  std::map<uint64_t, std::vector<uint8_t>> shipped;
  ReplicaApplier applier(kK, kDims, ApplierOptions());
  auto pipe = MakeInProcessPipe();
  FaultInjectingTransport leader_end(std::move(pipe.first));
  leader_end.SetSendObserver([&](const std::vector<uint8_t>& wire) {
    Result<Frame> frame = DecodeFrame(wire);
    if (!frame.ok() || frame.value().type != FrameType::kDelta) return;
    std::lock_guard<std::mutex> lock(shipped_mu);
    shipped[RecordEpoch(frame.value().payload)] = frame.value().payload;
  });
  std::thread serve([&] { (void)source.Serve(&leader_end); });

  // Every epoch interns new values in dimension 0.
  auto publish = [&](int epoch) {
    static const char* kServices[] = {"api", "web", "db", "cache"};
    for (int i = 0; i < 12; ++i) {
      const std::string host =
          "host-" + std::to_string(epoch) + "-" + std::to_string(i % 3);
      EXPECT_TRUE(cube.AppendRow({host, kServices[i % 4]}, 0.5 * i + epoch)
                      .ok());
    }
    cube.Flush();
  };
  for (int e = 1; e <= 3; ++e) publish(e);
  ASSERT_TRUE(applier.SyncWithRetry(pipe.second.get()).ok());
  // Epoch 4's append fails past its retry budget and breaks the log;
  // the checkpoints that would repair it fail too until the disk
  // heals, so the dictionary watermark passes three unlogged epochs.
  faults.FailNextAppends(1000);
  for (int e = 4; e <= 5; ++e) publish(e);
  EXPECT_TRUE(cube.durability_stats().log_broken);
  faults.FailNextAppends(0);
  for (int e = 6; e <= 9; ++e) publish(e);
  EXPECT_FALSE(cube.durability_stats().log_broken);
  ASSERT_TRUE(applier.SyncWithRetry(pipe.second.get()).ok());
  source.RequestStop();
  pipe.second->Close();
  serve.join();

  // Every WAL record ever appended, read back through the WAL reader.
  std::map<uint64_t, std::vector<uint8_t>> logged;
  Result<std::vector<std::string>> names = Env::Default()->ListDir(dir);
  ASSERT_TRUE(names.ok());
  for (const std::string& name : names.value()) {
    if (name.rfind("WAL-", 0) != 0) continue;
    Result<std::vector<uint8_t>> file =
        Env::Default()->ReadFile(JoinPath(dir, name));
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(ReadWalRecords(
                    file.value(),
                    [&](uint8_t, BytesReader* payload) {
                      const uint8_t* begin = payload->data() + payload->pos();
                      std::vector<uint8_t> record(
                          begin, begin + payload->remaining());
                      logged[RecordEpoch(record)] = std::move(record);
                      return Status::OK();
                    },
                    nullptr)
                    .ok());
  }
  EXPECT_EQ(shipped.size(), 9u);
  size_t in_both = 0;
  for (const auto& [epoch, record] : logged) {
    ASSERT_EQ(shipped.count(epoch), 1u) << "epoch " << epoch;
    EXPECT_EQ(record, shipped.at(epoch)) << "epoch " << epoch;
    ++in_both;
  }
  // All but epochs 4..6, published while the log was broken.
  EXPECT_EQ(in_both, 6u);
  for (uint64_t e = 4; e <= 6; ++e) EXPECT_EQ(logged.count(e), 0u);

  const std::vector<uint8_t> leader_fp =
      Fingerprint(cube.Snapshot()->store, LeaderDicts(cube));
  EXPECT_EQ(applier.applied_epoch(), 9u);
  EXPECT_EQ(FollowerFingerprint(applier), leader_fp);
  DurabilityOptions reopen = durability;
  reopen.env = nullptr;
  Result<std::unique_ptr<StreamingCube>> recovered = StreamingCube::Recover(
      kDims, MomentsSummary(kK), LeaderIngest(), reopen);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->last_published_epoch(), 9u);
  EXPECT_EQ(Fingerprint(recovered.value()->Snapshot()->store,
                        LeaderDicts(*recovered.value())),
            leader_fp);
}

// ------------------------------------------------------------ the soak

class ReplicaSoakTest : public ::testing::Test {};

TEST_F(ReplicaSoakTest, EveryFaultAtEveryFrameBoundaryConverges) {
  Leader leader(/*epochs=*/5);

  // Clean run first: counts the leader's frames in one full exchange
  // (snapshot begin + chunks + end + deltas + caught-up).
  ScenarioResult clean = RunScenario(&leader, FaultKind::kNone, -1);
  ASSERT_TRUE(clean.converged) << clean.last_status.ToString();
  ASSERT_GE(clean.clean_run_frames, 5u);
  const int64_t frames = static_cast<int64_t>(clean.clean_run_frames);

  const FaultKind kinds[] = {FaultKind::kDrop,  FaultKind::kDuplicate,
                             FaultKind::kReorder, FaultKind::kTear,
                             FaultKind::kFlip,  FaultKind::kDelay,
                             FaultKind::kReset};
  for (FaultKind kind : kinds) {
    for (int64_t index = 0; index < frames; ++index) {
      ScenarioResult r = RunScenario(&leader, kind, index);
      EXPECT_TRUE(r.converged)
          << "fault=" << FaultName(kind) << " frame=" << index
          << " status=" << r.last_status.ToString()
          << " connections=" << r.connections;
      // Bounded retry: rounds per connection stay within the budget.
      EXPECT_LE(r.applier_stats.round_retries,
                static_cast<uint64_t>(ApplierOptions().retry.max_attempts) *
                    static_cast<uint64_t>(r.connections))
          << "fault=" << FaultName(kind) << " frame=" << index;
      // Availability: certified queries kept answering during outages.
      EXPECT_TRUE(r.query_available_during_outage)
          << "fault=" << FaultName(kind) << " frame=" << index;
    }
  }
}

TEST_F(ReplicaSoakTest, FollowerServesCertifiedQueriesAcrossAPartition) {
  Leader leader(/*epochs=*/4);
  ReplicaApplier applier(kK, kDims, ApplierOptions());

  // First sync over a link that dies mid-plan.
  {
    auto pipe = MakeInProcessPipe();
    FaultInjectingTransport leader_end(std::move(pipe.first));
    leader_end.ResetAtFrame(3);
    std::thread serve([&] { (void)leader.source->Serve(&leader_end); });
    (void)applier.SyncWithRetry(pipe.second.get());
    leader.source->RequestStop();
    pipe.second->Close();
    serve.join();
  }

  // Partitioned: no leader. The follower still answers certified
  // queries from whatever epoch it applied (possibly stale, never
  // unavailable); an empty replica reports empty input, not a crash.
  CertifiedQuantile q = applier.QueryQuantileCertified({"", ""}, 0.5);
  if (applier.applied_epoch() > 0) {
    EXPECT_TRUE(q.certified);
    EXPECT_TRUE(q.status.ok());
  } else {
    EXPECT_FALSE(q.certified);
  }

  // Partition heals: a clean link converges to bit-identical state.
  {
    auto pipe = MakeInProcessPipe();
    std::thread serve(
        [&] { (void)leader.source->Serve(pipe.first.get()); });
    Status st = applier.SyncWithRetry(pipe.second.get());
    leader.source->RequestStop();
    pipe.second->Close();
    serve.join();
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  EXPECT_EQ(applier.applied_epoch(), leader.epoch());
  EXPECT_EQ(FollowerFingerprint(applier), leader.fingerprint());
}

}  // namespace
}  // namespace msketch
