// Lightweight span tracing for the query lifecycle and the
// ingest/publish/WAL path.
//
// A Span is an RAII scope: on destruction it records {name, trace id,
// nesting depth, start, duration} into a bounded ring on the Tracer
// and observes the duration into a per-span-name latency histogram
// (`msk_span_seconds{span="<name>"}`) in the tracer's registry. Trace
// ids are per-thread: the outermost live span on a thread allocates a
// fresh id and nested spans inherit it, so one certified point query
// shows up as one trace with `query.certified` at depth 0 and its
// `query.router` child below it.
//
// Span names must be string literals (the ring stores the pointer).
// When metrics are disabled a span costs one relaxed load and a
// branch; no clock is read.
//
// Span taxonomy (see src/cube/README.md and src/ingest/README.md):
//   query.where | query.certified | query.certified_groupby |
//   query.threshold | query.group_merge | query.router
//   (query.group_merge = the group-merge step of a GROUP BY, nested
//   under query.threshold or query.certified_groupby)
//   ingest.drain | ingest.publish | ingest.wal_append |
//   ingest.checkpoint | ingest.recover
//   replica.ship | replica.apply | replica.resync | replica.heartbeat
//   (src/replica/README.md: ship = one leader response round, apply =
//   one delta applied on the follower, resync = snapshot install,
//   heartbeat = liveness frame handling)

#ifndef MSKETCH_OBS_TRACE_H_
#define MSKETCH_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace msketch {
namespace obs {

struct SpanRecord {
  const char* name = nullptr;
  uint64_t trace_id = 0;
  int depth = 0;
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
};

// Bounded ring of finished spans plus per-name latency histograms.
class Tracer {
 public:
  explicit Tracer(size_t capacity = 512,
                  MetricsRegistry* registry = &GlobalRegistry());

  void Record(const SpanRecord& record);

  // Most-recent-first is not guaranteed; records come back in ring
  // order (oldest surviving first).
  std::vector<SpanRecord> Snapshot() const;
  size_t capacity() const { return capacity_; }

 private:
  Histogram* HistogramFor(const char* name);

  MetricsRegistry* registry_;
  const size_t capacity_;

  mutable std::mutex mu_;
  std::vector<SpanRecord> ring_;
  size_t next_ = 0;
  bool wrapped_ = false;
  // Span names are literals, but keyed by content so two literals with
  // equal text share one histogram.
  std::map<std::string, Histogram*> by_name_;
};

Tracer& GlobalTracer();

class Span {
 public:
  explicit Span(const char* name, Tracer* tracer = &GlobalTracer()) {
    if (MetricsEnabled()) Start(name, tracer);
  }
  ~Span() {
    if (tracer_ != nullptr) Finish();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return tracer_ != nullptr; }

 private:
  void Start(const char* name, Tracer* tracer);
  void Finish();

  Tracer* tracer_ = nullptr;
  const char* name_ = nullptr;
  uint64_t trace_id_ = 0;
  int depth_ = 0;
  uint64_t start_ns_ = 0;
};

}  // namespace obs
}  // namespace msketch

#endif  // MSKETCH_OBS_TRACE_H_
