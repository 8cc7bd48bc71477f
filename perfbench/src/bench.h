// Shared pieces of the perfbench binary: run options, latency samples,
// the seeded row generator, the exact oracle, and the result report.
//
// Everything here lives outside the library on purpose: the benchmark
// drives the engine only through its public headers, so a change to the
// engine is measured by unchanged benchmark code.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "cube/cube_types.h"
#include "cube/summary_router.h"

namespace perfbench {

using msketch::CubeCoords;
using msketch::CubeFilter;

// ------------------------------------------------------------- options

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for durable state (inside the checkout).
  std::string work_dir = ".bench_work";
};

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ------------------------------------------------------------- samples

/// A list of measurements with linear-interpolated quantiles (the
/// definition numpy and Python's statistics module default to).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  double Mean() const { return empty() ? 0.0 : Sum() / size(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  const std::vector<double>& values() const { return values_; }
  /// True when `n` samples leave at least ten beyond the q-quantile, the
  /// least for a percentile to be reported.
  static bool HasTail(size_t n, double q) {
    return static_cast<double>(n) * (1.0 - q) >= 10.0;
  }

 private:
  std::vector<double> values_;
};

// ---------------------------------------------------------- the inputs

/// The cube's dimensions: three string dimensions with Zipf-skewed
/// popularity, so filters and groups range from a handful of cells to
/// a third of the cube.
struct Schema {
  std::vector<std::string> names = {"region", "service", "host"};
  std::vector<size_t> cardinality = {8, 40, 200};
  double zipf_s = 1.1;
  size_t num_dims() const { return names.size(); }
  /// The string value `index` of dimension `dim` ("service-17").
  std::string Value(size_t dim, size_t index) const {
    return names[dim] + "-" + std::to_string(index);
  }
};

/// One generated batch of rows. `index` holds each row's per-dimension
/// value index (the oracle's key); `strings` the same values as the
/// engine receives them.
struct RowBatch {
  std::vector<std::vector<uint16_t>> index;
  std::vector<std::vector<std::string>> strings;
  std::vector<double> values;
  size_t size() const { return values.size(); }
};

/// Seeded row stream: Zipf dimension values, milan-generator metric
/// values (heavy-tailed, the paper's main dataset) scaled by a per
/// (region, service) factor so that groups differ in level.
class RowSource {
 public:
  RowSource(const Schema& schema, uint64_t seed);
  RowBatch Next(size_t n);

 private:
  size_t Draw(size_t dim);

  Schema schema_;
  uint64_t seed_;
  uint64_t batches_ = 0;
  msketch::Rng rng_;
  std::vector<std::vector<double>> cdf_;
  std::vector<double> region_scale_;
  std::vector<double> service_scale_;
};

/// A constrained subset of the dimensions and their value indices; the
/// unit both point filters and GROUP BY keys are expressed in.
struct Selection {
  std::vector<size_t> dims;       // ascending
  std::vector<uint16_t> values;   // parallel to dims
  std::vector<std::string> AsFilterStrings(const Schema& schema) const;
};

/// Exact oracle: for each registered grouping (a subset of dimensions),
/// every group's metric values kept sorted. Rows are merged in as the
/// workload generates them, so the oracle always matches what the
/// engine was given. Built and updated outside every timed region.
class ExactIndex {
 public:
  explicit ExactIndex(std::vector<std::vector<size_t>> groupings)
      : groupings_(std::move(groupings)), groups_(groupings_.size()) {}

  void AddRows(const RowBatch& batch);
  /// Sorted values of one group (nullptr when the group is empty or its
  /// grouping is not registered).
  const std::vector<double>* Find(const Selection& sel) const;
  /// Every group of grouping `g`, keyed by packed value indices.
  const std::unordered_map<uint64_t, std::vector<double>>& Groups(
      size_t g) const {
    return groups_[g];
  }
  size_t GroupingIndex(const std::vector<size_t>& dims) const;
  /// Bytes the oracle's value vectors hold (their capacity).
  double Bytes() const;
  static uint64_t Pack(const std::vector<uint16_t>& values);

 private:
  std::vector<std::vector<size_t>> groupings_;
  std::vector<std::unordered_map<uint64_t, std::vector<double>>> groups_;
};

/// Maps engine dictionary ids back to value indices (parses the
/// "name-index" strings through the engine's DecodeValue).
class IdDecoder {
 public:
  template <typename DecodeFn>
  uint16_t Index(size_t dim, uint32_t id, DecodeFn decode) {
    if (dim >= ids_.size()) ids_.resize(dim + 1);
    std::vector<int>& m = ids_[dim];
    if (id >= m.size()) m.resize(id + 1, -1);
    if (m[id] < 0) {
      const std::string s = decode(dim, id);
      m[id] = std::stoi(s.substr(s.rfind('-') + 1));
    }
    return static_cast<uint16_t>(m[id]);
  }

 private:
  std::vector<std::vector<int>> ids_;
};

// ------------------------------------------------------------ checking

/// The two halves of a selection's certificate, computed apart: the
/// moment-bound interval (CertifiedQuantileInterval of the merged
/// moments) and the KLL certificate (empty, lower > upper, when the
/// selection has none). The router's answer interval is their
/// intersection, or the moment interval alone when they are disjoint.
struct SplitCertificate {
  msketch::QuantileInterval moments;
  msketch::QuantileInterval kll{0.0, -1.0};
};

/// Accumulates the correctness gate and the answer-quality metrics of
/// the checked sample.
class Checker {
 public:
  /// Checks one certified answer against the sorted exact values.
  /// Returns false (and records a violation) when the answer is not
  /// certified or its interval misses every exact phi-quantile, except
  /// for a hair miss or the known defect (see Check), which are counted.
  /// `split`, when given, yields the selection's two certificate halves;
  /// it is only called on a miss, to recognise the known defect.
  bool Check(const msketch::CertifiedQuantile& a,
             const std::vector<double>& sorted, double phi,
             const std::string& what,
             const std::function<SplitCertificate()>& split = {});
  void Violation(const std::string& what);

  bool correct() const { return violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }
  uint64_t checked() const { return checked_; }
  /// Certified answers that reach an exact phi-quantile but exclude
  /// sorted[floor(phi n)], the rank QuantileOfSorted (the paper's
  /// definition) picks. Only possible when phi*n is a whole number.
  uint64_t paper_rank_misses() const { return paper_rank_misses_; }
  /// Misses of the known defect Check tolerates: the moment-bound
  /// interval alone excludes every exact quantile, the KLL certificate
  /// alone holds one.
  uint64_t known_misses() const { return known_misses_; }
  /// Misses by at most 1e-5 of the value scale beyond the interval.
  uint64_t hair_misses() const { return hair_misses_; }
  /// Share of answers the tolerated misses may reach, on top of three:
  /// about five times the rate measured when this check was written
  /// (one miss per thousand point answers).
  static constexpr double kMissCeiling = 0.005;
  /// False when the tolerated misses exceed 3 + kMissCeiling * answers,
  /// which fails the run.
  bool WithinMissCeiling() const;
  double MeanRankError() const {
    return checked_ == 0 ? 0.0 : rank_error_sum_ / checked_;
  }
  double MeanCertWidth() const {
    return checked_ == 0 ? 0.0 : cert_width_sum_ / checked_;
  }
  /// Share of the certified answers checked whose interval reaches an
  /// exact phi-quantile (tolerated misses count against it).
  double Coverage() const {
    const uint64_t misses = hair_misses_ + known_misses_ + wide_misses_;
    return checked_ + misses == 0
               ? 1.0
               : static_cast<double>(checked_) /
                     static_cast<double>(checked_ + misses);
  }

 private:
  uint64_t checked_ = 0;
  uint64_t paper_rank_misses_ = 0;
  uint64_t known_misses_ = 0;
  uint64_t hair_misses_ = 0;
  uint64_t wide_misses_ = 0;  // misses that fail the run
  double rank_error_sum_ = 0.0;
  double cert_width_sum_ = 0.0;
  std::vector<std::string> violations_;
};

/// Counts answers per router backend (the backend mix property).
struct BackendMix {
  uint64_t counts[5] = {0, 0, 0, 0, 0};
  uint64_t total = 0;
  void Add(msketch::QuantileBackend b) {
    ++counts[static_cast<int>(b)];
    ++total;
  }
  std::string Describe() const;
};

// -------------------------------------------------------------- report

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run prints: workload properties and every metric (for the
/// human reader), then the one-line JSON result.
struct Report {
  std::string workload;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> violations;
  /// Metrics the run's mode reports in the result line.
  std::map<std::string, Metric> metrics;
  /// Further measurements that only some workloads support
  /// (latency_p99_ms, failure_rate, stored_bytes_per_row, ...).
  std::map<std::string, Metric> extra;
  std::vector<std::pair<std::string, std::string>> properties;
  /// The untimed-mode op latencies and the work each op does, printed so
  /// that a run made of several processes can pool them.
  std::vector<double> op_ms;
  double work_per_op = 0.0;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Extra(const std::string& name, double value, const std::string& unit) {
    extra[name] = Metric{value, unit};
  }
  void Property(const std::string& name, const std::string& value) {
    properties.emplace_back(name, value);
  }
  void Property(const std::string& name, double value);
  /// Adds latency, throughput and failure metrics from the op samples.
  void AddLatency(const Samples& op_ms, double work_per_op,
                  const std::string& work_unit);
  void Print() const;
};

/// Growth of this process's peak resident memory over a stretch of the
/// run: Start() returns freed heap to the system, resets the kernel's
/// peak counter and records the resident size; GrowthMb() is the peak
/// since then minus that base, in MiB. Linux only (reads /proc).
class RssMeter {
 public:
  void Start();
  double GrowthMb() const;

 private:
  double base_mb_ = 0.0;
};

std::string Fixed(double v, int digits);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
