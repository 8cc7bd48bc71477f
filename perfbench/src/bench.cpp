#include "bench.h"

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "datasets/datasets.h"
#include "numerics/stats.h"

namespace perfbench {

// ------------------------------------------------------------- samples

double Samples::Sum() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ---------------------------------------------------------- the inputs

RowSource::RowSource(const Schema& schema, uint64_t seed)
    : schema_(schema), seed_(seed), rng_(seed ^ 0x726f7773ULL) {
  for (size_t n : schema_.cardinality) {
    std::vector<double> cdf(n);
    double acc = 0.0;
    for (size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), schema_.zipf_s);
      cdf[i] = acc;
    }
    for (double& c : cdf) c /= acc;
    cdf_.push_back(std::move(cdf));
  }
  // Fixed by the value index, not the seed: every seed draws from the
  // same distributions, so runs differ in the sample only.
  auto spread = [](size_t i, size_t n, double half_width) {
    return std::exp(half_width *
                    (2.0 * static_cast<double>((i * 7) % n) / (n - 1) - 1.0));
  };
  for (size_t i = 0; i < schema_.cardinality[0]; ++i) {
    region_scale_.push_back(spread(i, schema_.cardinality[0], 0.7));
  }
  for (size_t i = 0; i < schema_.cardinality[1]; ++i) {
    service_scale_.push_back(spread(i, schema_.cardinality[1], 0.5));
  }
}

size_t RowSource::Draw(size_t dim) {
  const std::vector<double>& cdf = cdf_[dim];
  const double u = rng_.NextDouble();
  const size_t i = static_cast<size_t>(
      std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  return std::min(i, cdf.size() - 1);
}

RowBatch RowSource::Next(size_t n) {
  RowBatch b;
  // One milan stream per batch, seeded from the run seed and the batch
  // number, so a seed fixes every value of every batch.
  b.values = msketch::GenerateDataset(
      msketch::DatasetId::kMilan, n,
      seed_ * 0x9e3779b97f4a7c15ULL + (++batches_));
  b.index.resize(n);
  b.strings.resize(n);
  for (size_t r = 0; r < n; ++r) {
    b.index[r].resize(schema_.num_dims());
    b.strings[r].resize(schema_.num_dims());
    for (size_t d = 0; d < schema_.num_dims(); ++d) {
      const size_t v = Draw(d);
      b.index[r][d] = static_cast<uint16_t>(v);
      b.strings[r][d] = schema_.Value(d, v);
    }
    b.values[r] *= region_scale_[b.index[r][0]] * service_scale_[b.index[r][1]];
  }
  return b;
}

std::vector<std::string> Selection::AsFilterStrings(
    const Schema& schema) const {
  std::vector<std::string> out(schema.num_dims());
  for (size_t i = 0; i < dims.size(); ++i) {
    out[dims[i]] = schema.Value(dims[i], values[i]);
  }
  return out;
}

// -------------------------------------------------------------- oracle

uint64_t ExactIndex::Pack(const std::vector<uint16_t>& values) {
  uint64_t key = 0;
  for (uint16_t v : values) key = (key << 16) | v;
  return key;
}

size_t ExactIndex::GroupingIndex(const std::vector<size_t>& dims) const {
  for (size_t g = 0; g < groupings_.size(); ++g) {
    if (groupings_[g] == dims) return g;
  }
  return groupings_.size();
}

void ExactIndex::AddRows(const RowBatch& batch) {
  std::vector<uint16_t> key;
  for (size_t g = 0; g < groupings_.size(); ++g) {
    std::unordered_map<uint64_t, std::vector<double>> fresh;
    for (size_t r = 0; r < batch.size(); ++r) {
      key.clear();
      for (size_t d : groupings_[g]) key.push_back(batch.index[r][d]);
      fresh[Pack(key)].push_back(batch.values[r]);
    }
    for (auto& [k, vals] : fresh) {
      std::sort(vals.begin(), vals.end());
      std::vector<double>& dst = groups_[g][k];
      const size_t old = dst.size();
      dst.insert(dst.end(), vals.begin(), vals.end());
      std::inplace_merge(dst.begin(), dst.begin() + old, dst.end());
    }
  }
}

double ExactIndex::Bytes() const {
  double bytes = 0.0;
  for (const auto& groups : groups_) {
    for (const auto& [key, vals] : groups) {
      bytes += static_cast<double>(vals.capacity() * sizeof(double));
    }
  }
  return bytes;
}

const std::vector<double>* ExactIndex::Find(const Selection& sel) const {
  const size_t g = GroupingIndex(sel.dims);
  if (g == groupings_.size()) return nullptr;
  auto it = groups_[g].find(Pack(sel.values));
  if (it == groups_[g].end() || it->second.empty()) return nullptr;
  return &it->second;
}

// ------------------------------------------------------------ checking

bool Checker::Check(const msketch::CertifiedQuantile& a,
                    const std::vector<double>& sorted, double phi,
                    const std::string& what,
                    const std::function<SplitCertificate()>& split) {
  if (!a.status.ok() || !a.certified) {
    Violation(what + ": uncertified answer (" + a.status.ToString() + ")");
    return false;
  }
  // The exact phi-quantiles of n values are every q with
  // #{x < q} <= phi*n <= #{x <= q}: sorted[ceil(phi n) - 1] up to
  // sorted[floor(phi n)], one value unless phi*n is a whole number. The
  // interval must reach that set.
  const double n = static_cast<double>(sorted.size());
  const size_t hi_rank = std::min(
      static_cast<size_t>(std::floor(phi * n)), sorted.size() - 1);
  const size_t lo_rank = static_cast<size_t>(
      std::max(std::ceil(phi * n), 1.0)) - 1;
  const double q_lo = sorted[std::min(lo_rank, hi_rank)];
  const double q_hi = sorted[hi_rank];  // QuantileOfSorted, the paper's rank
  const double slack =
      1e-6 * (std::fabs(sorted.front()) + std::fabs(sorted.back()) + 1.0);
  auto reaches = [&](const msketch::QuantileInterval& iv) {
    return iv.lower <= q_hi + slack && iv.upper >= q_lo - slack;
  };
  if (!reaches(a.interval)) {
    // Two kinds of miss are tolerated, counted and capped (see
    // WithinMissCeiling); any other miss fails the run.
    //  - A hair miss: the exact quantile lies beyond the interval by at
    //    most 1e-5 of the value scale, the moment bounds' bisection
    //    resolution.
    //  - The known defect: the moment-bound interval alone excludes
    //    every exact quantile while the KLL certificate alone holds one.
    //    The router intersected the two, or kept the moment interval
    //    when they were disjoint.
    const double scale =
        std::fabs(sorted.front()) + std::fabs(sorted.back()) + 1.0;
    const double beyond = a.interval.lower > q_hi ? a.interval.lower - q_hi
                                                  : q_lo - a.interval.upper;
    if (beyond <= 1e-5 * scale) {
      ++hair_misses_;
      return true;
    }
    if (split) {
      const SplitCertificate c = split();
      const bool has_kll = c.kll.lower <= c.kll.upper;
      if (!reaches(c.moments) && has_kll && reaches(c.kll)) {
        ++known_misses_;
        return true;
      }
    }
    ++wide_misses_;
    Violation(what + " phi=" + std::to_string(phi) + ": interval [" +
              std::to_string(a.interval.lower) + ", " +
              std::to_string(a.interval.upper) +
              "] misses every exact quantile in [" + std::to_string(q_lo) +
              ", " + std::to_string(q_hi) + "]");
    return false;
  }
  if (a.interval.lower > q_hi + slack || a.interval.upper < q_hi - slack) {
    ++paper_rank_misses_;
  }
  ++checked_;
  rank_error_sum_ += msketch::QuantileError(sorted, phi, a.estimate);
  const double lo = static_cast<double>(
      std::lower_bound(sorted.begin(), sorted.end(), a.interval.lower) -
      sorted.begin());
  const double hi = static_cast<double>(
      std::upper_bound(sorted.begin(), sorted.end(), a.interval.upper) -
      sorted.begin());
  cert_width_sum_ += (hi - lo) / n;
  return true;
}

bool Checker::WithinMissCeiling() const {
  const double answers =
      static_cast<double>(checked_ + hair_misses_ + known_misses_);
  return static_cast<double>(hair_misses_ + known_misses_) <=
         3.0 + kMissCeiling * answers;
}

void Checker::Violation(const std::string& what) {
  if (violations_.size() < 20) violations_.push_back(what);
  else if (violations_.size() == 20) violations_.push_back("...");
}

std::string BackendMix::Describe() const {
  std::ostringstream os;
  for (int b = 0; b < 5; ++b) {
    if (b > 0) os << " ";
    os << msketch::QuantileBackendName(static_cast<msketch::QuantileBackend>(b))
       << "="
       << Fixed(total == 0 ? 0.0
                           : static_cast<double>(counts[b]) /
                                 static_cast<double>(total),
                3);
  }
  return os.str();
}

// -------------------------------------------------------------- report

std::string Fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

void Report::Property(const std::string& name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  properties.emplace_back(name, buf);
}

void Report::AddLatency(const Samples& op_ms, double work_per_op,
                        const std::string& work_unit) {
  Set("latency_p50_ms", op_ms.Median(), "ms");
  Extra("latency_p90_ms", op_ms.Quantile(0.9), "ms");
  Set("throughput_per_s",
      op_ms.Sum() > 0 ? 1000.0 * work_per_op * op_ms.size() / op_ms.Sum()
                      : 0.0,
      "1/s");
  if (Samples::HasTail(op_ms.size(), 0.99)) {
    Extra("latency_p99_ms", op_ms.Quantile(0.99), "ms");
  }
  Property("ops_timed", static_cast<double>(op_ms.size()));
  Property("throughput_unit", work_unit + "/s");
  this->op_ms = op_ms.values();
  this->work_per_op = work_per_op;
}

namespace {

/// A "VmXXX:  1234 kB" field of /proc/self/status, in MiB (0 if absent).
double ProcStatusMb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  const size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      kb = std::atof(line + len + 1);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace

void RssMeter::Start() {
  malloc_trim(0);  // freed heap back to the system: the base is live data
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);  // resets the peak (VmHWM) to the current RSS
    std::fclose(f);
  }
  base_mb_ = ProcStatusMb("VmRSS");
}

double RssMeter::GrowthMb() const {
  return std::max(0.0, ProcStatusMb("VmHWM") - base_mb_);
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string JsonMetrics(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return out + "}";
}

}  // namespace

void Report::Print() const {
  std::printf("workload %s\n", workload.c_str());
  for (const auto& [name, value] : properties) {
    std::printf("  property %-28s %s\n", name.c_str(), value.c_str());
  }
  for (const auto& [name, m] : metrics) {
    std::printf("  metric   %-28s %.6g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& [name, m] : extra) {
    std::printf("  extra    %-28s %.6g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& v : violations) {
    std::printf("  VIOLATION %s\n", v.c_str());
  }
  // A machine-readable copy of everything above, then the result line.
  std::string props = "{";
  for (size_t i = 0; i < properties.size(); ++i) {
    if (i > 0) props += ", ";
    props += JsonString(properties[i].first) + ": " +
             JsonString(properties[i].second);
  }
  props += "}";
  if (!op_ms.empty()) {
    std::string ms = "[";
    for (size_t i = 0; i < op_ms.size(); ++i) {
      if (i > 0) ms += ", ";
      ms += JsonNumber(op_ms[i]);
    }
    std::printf("samples {\"op_ms\": %s], \"work_per_op\": %s}\n",
                ms.c_str(), JsonNumber(work_per_op).c_str());
  }
  std::printf("report {\"workload\": %s, \"properties\": %s, \"extra\": %s}\n",
              JsonString(workload).c_str(), props.c_str(),
              JsonMetrics(extra).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), JsonMetrics(metrics).c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
