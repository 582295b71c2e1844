// Small helpers shared by the end-to-end benchmark: a portable seeded
// RNG, a Zipf sampler, exact sample quantiles, histogram-delta
// quantiles, process RSS, and the fixed benchmark configuration.

#ifndef ECDR_E2EBENCH_BENCH_UTIL_H_
#define ECDR_E2EBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "util/histogram.h"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Fixed serving configuration. Stated in every result stamp; a change
// here is a change of the benchmark, not of the program.
inline constexpr std::size_t kServerWorkers = 2;
inline constexpr std::size_t kKndsThreads = 1;
inline constexpr std::size_t kClientConnections = 2;
inline constexpr std::uint32_t kTopK = 10;

/// SplitMix64: the stream generator. Defined here (not std::mt19937 +
/// distributions) so request streams are a function of the seed alone,
/// independent of the standard library's distribution code.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  std::uint64_t Below(std::uint64_t n) {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from the run seed and a tag.
inline std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t tag) {
  Rng rng(seed * 0x100000001B3ull ^ (tag + 0x51ED2705ull));
  rng.Next();
  return rng.Next();
}

/// Zipf(s) over ranks [0, n): P(rank r) proportional to 1 / (r+1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t Sample(Rng* rng) const {
    const double u = rng->Unit();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Linear-interpolated sample quantile (numpy's default) of unsorted
/// values; 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Bucket counts of a util::Histogram at one instant; two snapshots give
/// the distribution of what was recorded between them.
struct HistogramSnapshot {
  std::vector<std::uint64_t> counts;

  static HistogramSnapshot Of(const ecdr::util::Histogram& h) {
    HistogramSnapshot snap;
    snap.counts.resize(h.num_buckets());
    for (std::size_t i = 0; i < h.num_buckets(); ++i) {
      snap.counts[i] = h.bucket_count(i);
    }
    return snap;
  }
};

/// Accumulates the per-bucket difference of histogram snapshot pairs
/// (one pair per measured slice) and reads quantiles from it,
/// interpolating linearly inside the bucket that holds the rank — the
/// histogram's own Quantile() reports bucket upper bounds, which would
/// read identically across runs.
class HistogramDelta {
 public:
  explicit HistogramDelta(const ecdr::util::Histogram& shape)
      : shape_(&shape), counts_(shape.num_buckets(), 0) {}

  void Add(const HistogramSnapshot& before, const HistogramSnapshot& after) {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += after.counts[i] - before.counts[i];
    }
  }

  std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (std::uint64_t c : counts_) sum += c;
    return sum;
  }

  /// In the histogram's unit (seconds). The last bucket is open-ended;
  /// a rank there reports its lower bound.
  double Quantile(double q) const {
    const std::uint64_t n = total();
    if (n == 0) return 0.0;
    const double rank = q * static_cast<double>(n);
    double seen = 0.0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      const double c = static_cast<double>(counts_[i]);
      if (c > 0.0 && seen + c >= rank) {
        const double lower = shape_->bucket_lower(i);
        const double upper = shape_->bucket_upper(i);
        if (!std::isfinite(upper)) return lower;
        return lower + (upper - lower) * std::clamp((rank - seen) / c, 0.0, 1.0);
      }
      seen += c;
    }
    return shape_->bucket_lower(counts_.size() - 1);
  }

 private:
  const ecdr::util::Histogram* shape_;
  std::vector<std::uint64_t> counts_;
};

/// CPU time the hypervisor gave to other guests, summed over this
/// machine's CPUs, in jiffies (the steal column of /proc/stat); 0 if
/// unreadable.
inline std::uint64_t StealJiffies() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  std::uint64_t v[8] = {};
  char line[512];
  if (std::fgets(line, sizeof(line), f) != nullptr) {
    std::sscanf(line,
                "cpu %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
                " %" SCNu64 " %" SCNu64 " %" SCNu64,
                &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  }
  std::fclose(f);
  return v[7];
}

/// Resident set size of this process in MiB (VmRSS), 0 if unreadable.
inline double ResidentMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// FNV-1a 64 over bytes, for request-stream digests.
inline std::uint64_t Fnv1a(const std::string& bytes,
                           std::uint64_t hash = 0xCBF29CE484222325ull) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

}  // namespace e2ebench

#endif  // ECDR_E2EBENCH_BENCH_UTIL_H_
