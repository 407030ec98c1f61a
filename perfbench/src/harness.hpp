// Measurement primitives of the csrl-mrm benchmark: the seeded generator
// every workload draws its request stream from, latency summaries (median
// and the tail-percentile rule), the reference checks every answer passes
// through, and the benchmark's own span tracer with self-time accounting.
//
// Nothing here knows about workloads; tests/test_harness.cpp pins each
// rule on hand-made inputs.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: tiny, seedable, identical on every platform, so one seed
/// gives a byte-identical request stream everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n); n > 0.
  std::size_t below(std::size_t n);
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// Mixes a workload seed with a stream tag, so sub-streams never overlap.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// Monotonic clock in nanoseconds / seconds.
std::int64_t now_ns();
double seconds_since(std::int64_t start_ns);

double median(std::vector<double> values);

/// The tail of a latency sample: the highest of the fixed percentiles
/// {50, 90, 99, 99.9, 99.99} that still has at least ten samples
/// strictly beyond its nearest-rank position. Fixed percentiles (instead of
/// "the 11th largest sample") keep the statistic steady when a run completes
/// a few more or fewer rounds of the same query mix. With too few samples
/// for even the median, the median is reported with its (short) count.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t beyond = 0;
  std::size_t samples = 0;
};
Tail tail_percentile(std::vector<double> samples);

/// A reference value: the true answer lies in [lo, hi] (a tighter-accuracy
/// enclosure computed offline, see references.hpp).
struct RefValue {
  double lo = 0.0;
  double hi = 0.0;
};

/// True when the answer interval [lo, hi], widened by `tol` on each side,
/// meets the reference enclosure: a sound answer always contains the true
/// value, which lies inside the reference. `tol` covers engines whose
/// enclosure is a point (iterative solvers) or rounding at the ends.
bool encloses(double lo, double hi, const RefValue& ref, double tol);

/// Whether a three-valued verdict ('Y', 'N', '?') for "value <cmp>
/// threshold" can be right given the reference. '?' is never a
/// contradiction; 'Y'/'N' contradict only when the reference (widened by
/// tol) decides the comparison the other way.
bool verdict_consistent(char verdict, const std::string& cmp, double threshold,
                        const RefValue& ref, double tol);

/// One benchmark span: a call into a layer, timed from the benchmark's own
/// code. `query` groups the spans of one query (0 = set-up).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t query = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span recorder. Disabled tracers record nothing (the untraced
/// end-to-end runs); spans nest under the innermost open span of the same
/// thread.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  std::uint64_t open(const char* name, std::uint64_t query);
  void close(std::uint64_t id);

  std::vector<Span> spans() const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;     // guarded by mutex_
  std::vector<Span> spans_;       // guarded by mutex_; index = id - 1
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t query);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::uint64_t id_ = 0;
};

/// Self time per span name, in milliseconds: each span's duration minus the
/// part of it that the union of its child spans covers, summed by name.
std::map<std::string, double> self_time_ms(const std::vector<Span>& spans);

}  // namespace perfbench
