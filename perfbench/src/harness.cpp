#include "harness.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t Rng::below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  Rng rng(seed * 0x100000001b3ULL + tag);
  return rng.next();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail_percentile(std::vector<double> samples) {
  constexpr std::size_t kMinBeyond = 10;
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Nearest rank: the p-th percentile is the ceil(p/100 * n)-th smallest.
  const auto at = [&](double p) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    const std::size_t index = std::clamp<std::size_t>(rank, 1, n) - 1;
    return std::pair<double, std::size_t>{samples[index], n - 1 - index};
  };
  const auto [median_value, median_beyond] = at(50.0);
  tail = {50.0, median_value, median_beyond, n};
  for (const double p : {90.0, 99.0, 99.9, 99.99}) {
    const auto [value, beyond] = at(p);
    if (beyond < kMinBeyond) break;
    tail = {p, value, beyond, n};
  }
  return tail;
}

bool encloses(double lo, double hi, const RefValue& ref, double tol) {
  if (!(lo <= hi)) return false;  // also rejects NaN ends
  return lo - tol <= ref.hi && hi + tol >= ref.lo;
}

bool verdict_consistent(char verdict, const std::string& cmp, double threshold,
                        const RefValue& ref, double tol) {
  if (verdict == '?') return true;
  const double lo = ref.lo - tol;
  const double hi = ref.hi + tol;
  bool surely_true = false;
  bool surely_false = false;
  if (cmp == ">" || cmp == ">=") {
    surely_true = lo > threshold;
    surely_false = hi < threshold;
  } else {  // "<" or "<="
    surely_true = hi < threshold;
    surely_false = lo > threshold;
  }
  if (verdict == 'Y') return !surely_false;
  if (verdict == 'N') return !surely_true;
  return false;
}

namespace {
thread_local std::vector<std::uint64_t> open_spans;
}  // namespace

std::uint64_t Tracer::open(const char* name, std::uint64_t query) {
  if (!enabled_) return 0;
  Span span;
  span.parent = open_spans.empty() ? 0 : open_spans.back();
  span.query = query;
  span.name = name;
  span.start_ns = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  span.id = next_id_++;
  spans_.push_back(std::move(span));
  open_spans.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(std::uint64_t id) {
  if (!enabled_ || id == 0) return;
  const std::int64_t end = now_ns();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_ns = end;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, std::uint64_t query)
    : tracer_(tracer), id_(tracer.open(name, query)) {}

ScopedSpan::~ScopedSpan() { tracer_.close(id_); }

std::map<std::string, double> self_time_ms(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, double> self;
  for (const Span& span : spans) {
    std::int64_t covered = 0;
    if (const auto found = children.find(span.id); found != children.end()) {
      std::vector<std::pair<std::int64_t, std::int64_t>> parts;
      for (const Span* child : found->second) {
        const std::int64_t lo = std::max(child->start_ns, span.start_ns);
        const std::int64_t hi = std::min(child->end_ns, span.end_ns);
        if (hi > lo) parts.emplace_back(lo, hi);
      }
      std::sort(parts.begin(), parts.end());
      std::int64_t reach = span.start_ns;
      for (const auto& [lo, hi] : parts) {
        const std::int64_t from = std::max(lo, reach);
        if (hi > from) covered += hi - from;
        reach = std::max(reach, hi);
      }
    }
    const std::int64_t own = std::max<std::int64_t>(0, span.end_ns - span.start_ns - covered);
    self[span.name] += static_cast<double>(own) * 1e-6;
  }
  return self;
}

}  // namespace perfbench
