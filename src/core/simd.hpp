// Portable fixed-width SIMD layer for the numeric kernels.
//
// DoubleVec wraps a small compile-time-width vector of doubles. On GCC/Clang
// it compiles to the vector-extension type (four lanes, i.e. two SSE2 /
// one AVX register worth); everywhere else — or when CSRLMRM_SIMD_SCALAR is
// defined — it degrades to a one-lane scalar so every kernel keeps a single
// source of truth.
//
// Confinement contract (enforced by csrlmrm-lint's `simd-hygiene` rule):
// this header is the only file in the tree allowed to spell raw vector
// machinery — `vector_size` attributes, `<immintrin.h>` intrinsics,
// `#pragma omp simd`. Kernels elsewhere use DoubleVec and the helpers below,
// so a platform without the extensions falls back to bit-identical scalar
// code without touching any call site.
//
// Bitwise contract: every operation is elementwise (+, -, *, /) — no
// horizontal reductions and no fused multiply-add contraction on the SSE2
// baseline — so a vectorized loop produces bit-identical results to its
// scalar remainder, lane for lane. tests/test_simd_kernels.cpp property-
// tests this against the scalar spellings over random inputs, and the
// engine-level determinism checks (1/2/8 threads, classdp-vs-DFPG-oracle
// agreement) run on top of these kernels.
//
// lint:allow-file(reserved-identifier) -- the vector_size attribute and the
// feature-test macros below necessarily use double-underscore names.
#pragma once

#include <cstddef>
#include <cstring>

namespace csrlmrm::core::simd {

#if (defined(__GNUC__) || defined(__clang__)) && !defined(CSRLMRM_SIMD_SCALAR)
#define CSRLMRM_SIMD_VECTORIZED 1
#else
#define CSRLMRM_SIMD_VECTORIZED 0
#endif

/// Fixed-width vector of doubles with elementwise arithmetic and unaligned
/// load/store. Width is a compile-time constant (kLanes); callers write one
/// vector loop plus a scalar remainder loop over the same expression.
class DoubleVec {
 public:
#if CSRLMRM_SIMD_VECTORIZED
  static constexpr std::size_t kLanes = 4;

 private:
  typedef double Native __attribute__((vector_size(kLanes * sizeof(double))));
#else
  static constexpr std::size_t kLanes = 1;

 private:
  typedef double Native;
#endif

 public:
  DoubleVec() = default;

  /// All lanes set to `x`.
  static DoubleVec broadcast(double x) {
    DoubleVec v;
    double lanes[kLanes];
    for (std::size_t i = 0; i < kLanes; ++i) lanes[i] = x;
    std::memcpy(&v.v_, lanes, sizeof v.v_);
    return v;
  }

  /// Unaligned load of kLanes doubles starting at `p`.
  static DoubleVec load(const double* p) {
    DoubleVec v;
    std::memcpy(&v.v_, p, sizeof v.v_);
    return v;
  }

  /// Unaligned store of kLanes doubles starting at `p`.
  void store(double* p) const { std::memcpy(p, &v_, sizeof v_); }

  friend DoubleVec operator+(DoubleVec a, DoubleVec b) {
    a.v_ = a.v_ + b.v_;
    return a;
  }
  friend DoubleVec operator-(DoubleVec a, DoubleVec b) {
    a.v_ = a.v_ - b.v_;
    return a;
  }
  friend DoubleVec operator*(DoubleVec a, DoubleVec b) {
    a.v_ = a.v_ * b.v_;
    return a;
  }
  friend DoubleVec operator/(DoubleVec a, DoubleVec b) {
    a.v_ = a.v_ / b.v_;
    return a;
  }

 private:
  Native v_;
};

/// dst[i] += a * src[i] for i in [0, count). Bit-identical to the scalar
/// loop: one multiply and one add per element, no reassociation.
inline void axpy(double* dst, const double* src, std::size_t count, double a) {
  const DoubleVec va = DoubleVec::broadcast(a);
  std::size_t i = 0;
  for (; i + DoubleVec::kLanes <= count; i += DoubleVec::kLanes) {
    (DoubleVec::load(dst + i) + va * DoubleVec::load(src + i)).store(dst + i);
  }
  for (; i < count; ++i) dst[i] += a * src[i];
}

/// dst[i] = a * src[i] for i in [0, count). Safe for dst == src.
inline void scale(double* dst, const double* src, std::size_t count, double a) {
  const DoubleVec va = DoubleVec::broadcast(a);
  std::size_t i = 0;
  for (; i + DoubleVec::kLanes <= count; i += DoubleVec::kLanes) {
    (va * DoubleVec::load(src + i)).store(dst + i);
  }
  for (; i < count; ++i) dst[i] = a * src[i];
}

/// dst[i] = static_cast<double>(first + i) * scale + offset — the affine
/// index fill used by the Poisson log-pmf tables. Matches the scalar
/// expression `dn * scale + offset` with dn = double(first + i) exactly.
inline void fill_affine(double* dst, std::size_t count, std::size_t first, double scale,
                        double offset) {
  const DoubleVec vs = DoubleVec::broadcast(scale);
  const DoubleVec vo = DoubleVec::broadcast(offset);
  std::size_t i = 0;
  double lanes[DoubleVec::kLanes];
  for (; i + DoubleVec::kLanes <= count; i += DoubleVec::kLanes) {
    for (std::size_t lane = 0; lane < DoubleVec::kLanes; ++lane) {
      lanes[lane] = static_cast<double>(first + i + lane);
    }
    (DoubleVec::load(lanes) * vs + vo).store(dst + i);
  }
  for (; i < count; ++i) dst[i] = static_cast<double>(first + i) * scale + offset;
}

}  // namespace csrlmrm::core::simd
