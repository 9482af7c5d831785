// Blocked frontal kernels: panel factorization + cache-tiled trailing
// updates over raw column-major storage.
//
// The blocked kernels are *bit-identical* to the scalar column-at-a-time
// reference kernels (kept below for tests and benchmarks). The invariant
// that makes this true: every trailing-block element receives its rank-1
// updates as individual subtractions `c -= a * b`, in increasing pivot
// order — exactly the operation sequence the scalar loop applies to that
// element — and the operands of each product are the same finished panel
// entries. Register blocking reorders work *across* elements (which FP
// arithmetic cannot observe), never within one element's update chain, and
// no partial products are pre-accumulated. Pivot search is untouched, so
// pivot sequences are identical too.
//
// The trailing update's microkernel comes in instruction-set paths —
// AVX-512 (24x4 tile), AVX2 (12x4) and the portable 4x4 scalar block —
// and each process runs the widest its CPU reports (simd_path()). The
// vector paths put their lanes across the rows of a micro-tile, i.e.
// across different elements, and still do `acc = acc - (a * w)` per
// lane: a rounded multiply, then a rounded subtract, in increasing k.
// So every element's chain is the scalar one and every path leaves the
// same bits. There is no FMA anywhere: a fused multiply-subtract rounds
// once and would change them. Compilers fuse on their own once the
// target has FMA (GCC even fuses the intrinsics), so CMake pins
// -ffp-contract=off on the library and everything linking it.
#pragma once

#include <vector>

#include "memfront/support/types.hpp"

namespace memfront {

/// Smallest pivot magnitude accepted before static perturbation kicks in.
inline constexpr double kPivotFloor = 1e-12;

/// Column-major view of a square frontal matrix in caller-owned storage
/// (arena slot, scratch buffer, or a DenseMatrix's vector).
struct FrontView {
  double* data = nullptr;
  index_t n = 0;   // order of the front
  index_t ld = 0;  // leading dimension (>= n)

  double& at(index_t r, index_t c) const {
    return data[static_cast<std::size_t>(c) * static_cast<std::size_t>(ld) +
                static_cast<std::size_t>(r)];
  }
  double* col(index_t c) const {
    return data + static_cast<std::size_t>(c) * static_cast<std::size_t>(ld);
  }
};

struct PartialFactorResult {
  /// Local pivot row chosen at each elimination step k (a row in [k,npiv)).
  std::vector<index_t> pivot_rows;
  /// Number of pivots that needed a static perturbation.
  index_t perturbations = 0;
  /// Pivots that were *exactly* zero before perturbation: at those steps
  /// the pivot block is exactly singular (structural or cancellation).
  index_t exact_zero_pivots = 0;
  /// Largest |pivot| actually divided by (post-perturbation). Together
  /// with the matrix amax this gives the pivot-growth estimate
  /// max|pivot| / max|a_ij| in FactorStats. Tracking is comparisons
  /// only, so the kernels stay bit-identical.
  double max_pivot_abs = 0.0;
};

/// Non-owning reference to a slice job `void(index_t slice)`: what a
/// SliceRunner hands to its threads. The referenced callable must outlive
/// every call.
class SliceBody {
 public:
  template <typename F>
  explicit SliceBody(const F& f)
      : obj_(&f), call_([](const void* o, index_t s) {
          (*static_cast<const F*>(o))(s);
        }) {}
  void operator()(index_t s) const { call_(obj_, s); }

 private:
  const void* obj_;
  void (*call_)(const void*, index_t);
};

/// Fork/join hook of the blocked kernels (intra-front parallelism).
///
/// Given a runner, a blocked kernel cuts each panel step whose trailing
/// update is above the split floor (trailing_slices) into contiguous
/// column ranges on 4-column boundaries and runs them through run(). A
/// range is one self-contained job on its own columns: LU applies the
/// panel's row interchanges, the TRSM and the Schur update to them;
/// LDLᵀ writes the mirrored pivot rows and the Schur update. The panel
/// itself, with its pivot search, stays serial. Every element's
/// subtraction chain is unchanged, so the bits are too; slicing only
/// reorders writes to disjoint columns.
class SliceRunner {
 public:
  /// Threads that may run slices at once (>= 1); sizes the cut.
  virtual index_t width() const = 0;
  /// Calls body(s) exactly once for every s in [0, count), on any of the
  /// runner's threads, and returns only after every call has returned.
  /// If calls throw, one of their exceptions is rethrown after that.
  virtual void run(index_t count, SliceBody body) = 0;

 protected:
  ~SliceRunner() = default;
};

/// Column slices a panel step with an nt x nt trailing block and kb
/// pivots is cut into for a runner of `width` threads: 1 (not split) when
/// the step's trailing update is below the split floor, else
/// min(width * slices-per-thread, nt / 4 rounded up).
index_t trailing_slices(index_t nt, index_t kb, index_t width);

/// Instruction-set paths of schur_update's microkernel, narrowest first.
enum class SimdPath { kPortable, kAvx2, kAvx512 };

/// The path schur_update runs in this process: the widest one the CPU
/// reports (CPUID, read once). Every path leaves the same bits.
SimdPath simd_path();
/// True for simd_path() and every narrower path.
bool simd_path_supported(SimdPath path);
/// "portable", "avx2" or "avx512".
const char* simd_path_name(SimdPath path);
/// Doubles per vector of a path: 8, 4, or 1 for the portable scalar code.
index_t simd_lanes(SimdPath path);

namespace detail {
/// Test and benchmark hook: while alive, schur_update — and with it every
/// blocked kernel, on every thread — runs `path` instead of simd_path().
/// Throws unless the CPU supports `path`. Not for concurrent kernels
/// that expect different paths; instances must nest.
class ScopedSimdPath {
 public:
  explicit ScopedSimdPath(SimdPath path);
  ~ScopedSimdPath();
  ScopedSimdPath(const ScopedSimdPath&) = delete;
  ScopedSimdPath& operator=(const ScopedSimdPath&) = delete;

 private:
  int previous_;
};
}  // namespace detail

/// C(0:m,0:n) -= A(0:m,0:kb) * B(0:kb,0:n), all column-major with leading
/// dimensions lda/ldb/ldc. Cache-tiled with the simd_path() microkernel;
/// per-element update order is increasing k (see header comment).
void schur_update(index_t m, index_t n, index_t kb, const double* a,
                  index_t lda, const double* b, index_t ldb, double* c,
                  index_t ldc);

/// Blocked right-looking partial LU with row pivoting among the
/// fully-summed rows. Semantics (and bits) of partial_lu_reference, with
/// or without a slice runner (null = every step on the calling thread).
PartialFactorResult partial_lu_blocked(FrontView front, index_t npiv,
                                       SliceRunner* slices = nullptr);

/// Blocked partial LDLt (no pivoting, full-square storage kept numerically
/// symmetric). Semantics (and bits) of partial_ldlt_reference, with or
/// without a slice runner.
PartialFactorResult partial_ldlt_blocked(FrontView front, index_t npiv,
                                         SliceRunner* slices = nullptr);

/// The pre-blocking scalar kernels, verbatim: the bit-exactness baseline
/// of tests/numeric_kernels_test.cpp and the "before" side of
/// bench_numeric's kernel sweep.
PartialFactorResult partial_lu_reference(FrontView front, index_t npiv);
PartialFactorResult partial_ldlt_reference(FrontView front, index_t npiv);

// ---- RHS-panel kernels (solve phase) ---------------------------------------
//
// Triangular solves and rank-k updates over n x k right-hand-side panels
// (column-major, leading dimension ldb/ldc). The bit-exactness discipline
// of the factor kernels applies: every panel element's update chain is
// the scalar loop's chain — products subtracted one at a time in
// increasing pivot/row order — and blocking only reorders work across
// elements (different rows, different RHS columns), never within one
// element's chain. The solve drivers rely on this to keep the blocked
// multi-RHS sweep bitwise equal to the scalar single-RHS reference.

/// B(0:n,0:k) <- L^-1 B for a unit-lower-triangular L (strictly-below-
/// diagonal entries of an n x n column-major block with leading dimension
/// ldl; the diagonal is implicit 1 and never read). Forward order: for
/// each column, products subtracted in increasing pivot j.
void rhs_trsm_lower_unit(index_t n, index_t k, const double* l, index_t ldl,
                         double* b, index_t ldb);

/// B(0:n,0:k) <- U^-1 B for an upper-triangular U (on-and-above-diagonal
/// entries, non-unit diagonal). Backward order: row j subtracts products
/// for t = j+1..n-1 in increasing t, then divides by U(j,j).
void rhs_trsm_upper(index_t n, index_t k, const double* u, index_t ldu,
                    double* b, index_t ldb);

/// B(0:n,0:k) <- L^-T B for the unit-lower L above (the LDLt back-solve).
/// Backward order: row j subtracts L(t,j) * B(t,:) for t = j+1..n-1 in
/// increasing t; no divide (unit diagonal).
void rhs_trsm_lower_trans_unit(index_t n, index_t k, const double* l,
                               index_t ldl, double* b, index_t ldb);

/// C(0:m,0:n) -= A^T(0:m,0:kb) * B(0:kb,0:n) where A is stored kb x m
/// column-major (so A^T rows are A's columns, contiguous dot products).
/// Per-element products in increasing kb index, like schur_update.
void rhs_gemm_at_sub(index_t m, index_t n, index_t kb, const double* a,
                     index_t lda, const double* b, index_t ldb, double* c,
                     index_t ldc);

}  // namespace memfront
