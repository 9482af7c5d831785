// Blocked frontal kernels vs the pre-blocking scalar references: the
// blocked panel/TRSM/GEMM pipeline must reproduce the scalar kernels bit
// for bit (pivot sequences AND every stored value) — also when its panel
// steps are cut into column slices and run out of order or concurrently
// (intra-front parallelism) — the signbit perturbation fix, the mapped
// extend-add scatter, and the arena's LIFO discipline.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <stdexcept>
#include <thread>
#include <vector>

#include "memfront/frontal/arena.hpp"
#include "memfront/frontal/extend_add.hpp"
#include "memfront/frontal/kernels.hpp"
#include "memfront/solver/slice_hub.hpp"
#include "memfront/support/rng.hpp"

namespace memfront {
namespace {

std::vector<double> random_front(index_t n, std::uint64_t seed,
                                 bool dominant) {
  Rng rng(seed);
  std::vector<double> data(static_cast<std::size_t>(n) * n);
  for (double& v : data) v = rng.real(-1.0, 1.0);
  if (dominant) {
    for (index_t r = 0; r < n; ++r) {
      double sum = 0.0;
      for (index_t c = 0; c < n; ++c)
        sum += std::abs(data[static_cast<std::size_t>(c) * n + r]);
      data[static_cast<std::size_t>(r) * n + r] = sum + 1.0;
    }
  }
  return data;
}

std::vector<double> random_symmetric(index_t n, std::uint64_t seed) {
  std::vector<double> a = random_front(n, seed, true);
  std::vector<double> s(a.size());
  for (index_t c = 0; c < n; ++c)
    for (index_t r = 0; r < n; ++r)
      s[static_cast<std::size_t>(c) * n + r] =
          0.5 * (a[static_cast<std::size_t>(c) * n + r] +
                 a[static_cast<std::size_t>(r) * n + c]);
  return s;
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b, index_t n,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size());
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0) return;
  for (index_t c = 0; c < n; ++c)
    for (index_t r = 0; r < n; ++r) {
      const std::size_t k = static_cast<std::size_t>(c) * n + r;
      ASSERT_EQ(a[k], b[k]) << what << ": first differing entry (" << r
                            << "," << c << ")";
    }
  FAIL() << what << ": bit pattern differs (signed zero or NaN)";
}

void check_lu_bitwise(index_t n, index_t npiv, std::uint64_t seed,
                      bool dominant) {
  std::vector<double> blocked = random_front(n, seed, dominant);
  std::vector<double> reference = blocked;
  const PartialFactorResult br =
      partial_lu_blocked(FrontView{blocked.data(), n, n}, npiv);
  const PartialFactorResult rr =
      partial_lu_reference(FrontView{reference.data(), n, n}, npiv);
  EXPECT_EQ(br.pivot_rows, rr.pivot_rows)
      << "n=" << n << " npiv=" << npiv << " seed=" << seed;
  EXPECT_EQ(br.perturbations, rr.perturbations);
  expect_bitwise_equal(blocked, reference, n, "partial_lu");
}

void check_ldlt_bitwise(index_t n, index_t npiv, std::uint64_t seed) {
  std::vector<double> blocked = random_symmetric(n, seed);
  std::vector<double> reference = blocked;
  const PartialFactorResult br =
      partial_ldlt_blocked(FrontView{blocked.data(), n, n}, npiv);
  const PartialFactorResult rr =
      partial_ldlt_reference(FrontView{reference.data(), n, n}, npiv);
  EXPECT_EQ(br.pivot_rows, rr.pivot_rows)
      << "n=" << n << " npiv=" << npiv << " seed=" << seed;
  EXPECT_EQ(br.perturbations, rr.perturbations);
  expect_bitwise_equal(blocked, reference, n, "partial_ldlt");
}

TEST(NumericKernels, BlockedLuBitIdenticalToReference) {
  // Sizes straddling every tile boundary: inside one panel, exactly one
  // panel, several panels, microkernel edge remainders.
  check_lu_bitwise(1, 1, 1, true);
  check_lu_bitwise(5, 3, 2, true);
  check_lu_bitwise(16, 9, 3, true);
  check_lu_bitwise(48, 48, 4, true);
  check_lu_bitwise(49, 30, 5, true);
  check_lu_bitwise(96, 64, 6, true);
  check_lu_bitwise(130, 130, 7, true);
  check_lu_bitwise(150, 70, 8, true);
  check_lu_bitwise(257, 129, 9, true);
}

TEST(NumericKernels, BlockedLuBitIdenticalUnderHeavyPivoting) {
  // Non-dominant fronts: the pivot search actually moves rows, so the
  // deferred interchange application is exercised for real.
  check_lu_bitwise(32, 20, 11, false);
  check_lu_bitwise(97, 60, 12, false);
  check_lu_bitwise(144, 144, 13, false);
  check_lu_bitwise(200, 101, 14, false);
}

TEST(NumericKernels, BlockedLdltBitIdenticalToReference) {
  check_ldlt_bitwise(1, 1, 21);
  check_ldlt_bitwise(7, 4, 22);
  check_ldlt_bitwise(48, 48, 23);
  check_ldlt_bitwise(50, 29, 24);
  check_ldlt_bitwise(96, 50, 25);
  check_ldlt_bitwise(131, 131, 26);
  check_ldlt_bitwise(190, 95, 27);
}

/// Runs a step's slices last to first on the calling thread: a slice
/// that depended on another, or on the order, would change bits.
class ReverseRunner final : public SliceRunner {
 public:
  explicit ReverseRunner(index_t width) : width_(width) {}
  index_t width() const override { return width_; }
  void run(index_t count, SliceBody body) override {
    ++steps;
    for (index_t s = count; s-- > 0;) body(s);
  }
  index_t steps = 0;

 private:
  index_t width_;
};

/// Runs every slice of a step on its own thread, all at once.
class ThreadPerSliceRunner final : public SliceRunner {
 public:
  explicit ThreadPerSliceRunner(index_t width) : width_(width) {}
  index_t width() const override { return width_; }
  void run(index_t count, SliceBody body) override {
    std::vector<std::thread> threads;
    for (index_t s = 0; s < count; ++s)
      threads.emplace_back([&body, s] { body(s); });
    for (std::thread& t : threads) t.join();
  }

 private:
  index_t width_;
};

/// The sliced kernel (reverse order and thread-per-slice) against the
/// unsliced kernel and the scalar reference, bit for bit. Returns the
/// number of panel steps that were split.
index_t check_sliced_bitwise(index_t n, index_t npiv, std::uint64_t seed,
                             bool ldlt, bool dominant, index_t width) {
  const std::vector<double> original =
      ldlt ? random_symmetric(n, seed) : random_front(n, seed, dominant);
  const auto factor = [&](std::vector<double>& data, SliceRunner* slices) {
    return ldlt ? partial_ldlt_blocked(FrontView{data.data(), n, n}, npiv,
                                       slices)
                : partial_lu_blocked(FrontView{data.data(), n, n}, npiv,
                                     slices);
  };
  std::vector<double> unsliced = original;
  const PartialFactorResult ur = factor(unsliced, nullptr);
  std::vector<double> reference = original;
  const PartialFactorResult rr =
      ldlt ? partial_ldlt_reference(FrontView{reference.data(), n, n}, npiv)
           : partial_lu_reference(FrontView{reference.data(), n, n}, npiv);
  expect_bitwise_equal(unsliced, reference, n, "unsliced vs reference");
  EXPECT_EQ(ur.pivot_rows, rr.pivot_rows);

  ReverseRunner reverse(width);
  std::vector<double> reversed = original;
  const PartialFactorResult vr = factor(reversed, &reverse);
  EXPECT_EQ(vr.pivot_rows, ur.pivot_rows);
  EXPECT_EQ(vr.perturbations, ur.perturbations);
  expect_bitwise_equal(reversed, unsliced, n, "reverse-order slices");

  ThreadPerSliceRunner threaded(width);
  std::vector<double> concurrent = original;
  const PartialFactorResult tr = factor(concurrent, &threaded);
  EXPECT_EQ(tr.pivot_rows, ur.pivot_rows);
  expect_bitwise_equal(concurrent, unsliced, n, "concurrent slices");
  return reverse.steps;
}

TEST(NumericKernels, TrailingSlicesFloorAndRaggedCounts) {
  // Below the floor nothing splits, whatever the width.
  EXPECT_EQ(trailing_slices(100, 48, 8), 1);
  EXPECT_EQ(trailing_slices(299, 48, 4), 1);
  EXPECT_EQ(trailing_slices(1000, 1, 4), 1);
  // Above it: slices per thread, capped by the 4-column units (361
  // columns are 91 units, the last one ragged).
  EXPECT_EQ(trailing_slices(1000, 48, 3), 12);
  EXPECT_EQ(trailing_slices(1000, 48, 1), 4);
  EXPECT_EQ(trailing_slices(361, 48, 64), 91);
}

TEST(NumericKernels, SlicedLuBitIdenticalUnderHeavyPivoting) {
  // 300 never reaches the split floor; 613 and 901 split their early
  // steps and not their late ones. Column counts that are not multiples
  // of 4 and widths 1/3/5 leave ragged last ranges.
  for (const index_t width : {1, 3, 5}) {
    EXPECT_EQ(check_sliced_bitwise(300, 300, 31, false, false, width), 0);
    EXPECT_GT(check_sliced_bitwise(613, 500, 32, false, false, width), 0);
  }
  EXPECT_GT(check_sliced_bitwise(901, 901, 33, false, false, 2), 0);
  EXPECT_GT(check_sliced_bitwise(613, 613, 34, false, true, 4), 0);
}

TEST(NumericKernels, SlicedLdltBitIdentical) {
  for (const index_t width : {1, 3, 5}) {
    EXPECT_EQ(check_sliced_bitwise(299, 150, 41, true, true, width), 0);
    EXPECT_GT(check_sliced_bitwise(613, 613, 42, true, true, width), 0);
  }
  EXPECT_GT(check_sliced_bitwise(750, 401, 43, true, true, 2), 0);
}

/// Master + helper threads through a SliceHub: helpers loop on help()
/// until `stop`.
struct HubHarness {
  SliceHub hub;
  std::atomic<bool> stop{false};
  std::vector<std::thread> helpers;

  explicit HubHarness(unsigned workers) : hub(workers) {
    for (unsigned w = 1; w < workers; ++w)
      helpers.emplace_back([this, w] {
        while (!stop.load()) {
          if (hub.joinable(w))
            hub.help(w, [this] { return stop.load(); });
          else
            std::this_thread::yield();
        }
      });
  }
  ~HubHarness() {
    stop.store(true);
    hub.wake();
    for (std::thread& t : helpers) t.join();
  }
};

TEST(SliceHubTest, HelpersFactorInPlaceBitIdentical) {
  const index_t n = 613;
  const std::vector<double> original = random_front(n, 51, false);
  std::vector<double> unsliced = original;
  (void)partial_lu_blocked(FrontView{unsliced.data(), n, n}, n);

  HubHarness h(4);
  FrontSlicer& slicer = h.hub.slicer(0);
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<double> split = original;
    slicer.begin_front(rep);
    (void)partial_lu_blocked(FrontView{split.data(), n, n}, n, &slicer);
    slicer.end_front();
    expect_bitwise_equal(split, unsliced, n, "hub-split LU");
  }
  EXPECT_EQ(h.hub.split_fronts(), 3u);
}

TEST(SliceHubTest, SliceExceptionRethrownOnceAfterEverySliceFinished) {
  HubHarness h(4);
  FrontSlicer& slicer = h.hub.slicer(0);
  std::atomic<int> in_flight{0};
  std::atomic<int> ran{0};
  const auto body = [&](index_t s) {
    in_flight.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    ran.fetch_add(1);
    in_flight.fetch_sub(1);
    if (s == 5) throw std::runtime_error("slice 5");
  };
  slicer.begin_front(7);
  EXPECT_THROW(slicer.run(16, SliceBody(body)), std::runtime_error);
  slicer.end_front();
  // The master returned only after every claimed slice came back; the
  // failing slice itself ran, slices claimed after the failure did not.
  EXPECT_EQ(in_flight.load(), 0);
  EXPECT_GE(ran.load(), 1);
  // The slicer is reusable: the next step runs every slice.
  ran.store(0);
  const auto ok = [&](index_t) { ran.fetch_add(1); };
  slicer.begin_front(8);
  slicer.run(16, SliceBody(ok));
  slicer.end_front();
  EXPECT_EQ(ran.load(), 16);
}

TEST(NumericKernels, SchurUpdateMatchesScalarRankUpdates) {
  // C -= A·B must equal the k-ordered sequence of rank-1 subtractions
  // bit for bit (that equivalence is what makes the blocked kernels
  // exact drop-ins).
  const index_t m = 37, n = 29, kb = 13;
  Rng rng(99);
  std::vector<double> a(static_cast<std::size_t>(m) * kb);
  std::vector<double> b(static_cast<std::size_t>(kb) * n);
  std::vector<double> c(static_cast<std::size_t>(m) * n);
  for (double& v : a) v = rng.real(-1.0, 1.0);
  for (double& v : b) v = rng.real(-1.0, 1.0);
  for (double& v : c) v = rng.real(-1.0, 1.0);
  std::vector<double> expected = c;
  for (index_t k = 0; k < kb; ++k)
    for (index_t j = 0; j < n; ++j) {
      const double w = b[static_cast<std::size_t>(j) * kb + k];
      for (index_t i = 0; i < m; ++i)
        expected[static_cast<std::size_t>(j) * m + i] -=
            a[static_cast<std::size_t>(k) * m + i] * w;
    }
  schur_update(m, n, kb, a.data(), m, b.data(), kb, c.data(), m);
  EXPECT_EQ(0, std::memcmp(c.data(), expected.data(),
                           c.size() * sizeof(double)));
}

// ---- instruction-set paths of the Schur microkernel ------------------------

/// C -= A·B, one element at a time in increasing k, with every product
/// forced through a rounded temporary: the oracle no compiler can fuse.
void schur_volatile(index_t m, index_t n, index_t kb, const double* a,
                    index_t lda, const double* b, index_t ldb, double* c,
                    index_t ldc) {
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      double acc = c[static_cast<std::size_t>(j) * ldc + i];
      for (index_t k = 0; k < kb; ++k) {
        volatile double p = a[static_cast<std::size_t>(k) * lda + i] *
                            b[static_cast<std::size_t>(j) * ldb + k];
        acc = acc - p;
      }
      c[static_cast<std::size_t>(j) * ldc + i] = acc;
    }
}

/// FMA canary operands: a·w is inexact and rounds to exactly c, so an
/// unfused `c - a*w` is +0.0 while fma(-a, w, c) is 2^-60.
constexpr double kCanaryA = 1.0 - 0x1p-30;
constexpr double kCanaryW = 1.0 + 0x1p-30;
constexpr double kCanaryC = 1.0;

std::string path_name(const ::testing::TestParamInfo<SimdPath>& info) {
  return simd_path_name(info.param);
}

/// One test per path; a path the host CPU lacks is skipped, by name.
class SimdPathTest : public ::testing::TestWithParam<SimdPath> {
 protected:
  void SetUp() override {
    if (!simd_path_supported(GetParam()))
      GTEST_SKIP() << "host CPU lacks the " << simd_path_name(GetParam())
                   << " path (running " << simd_path_name(simd_path())
                   << ")";
  }
};

TEST_P(SimdPathTest, SchurBitIdenticalOnRaggedShapes) {
  // Every row remainder of every microkernel height (m 1..50), row
  // counts around 128 and past one row tile (263), column counts off the
  // 4-column tile and past one column tile (243), leading dimensions
  // above m, and every operand one double off its allocation's
  // alignment. Whole buffers are compared, padding included, so a stray
  // masked store shows too.
  std::vector<index_t> ms;
  for (index_t m = 1; m <= 50; ++m) ms.push_back(m);
  for (const index_t m : {127, 128, 129, 263}) ms.push_back(m);
  Rng rng(7);
  for (const index_t kb : {1, 7, 48})
    for (const index_t n : {1, 2, 3, 6, 13, 243})
      for (const index_t m : ms) {
        if (n == 243 && m < 127) continue;  // keep the big-n cases few
        const index_t lda = m + 3, ldb = kb + 2, ldc = m + 5;
        std::vector<double> a(1 + static_cast<std::size_t>(lda) * kb);
        std::vector<double> b(1 + static_cast<std::size_t>(ldb) * n);
        std::vector<double> c(1 + static_cast<std::size_t>(ldc) * n);
        for (double& v : a) v = rng.real(-2.0, 2.0);
        for (double& v : b) v = rng.real(-2.0, 2.0);
        for (double& v : c) v = rng.real(-2.0, 2.0);
        std::vector<double> portable = c;
        std::vector<double> oracle = c;
        {
          const detail::ScopedSimdPath scoped(SimdPath::kPortable);
          schur_update(m, n, kb, a.data() + 1, lda, b.data() + 1, ldb,
                       portable.data() + 1, ldc);
        }
        schur_volatile(m, n, kb, a.data() + 1, lda, b.data() + 1, ldb,
                       oracle.data() + 1, ldc);
        const detail::ScopedSimdPath scoped(GetParam());
        schur_update(m, n, kb, a.data() + 1, lda, b.data() + 1, ldb,
                     c.data() + 1, ldc);
        const std::size_t bytes = c.size() * sizeof(double);
        ASSERT_EQ(0, std::memcmp(c.data(), portable.data(), bytes))
            << "vs portable: m=" << m << " n=" << n << " kb=" << kb;
        ASSERT_EQ(0, std::memcmp(c.data(), oracle.data(), bytes))
            << "vs volatile loop: m=" << m << " n=" << n << " kb=" << kb;
      }
}

TEST_P(SimdPathTest, SchurHasNoFusedMultiplySubtract) {
  volatile double p = kCanaryA * kCanaryW;
  ASSERT_NE(std::fma(-kCanaryA, kCanaryW, kCanaryC), kCanaryC - p)
      << "canary operands do not separate fused from unfused";
  // The canary product comes last in every element's chain (earlier
  // A columns are zero), so full tiles and edge tiles all end at +0.0.
  const detail::ScopedSimdPath scoped(GetParam());
  for (const index_t kb : {1, 7}) {
    const index_t m = 37, n = 7;
    std::vector<double> a(static_cast<std::size_t>(m) * kb, 0.0);
    std::fill(a.end() - m, a.end(), kCanaryA);
    std::vector<double> b(static_cast<std::size_t>(kb) * n, kCanaryW);
    std::vector<double> c(static_cast<std::size_t>(m) * n, kCanaryC);
    schur_update(m, n, kb, a.data(), m, b.data(), kb, c.data(), m);
    const std::vector<double> zeros(c.size(), 0.0);
    EXPECT_EQ(0, std::memcmp(c.data(), zeros.data(),
                             c.size() * sizeof(double)))
        << "kb=" << kb << ": c[0] = " << c[0];
  }
}

TEST_P(SimdPathTest, PartialFactorsBitIdenticalSlicedAndUnsliced) {
  const detail::ScopedSimdPath scoped(GetParam());
  check_lu_bitwise(129, 77, 61, false);
  check_lu_bitwise(263, 263, 62, true);
  check_ldlt_bitwise(131, 131, 63);
  check_ldlt_bitwise(263, 150, 64);
  EXPECT_GT(check_sliced_bitwise(613, 500, 65, false, false, 3), 0);
  EXPECT_GT(check_sliced_bitwise(613, 613, 66, true, true, 3), 0);
}

INSTANTIATE_TEST_SUITE_P(Paths, SimdPathTest,
                         ::testing::Values(SimdPath::kPortable,
                                           SimdPath::kAvx2,
                                           SimdPath::kAvx512),
                         path_name);

TEST(NumericKernels, PanelAndReferenceHaveNoFusedMultiplySubtract) {
  // The second pivot of each 2x2 front is c - l*u with canary operands:
  // exactly +0.0 unfused (an exact zero pivot), 2^-60 fused.
  volatile double aa = kCanaryA * kCanaryA;
  const double c2 = aa;  // round(a*a): the LDLt canary's c
  for (const bool blocked : {true, false}) {
    std::vector<double> lu{1.0, kCanaryA, kCanaryW, kCanaryC};
    const PartialFactorResult lr =
        blocked ? partial_lu_blocked(FrontView{lu.data(), 2, 2}, 2)
                : partial_lu_reference(FrontView{lu.data(), 2, 2}, 2);
    EXPECT_EQ(lr.exact_zero_pivots, 1) << "LU blocked=" << blocked;
    EXPECT_EQ(lu[3], kPivotFloor) << "LU blocked=" << blocked;

    std::vector<double> ld{1.0, kCanaryA, kCanaryA, c2};
    const PartialFactorResult dr =
        blocked ? partial_ldlt_blocked(FrontView{ld.data(), 2, 2}, 2)
                : partial_ldlt_reference(FrontView{ld.data(), 2, 2}, 2);
    EXPECT_EQ(dr.exact_zero_pivots, 1) << "LDLt blocked=" << blocked;
    EXPECT_EQ(ld[3], kPivotFloor) << "LDLt blocked=" << blocked;
  }
}

TEST(NumericKernels, SignbitPreservingPerturbation) {
  // -0.0 pivots must perturb to -kPivotFloor (the old `d >= 0` test
  // flipped them positive).
  for (const bool blocked : {true, false}) {
    std::vector<double> lu{-0.0, 0.0, 1.0, 1.0};  // column-major 2x2
    const PartialFactorResult lr =
        blocked ? partial_lu_blocked(FrontView{lu.data(), 2, 2}, 1)
                : partial_lu_reference(FrontView{lu.data(), 2, 2}, 1);
    EXPECT_EQ(lr.perturbations, 1);
    EXPECT_EQ(lu[0], -kPivotFloor) << "blocked=" << blocked;

    std::vector<double> ld{-0.0, 0.0, 0.0, 1.0};
    const PartialFactorResult dr =
        blocked ? partial_ldlt_blocked(FrontView{ld.data(), 2, 2}, 1)
                : partial_ldlt_reference(FrontView{ld.data(), 2, 2}, 1);
    EXPECT_EQ(dr.perturbations, 1);
    EXPECT_EQ(ld[0], -kPivotFloor) << "blocked=" << blocked;

    std::vector<double> pos{0.0, 0.0, 1.0, 1.0};
    const PartialFactorResult pr =
        blocked ? partial_lu_blocked(FrontView{pos.data(), 2, 2}, 1)
                : partial_lu_reference(FrontView{pos.data(), 2, 2}, 1);
    EXPECT_EQ(pr.perturbations, 1);
    EXPECT_EQ(pos[0], kPivotFloor);
  }
}

TEST(NumericKernels, ExtendAddMappedScattersThroughLocalMap) {
  std::vector<double> parent(16, 0.0);  // 4x4
  FrontView pv{parent.data(), 4, 4};
  const std::vector<double> cb{1.0, 3.0, 2.0, 4.0};  // 2x2 column-major
  const std::vector<index_t> positions{1, 3};
  extend_add_mapped(pv, cb.data(), 2, 2, positions);
  extend_add_mapped(pv, cb.data(), 2, 2, positions);  // accumulates
  EXPECT_DOUBLE_EQ(pv.at(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(pv.at(1, 3), 4.0);
  EXPECT_DOUBLE_EQ(pv.at(3, 1), 6.0);
  EXPECT_DOUBLE_EQ(pv.at(3, 3), 8.0);
  EXPECT_DOUBLE_EQ(pv.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(pv.at(2, 2), 0.0);
}

TEST(FrontalArenaTest, LifoPushPopTracksPeak) {
  FrontalArena arena;
  double* a = arena.push(100);
  double* b = arena.push(50);
  EXPECT_EQ(arena.in_use(), 150u);
  EXPECT_EQ(arena.peak(), 150u);
  arena.pop(b, 50);
  double* c = arena.push(25);
  EXPECT_EQ(arena.in_use(), 125u);
  EXPECT_EQ(arena.peak(), 150u);
  arena.pop(c, 25);
  arena.pop(a, 100);
  EXPECT_EQ(arena.in_use(), 0u);
  EXPECT_EQ(arena.peak(), 150u);
}

TEST(FrontalArenaTest, PopOutOfOrderThrows) {
  FrontalArena arena;
  double* a = arena.push(10);
  double* b = arena.push(20);
  EXPECT_THROW(arena.pop(a, 10), std::logic_error);
  arena.pop(b, 20);
  arena.pop(a, 10);
}

TEST(FrontalArenaTest, GrowsAcrossSlabsWithStablePointers) {
  FrontalArena arena(128);  // deliberately tiny reserve
  std::vector<std::pair<double*, std::size_t>> live;
  for (int i = 0; i < 20; ++i) {
    const std::size_t count = 100'000;  // forces fresh slabs
    double* p = arena.push(count);
    p[0] = static_cast<double>(i);
    p[count - 1] = -static_cast<double>(i);
    live.emplace_back(p, count);
  }
  EXPECT_GE(arena.slab_allocations(), 2u);
  for (int i = 0; i < 20; ++i) {  // earlier slots untouched by growth
    EXPECT_EQ(live[static_cast<std::size_t>(i)].first[0], i);
  }
  for (std::size_t i = live.size(); i-- > 0;)
    arena.pop(live[i].first, live[i].second);
  EXPECT_EQ(arena.in_use(), 0u);
  // Emptied slabs are reused, not reallocated.
  const std::size_t slabs = arena.slab_allocations();
  double* again = arena.push(100'000);
  EXPECT_EQ(arena.slab_allocations(), slabs);
  arena.pop(again, 100'000);
}

TEST(FrontalArenaTest, ZeroSizedAllocationsAreNoops) {
  FrontalArena arena;
  EXPECT_EQ(arena.push(0), nullptr);
  arena.pop(nullptr, 0);
  EXPECT_EQ(arena.in_use(), 0u);
}

}  // namespace
}  // namespace memfront
