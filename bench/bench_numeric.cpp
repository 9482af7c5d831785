// bench_numeric — the numeric factorization's performance trajectory.
//
// Three measurements:
//   1. Kernel sweep: the largest LU fronts of the biggest unsymmetric
//      Table-1 problem, factored with the pre-blocking scalar kernel and
//      the blocked kernel (bit-identical results); GFLOP/s of each and
//      the single-thread speedup. Then the largest front's first
//      trailing update (schur_update) on every instruction-set path the
//      CPU supports: GFLOP/s of each, and its bits against the portable
//      path (the bench exits nonzero if they differ). Then the split
//      kernel on the largest of those fronts at 1, 2 and 4 workers
//      (intra-front slices through a SliceHub): GFLOP/s, the speedup
//      over 1 worker and the slices the helpers ran (0 = nobody helped);
//      the bench exits nonzero if a split run's bits differ from the
//      reference. Last, the median fork/join cost of a split step
//      against the split floor's step time.
//   2. Per-problem factorization: every Table-1 matrix, serial reference
//      vs serial blocked vs tree-parallel at N workers; model GFLOP/s,
//      speedups, and the arena peak against the predicted physical peak
//      and the analysis' model-entry peak.
//   3. Aggregates: total kernel-sweep speedup and the worst/mean
//      parallel speedup, written with everything else to
//      BENCH_numeric.json so CI archives the trajectory.
//
// plus the scheduler-policy comparison: every Table-1 problem factored
// under the workload and the memory policy at a fixed worker count,
// written to BENCH_sched.json.
//
//   bench_numeric [scale] [--smoke] [--threads N] [--json PATH]
//                 [--policy workload|memory] [--sched-json PATH]
//                 [--trace-out FILE] [--metrics-out FILE]
//
// --smoke shrinks the run for CI (scale 0.3) unless an explicit scale is
// given. --policy selects the scheduler policy of the per-problem
// parallel runs. --trace-out records the real factorizations as a
// Perfetto timeline (per-worker subtree/upper-part/kernel spans) and
// writes a metrics snapshot next to it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "memfront/frontal/arena.hpp"
#include "memfront/frontal/kernels.hpp"
#include "memfront/obs/metrics.hpp"
#include "memfront/solver/parallel_numeric.hpp"
#include "memfront/solver/slice_hub.hpp"
#include "memfront/support/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using namespace memfront;
using namespace memfront::bench;

/// The blocked kernels' panel width (frontal/kernels.cpp): the k extent
/// of every trailing update.
constexpr index_t kPanelWidth = 48;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct NumericOptionsCli {
  double scale = 1.0;
  bool smoke = false;
  unsigned threads = 0;
  std::string json_path = "BENCH_numeric.json";
  std::string sched_json_path = "BENCH_sched.json";
  RealSchedOptions sched{};
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [scale] [--smoke] [--threads N] [--json PATH]"
               " [--policy workload|memory] [--sched-json PATH]"
               " [--trace-out FILE] [--metrics-out FILE]\n";
  std::exit(2);
}

NumericOptionsCli parse(int argc, char** argv) {
  NumericOptionsCli opt;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.smoke = true;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= argc) usage(argv[0]);
      opt.threads = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) usage(argv[0]);
      opt.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--sched-json") == 0) {
      if (i + 1 >= argc) usage(argv[0]);
      opt.sched_json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--policy") == 0) {
      if (i + 1 >= argc) usage(argv[0]);
      const char* name = argv[++i];
      if (std::strcmp(name, "workload") == 0)
        opt.sched.policy = RealPolicy::kWorkload;
      else if (std::strcmp(name, "memory") == 0)
        opt.sched.policy = RealPolicy::kMemory;
      else
        usage(argv[0]);
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      usage(argv[0]);
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (opt.smoke) opt.scale = 0.3;
  if (!positional.empty()) opt.scale = std::atof(positional[0]);
  return opt;
}

std::vector<double> random_front(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> data(static_cast<std::size_t>(n) * n);
  for (double& v : data) v = rng.real(-1.0, 1.0);
  for (index_t r = 0; r < n; ++r) {
    double sum = 0.0;
    for (index_t c = 0; c < n; ++c)
      sum += std::abs(data[static_cast<std::size_t>(c) * n + r]);
    data[static_cast<std::size_t>(r) * n + r] = sum + 1.0;
  }
  return data;
}

/// Times `factor(view)` on fresh copies of `original` until ~0.2 s of
/// work accumulates; returns seconds per factorization.
template <typename Factor>
double time_kernel(const std::vector<double>& original, index_t n,
                   index_t npiv, Factor&& factor, int min_reps) {
  std::vector<double> work(original.size());
  double total = 0.0;
  int reps = 0;
  while (reps < min_reps || total < 0.2) {
    std::copy(original.begin(), original.end(), work.begin());
    const auto start = Clock::now();
    factor(FrontView{work.data(), n, n}, npiv);
    total += seconds_since(start);
    ++reps;
    if (reps >= 50) break;
  }
  return total / reps;
}

struct KernelRow {
  index_t nfront = 0;
  index_t npiv = 0;
  double ref_s = 0.0;
  double blocked_s = 0.0;
  double flops = 0.0;
};

/// One worker count of the split-kernel row.
struct SplitRow {
  unsigned workers = 0;
  double seconds = 0.0;
  bool bitwise = false;
  std::uint64_t helper_slices = 0;  ///< over every rep of this width
};

/// One instruction-set path of the Schur row.
struct SchurRow {
  SimdPath path = SimdPath::kPortable;
  double seconds = 0.0;
  bool bitwise = false;
};

/// Times the first panel step's trailing update of an n-front — C(nt x nt)
/// -= A(nt x kb) * B(kb x nt), nt = n - kb, in the front's own layout —
/// on every path the CPU supports, and checks each path's bits against
/// the portable path's.
std::vector<SchurRow> time_schur_paths(const std::vector<double>& front,
                                       index_t n, index_t kb, int min_reps) {
  const index_t nt = n - kb;
  const std::size_t kbn = static_cast<std::size_t>(kb) * n;
  const double* a = front.data() + kb;  // rows [kb, n) of columns [0, kb)
  const double* b = front.data() + kbn;  // rows [0, kb) of columns [kb, n)
  const std::size_t c0 = kbn + kb;
  std::vector<double> work(front.size());
  std::vector<double> portable;
  std::vector<SchurRow> rows;
  for (const SimdPath path :
       {SimdPath::kPortable, SimdPath::kAvx2, SimdPath::kAvx512}) {
    if (!simd_path_supported(path)) continue;
    const detail::ScopedSimdPath scoped(path);
    double total = 0.0;
    int reps = 0;
    while ((reps < min_reps || total < 0.2) && reps < 50) {
      std::copy(front.begin(), front.end(), work.begin());
      const auto start = Clock::now();
      schur_update(nt, nt, kb, a, n, b, n, work.data() + c0, n);
      total += seconds_since(start);
      ++reps;
    }
    SchurRow row;
    row.path = path;
    row.seconds = total / reps;
    if (portable.empty()) portable = work;
    row.bitwise = std::memcmp(work.data(), portable.data(),
                              work.size() * sizeof(double)) == 0;
    rows.push_back(row);
  }
  return rows;
}

/// workers - 1 helper threads joining the fronts a SliceHub's worker 0
/// posts, until destruction (which also joins them on unwinding).
struct HubHelpers {
  SliceHub hub;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  explicit HubHelpers(unsigned workers) : hub(workers) {
    for (unsigned w = 1; w < workers; ++w)
      threads.emplace_back([this, w] {
        while (!stop.load()) {
          if (hub.joinable(w))
            hub.help(w, [this] { return stop.load(); });
          else
            std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
      });
  }
  ~HubHelpers() {
    stop.store(true);
    hub.wake();
    for (std::thread& t : threads) t.join();
  }
};

/// Median fork/join cost of one split step on `workers` workers, as a
/// panel step meets it: helpers parked (the master spends longer than
/// their spin between steps), then a step of 4 slices per worker, each
/// slice 25 us of busy work. Cost = step wall time - slice work / workers.
double fork_join_us(unsigned workers) {
  constexpr auto kSliceWork = std::chrono::microseconds(25);
  HubHelpers helpers(workers);
  FrontSlicer& slicer = helpers.hub.slicer(0);
  const auto body = [&](index_t) {
    const auto until = Clock::now() + kSliceWork;
    while (Clock::now() < until) {
    }
  };
  const auto count = static_cast<index_t>(4 * workers);
  const double ideal_us =
      static_cast<double>(kSliceWork.count()) * count / workers;
  std::vector<double> cost_us;
  slicer.begin_front(0);
  for (int step = 0; step < 101; ++step) {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    const auto start = Clock::now();
    slicer.run(count, SliceBody(body));
    cost_us.push_back(seconds_since(start) * 1e6 - ideal_us);
  }
  slicer.end_front();
  std::nth_element(cost_us.begin(), cost_us.begin() + cost_us.size() / 2,
                   cost_us.end());
  return cost_us[cost_us.size() / 2];
}

/// Times the blocked LU kernel on one front split across `workers`
/// threads: the calling thread is the master, workers - 1 helper threads
/// join its steps through a SliceHub. Checks the split result's bits
/// against `reference` (the scalar kernel's output).
SplitRow time_split_kernel(const std::vector<double>& original, index_t n,
                           index_t npiv, unsigned workers,
                           const std::vector<double>& reference,
                           int min_reps) {
  HubHelpers helpers(workers);
  FrontSlicer& slicer = helpers.hub.slicer(0);
  SliceRunner* runner = workers > 1 ? &slicer : nullptr;
  const auto factor = [&](FrontView f, index_t np) {
    slicer.begin_front(0);
    (void)partial_lu_blocked(f, np, runner);
    slicer.end_front();
  };
  SplitRow row;
  row.workers = workers;
  row.seconds = time_kernel(original, n, npiv, factor, min_reps);
  std::vector<double> work = original;
  factor(FrontView{work.data(), n, n}, npiv);
  row.bitwise = std::memcmp(work.data(), reference.data(),
                            work.size() * sizeof(double)) == 0;
  row.helper_slices = helpers.hub.helper_slices();
  return row;
}

struct ProblemRow {
  std::string name;
  bool symmetric = false;
  count_t flops = 0;
  double reference_s = 0.0;
  double serial_s = 0.0;
  double parallel_s = 0.0;
  count_t arena_peak = 0;
  count_t predicted_peak = 0;
  count_t model_peak = 0;
  count_t parallel_arena_peak = 0;
  index_t subtrees = 0;
};

/// One workload-vs-memory comparison row of the scheduler sweep.
struct SchedRow {
  std::string name;
  double workload_s = 0.0;
  double memory_s = 0.0;
  std::uint64_t steals = 0;   ///< workload run
  std::uint64_t wakeups = 0;  ///< workload run
  std::uint64_t idle_ns = 0;  ///< workload run
  count_t workload_peak = 0;
  count_t memory_peak = 0;
  index_t subtrees = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const ObsArgs obs_args = extract_obs_args(argc, argv);
  const NumericOptionsCli opt = parse(argc, argv);
  const unsigned threads =
      opt.threads > 0 ? opt.threads : default_thread_count();

  std::cout << "bench_numeric: blocked kernels, arena stack, tree "
               "parallelism (scale="
            << opt.scale << ", threads=" << threads
            << (opt.smoke ? ", smoke" : "") << ")\n"
            << "Schur microkernel path: " << simd_path_name(simd_path())
            << " (" << simd_lanes(simd_path()) << " lanes)\n\n";
  obs_args.begin();

  // ---- 1. kernel sweep on the largest LU fronts ----------------------------
  // PRE2 is the biggest unsymmetric Table-1 problem; its largest fronts
  // are where the factorization spends its flops.
  const Problem sweep_problem = make_problem(ProblemId::kPre2, opt.scale);
  AnalysisOptions sweep_opt;
  sweep_opt.ordering = OrderingKind::kNestedDissection;
  const std::shared_ptr<const Analysis> sweep_analysis =
      PreparedCache::global().analysis(sweep_problem.matrix, sweep_opt);
  std::vector<index_t> by_size(
      static_cast<std::size_t>(sweep_analysis->tree.num_nodes()));
  for (std::size_t i = 0; i < by_size.size(); ++i)
    by_size[i] = static_cast<index_t>(i);
  std::sort(by_size.begin(), by_size.end(), [&](index_t a, index_t b) {
    return sweep_analysis->tree.nfront(a) > sweep_analysis->tree.nfront(b);
  });
  const std::size_t sweep_fronts = opt.smoke ? 3 : 5;
  const int min_reps = opt.smoke ? 2 : 3;

  std::vector<KernelRow> kernel_rows;
  double ref_total = 0.0, blocked_total = 0.0;
  TextTable ktable({"LU front (PRE2)", "npiv", "scalar (ms)", "blocked (ms)",
                    "scalar GF/s", "blocked GF/s", "speedup x"});
  for (std::size_t k = 0; k < std::min(sweep_fronts, by_size.size()); ++k) {
    const index_t node = by_size[k];
    KernelRow row;
    row.nfront = sweep_analysis->tree.nfront(node);
    row.npiv = sweep_analysis->tree.npiv(node);
    if (row.nfront < 2) continue;
    row.flops = static_cast<double>(
        elimination_flops(row.nfront, row.npiv, false));
    const std::vector<double> original =
        random_front(row.nfront, 1000 + static_cast<std::uint64_t>(k));
    row.ref_s = time_kernel(
        original, row.nfront, row.npiv,
        [](FrontView f, index_t np) { (void)partial_lu_reference(f, np); },
        min_reps);
    row.blocked_s = time_kernel(
        original, row.nfront, row.npiv,
        [](FrontView f, index_t np) { (void)partial_lu_blocked(f, np); },
        min_reps);
    ref_total += row.ref_s;
    blocked_total += row.blocked_s;
    ktable.row();
    ktable.cell(static_cast<long>(row.nfront));
    ktable.cell(static_cast<long>(row.npiv));
    ktable.cell(row.ref_s * 1e3, 2);
    ktable.cell(row.blocked_s * 1e3, 2);
    ktable.cell(row.flops / row.ref_s / 1e9, 2);
    ktable.cell(row.flops / row.blocked_s / 1e9, 2);
    ktable.cell(row.ref_s / row.blocked_s, 2);
    kernel_rows.push_back(row);
  }
  const double kernel_speedup = ref_total / blocked_total;
  ktable.print(std::cout);
  std::cout << "\nkernel sweep single-thread speedup (total): "
            << kernel_speedup << "x\n\n";

  // Schur row: the largest swept front's first trailing update on every
  // instruction-set path the CPU supports.
  std::vector<SchurRow> schur_rows;
  bool schur_bitwise = true;
  double schur_flops = 0.0;
  if (!kernel_rows.empty()) {
    const index_t n = kernel_rows.front().nfront;
    const index_t kb = std::min<index_t>(kPanelWidth, n - 1);
    schur_flops = 2.0 * static_cast<double>(n - kb) * (n - kb) * kb;
    schur_rows = time_schur_paths(random_front(n, 1000), n, kb, min_reps);
    TextTable htable({"path", "lanes", "schur (ms)", "GF/s", "bitwise"});
    for (const SchurRow& row : schur_rows) {
      schur_bitwise = schur_bitwise && row.bitwise;
      htable.row();
      htable.cell(simd_path_name(row.path));
      htable.cell(static_cast<long>(simd_lanes(row.path)));
      htable.cell(row.seconds * 1e3, 2);
      htable.cell(schur_flops / row.seconds / 1e9, 2);
      htable.cell(row.bitwise ? "yes" : "NO");
    }
    std::cout << "Schur update of the largest front's first panel step "
                 "(m = n = " << n - kb << ", kb = " << kb
              << ") on every supported path; bitwise = equal to the portable "
                 "path\n";
    htable.print(std::cout);
    std::cout << '\n';
  }

  // Split kernel: the largest swept front, its panel steps cut into
  // column slices and run by 1, 2 and 4 workers.
  std::vector<SplitRow> split_rows;
  bool split_bitwise = true;
  double split_floor_flops = 0.0, floor_step_us = 0.0, join_us = 0.0;
  if (!kernel_rows.empty()) {
    const KernelRow& big = kernel_rows.front();
    const std::vector<double> original = random_front(big.nfront, 1000);
    std::vector<double> reference = original;
    (void)partial_lu_reference(FrontView{reference.data(), big.nfront,
                                         big.nfront},
                               big.npiv);
    TextTable stable({"workers", "split (ms)", "GF/s", "speedup x",
                      "helper slices", "bitwise"});
    for (unsigned w : {1u, 2u, 4u}) {
      const SplitRow row = time_split_kernel(original, big.nfront, big.npiv,
                                             w, reference, min_reps);
      split_bitwise = split_bitwise && row.bitwise;
      stable.row();
      stable.cell(static_cast<long>(w));
      stable.cell(row.seconds * 1e3, 2);
      stable.cell(big.flops / row.seconds / 1e9, 2);
      stable.cell(split_rows.empty() ? 1.0
                                     : split_rows.front().seconds / row.seconds,
                  2);
      stable.cell(static_cast<long>(row.helper_slices));
      stable.cell(row.bitwise ? "yes" : "NO");
      split_rows.push_back(row);
    }
    std::cout << "split kernel on the largest PRE2 front (nfront="
              << big.nfront << ", npiv=" << big.npiv
              << "): GF/s = model flops / time, speedup = 1-worker time / "
                 "time,\nhelper slices = slices the helper threads ran over "
                 "all reps\n";
    stable.print(std::cout);
    // The split floor against the fork/join: the smallest trailing update
    // that splits, timed at the chosen path's Schur rate.
    index_t floor_nt = 1;
    while (trailing_slices(floor_nt, kPanelWidth, 4) <= 1) ++floor_nt;
    split_floor_flops = 2.0 * floor_nt * floor_nt * kPanelWidth;
    for (const SchurRow& r : schur_rows)
      if (r.path == simd_path())
        floor_step_us = split_floor_flops / (schur_flops / r.seconds) * 1e6;
    join_us = fork_join_us(4);
    std::cout << "split floor " << split_floor_flops / 1e6 << " MFLOP = "
              << floor_step_us << " us of serial Schur work; 4-worker "
                 "fork/join with parked helpers " << join_us
              << " us (median) = " << 100.0 * join_us / floor_step_us
              << "% of a floor step\n";
    std::cout << "\nsplit kernel results "
              << (split_bitwise ? "bit-identical to" : "DIVERGE FROM")
              << " the scalar reference\n\n";
  }

  // ---- 2. per-problem factorization sweep ----------------------------------
  TextTable ptable({"Matrix", "type", "GFlop", "scalar (s)", "blocked (s)",
                    "par (s)", "serial x", "par x", "GF/s par",
                    "arena peak (M dbl)", "pred (M dbl)"});
  std::vector<ProblemRow> rows;
  double worst_parallel_speedup = 1e300;
  bool arena_matches = true;
  for (ProblemId id : all_problem_ids()) {
    const Problem p = make_problem(id, opt.scale);
    AnalysisOptions aopt;
    aopt.ordering = OrderingKind::kNestedDissection;
    aopt.symmetric = p.symmetric;
    const std::shared_ptr<const Analysis> analysis =
        PreparedCache::global().analysis(p.matrix, aopt);

    ProblemRow row;
    row.name = p.name;
    row.symmetric = p.symmetric;
    row.flops = analysis->tree.total_flops();
    row.model_peak = analysis->memory.peak;
    row.predicted_peak =
        predict_arena_peak(analysis->tree, analysis->traversal);

    NumericOptions reference;
    reference.kernel = FrontalKernel::kReference;
    auto start = Clock::now();
    const Factorization fref = numeric_factorize(*analysis, reference);
    row.reference_s = seconds_since(start);

    start = Clock::now();
    const Factorization fblocked = numeric_factorize(*analysis);
    row.serial_s = seconds_since(start);
    row.arena_peak = fblocked.stats.arena_peak_doubles;

    ParallelNumericOptions popt;
    popt.nthreads = threads;
    popt.sched = opt.sched;
    ParallelNumericStats pstats;
    start = Clock::now();
    const Factorization fpar =
        parallel_numeric_factorize(*analysis, popt, &pstats);
    row.parallel_s = seconds_since(start);
    row.parallel_arena_peak = pstats.max_arena_peak_doubles;
    row.subtrees = pstats.num_subtrees;

    arena_matches = arena_matches && row.arena_peak == row.predicted_peak &&
                    row.parallel_arena_peak <= row.predicted_peak;
    worst_parallel_speedup =
        std::min(worst_parallel_speedup, row.serial_s / row.parallel_s);

    ptable.row();
    ptable.cell(row.name);
    ptable.cell(row.symmetric ? "SYM" : "UNS");
    ptable.cell(static_cast<double>(row.flops) / 1e9, 3);
    ptable.cell(row.reference_s, 3);
    ptable.cell(row.serial_s, 3);
    ptable.cell(row.parallel_s, 3);
    ptable.cell(row.reference_s / row.serial_s, 2);
    ptable.cell(row.serial_s / row.parallel_s, 2);
    ptable.cell(static_cast<double>(row.flops) / row.parallel_s / 1e9, 2);
    ptable.cell(static_cast<double>(row.arena_peak) / 1e6, 3);
    ptable.cell(static_cast<double>(row.predicted_peak) / 1e6, 3);
    rows.push_back(row);
  }
  ptable.print(std::cout);
  std::cout << "\narena peaks " << (arena_matches ? "match" : "DIVERGE FROM")
            << " the predictions on every problem (serial ==, parallel <=)\n";

  // ---- 3. scheduler-policy sweep -----------------------------------------
  // Every Table-1 problem at a fixed worker count under the workload
  // policy and under the memory policy.
  const unsigned sched_workers = 4;
  auto timed_parallel = [](const Analysis& analysis, unsigned workers,
                           RealPolicy policy, ParallelNumericStats* stats) {
    ParallelNumericOptions popt;
    popt.nthreads = workers;
    popt.nprocs = workers;
    popt.sched.policy = policy;
    const auto start = Clock::now();
    (void)parallel_numeric_factorize(analysis, popt, stats);
    return seconds_since(start);
  };

  std::cout << "\nscheduler sweep: workload vs memory policy at "
            << sched_workers << " workers\n";
  TextTable sched_table({"Matrix", "workload (s)", "memory (s)", "steals",
                         "idle (ms)", "peak wl (M dbl)", "peak mem (M dbl)"});
  std::vector<SchedRow> sched_rows;
  for (ProblemId id : all_problem_ids()) {
    const Problem p = make_problem(id, opt.scale);
    AnalysisOptions aopt;
    aopt.ordering = OrderingKind::kNestedDissection;
    aopt.symmetric = p.symmetric;
    const std::shared_ptr<const Analysis> analysis =
        PreparedCache::global().analysis(p.matrix, aopt);

    SchedRow row;
    row.name = p.name;
    ParallelNumericStats st_wl, st_mem;
    row.workload_s = timed_parallel(*analysis, sched_workers,
                                    RealPolicy::kWorkload, &st_wl);
    row.memory_s = timed_parallel(*analysis, sched_workers,
                                  RealPolicy::kMemory, &st_mem);
    row.steals = st_wl.sched.steals;
    row.wakeups = st_wl.sched.wakeups;
    row.idle_ns = st_wl.sched.idle_ns;
    row.workload_peak = st_wl.max_arena_peak_doubles;
    row.memory_peak = st_mem.max_arena_peak_doubles;
    row.subtrees = st_wl.num_subtrees;
    sched_table.row();
    sched_table.cell(row.name);
    sched_table.cell(row.workload_s, 3);
    sched_table.cell(row.memory_s, 3);
    sched_table.cell(static_cast<long>(row.steals));
    sched_table.cell(static_cast<double>(row.idle_ns) / 1e6, 1);
    sched_table.cell(static_cast<double>(row.workload_peak) / 1e6, 3);
    sched_table.cell(static_cast<double>(row.memory_peak) / 1e6, 3);
    sched_rows.push_back(row);
  }
  sched_table.print(std::cout);

  // ---- BENCH_sched.json ----------------------------------------------------
  {
    std::ofstream sjson(opt.sched_json_path);
    sjson << "{\n"
          << "  \"bench\": \"bench_sched\",\n"
          << "  \"smoke\": " << (opt.smoke ? "true" : "false") << ",\n"
          << "  \"scale\": " << opt.scale << ",\n"
          << "  \"workers\": " << sched_workers << ",\n"
          << "  \"problems\": [\n";
    for (std::size_t i = 0; i < sched_rows.size(); ++i) {
      const SchedRow& r = sched_rows[i];
      sjson << "    {\"name\": \"" << r.name << "\""
            << ", \"workload_s\": " << r.workload_s
            << ", \"memory_s\": " << r.memory_s
            << ", \"steals\": " << r.steals
            << ", \"wakeups\": " << r.wakeups
            << ", \"idle_ns\": " << r.idle_ns
            << ", \"workload_arena_peak_doubles\": " << r.workload_peak
            << ", \"memory_arena_peak_doubles\": " << r.memory_peak
            << ", \"subtrees\": " << r.subtrees << "}"
            << (i + 1 < sched_rows.size() ? "," : "") << "\n";
    }
    sjson << "  ]\n}\n";
    if (!sjson) {
      std::cerr << "bench_numeric: failed to write " << opt.sched_json_path
                << '\n';
      return 1;
    }
    std::cout << "\nwrote " << opt.sched_json_path << '\n';
  }

  // ---- BENCH_numeric.json --------------------------------------------------
  std::ofstream json(opt.json_path);
  json << "{\n"
       << "  \"bench\": \"bench_numeric\",\n"
       << "  \"smoke\": " << (opt.smoke ? "true" : "false") << ",\n"
       << "  \"scale\": " << opt.scale << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"simd_path\": \"" << simd_path_name(simd_path()) << "\",\n"
       << "  \"simd_lanes\": " << simd_lanes(simd_path()) << ",\n"
       << "  \"kernel_sweep_speedup\": " << kernel_speedup << ",\n"
       << "  \"kernel_sweep\": [\n";
  for (std::size_t i = 0; i < kernel_rows.size(); ++i) {
    const KernelRow& r = kernel_rows[i];
    json << "    {\"nfront\": " << r.nfront << ", \"npiv\": " << r.npiv
         << ", \"scalar_s\": " << r.ref_s
         << ", \"blocked_s\": " << r.blocked_s
         << ", \"blocked_gflops\": " << r.flops / r.blocked_s / 1e9 << "}"
         << (i + 1 < kernel_rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"schur_paths\": [\n";
  for (std::size_t i = 0; i < schur_rows.size(); ++i) {
    const SchurRow& r = schur_rows[i];
    json << "    {\"path\": \"" << simd_path_name(r.path) << "\""
         << ", \"lanes\": " << simd_lanes(r.path)
         << ", \"seconds\": " << r.seconds
         << ", \"gflops\": " << schur_flops / r.seconds / 1e9
         << ", \"bitwise\": " << (r.bitwise ? "true" : "false") << "}"
         << (i + 1 < schur_rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"split_kernel\": [\n";
  for (std::size_t i = 0; i < split_rows.size(); ++i) {
    const SplitRow& r = split_rows[i];
    json << "    {\"workers\": " << r.workers << ", \"seconds\": " << r.seconds
         << ", \"gflops\": " << kernel_rows.front().flops / r.seconds / 1e9
         << ", \"speedup\": " << split_rows.front().seconds / r.seconds
         << ", \"helper_slices\": " << r.helper_slices
         << ", \"bitwise\": " << (r.bitwise ? "true" : "false") << "}"
         << (i + 1 < split_rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"split_floor_flops\": " << split_floor_flops << ",\n"
       << "  \"split_floor_step_us\": " << floor_step_us << ",\n"
       << "  \"fork_join_us\": " << join_us << ",\n"
       << "  \"problems\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ProblemRow& r = rows[i];
    json << "    {\"name\": \"" << r.name << "\""
         << ", \"symmetric\": " << (r.symmetric ? "true" : "false")
         << ", \"flops\": " << r.flops
         << ", \"reference_s\": " << r.reference_s
         << ", \"serial_s\": " << r.serial_s
         << ", \"parallel_s\": " << r.parallel_s
         << ", \"serial_speedup\": " << r.reference_s / r.serial_s
         << ", \"parallel_speedup\": " << r.serial_s / r.parallel_s
         << ", \"arena_peak_doubles\": " << r.arena_peak
         << ", \"predicted_arena_doubles\": " << r.predicted_peak
         << ", \"parallel_arena_peak_doubles\": " << r.parallel_arena_peak
         << ", \"model_peak_entries\": " << r.model_peak
         << ", \"subtrees\": " << r.subtrees << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  // Numeric-robustness trajectory: pivot health across every run above
  // (the registry accumulated them via record_factor_stats).
  const auto& registry = obs::MetricsRegistry::global();
  const obs::Counter* perturbed =
      registry.find_counter("solver.factor.perturbed_pivots");
  const obs::Counter* zero_pivots =
      registry.find_counter("solver.factor.exact_zero_pivots");
  const obs::FloatGauge* growth =
      registry.find_float_gauge("solver.factor.pivot_growth_max");
  const obs::Counter* injected =
      registry.find_counter("fault.injected_count");
  json << "  ],\n"
       << "  \"robustness\": {\n"
       << "    \"perturbed_pivots\": " << (perturbed ? perturbed->value() : 0)
       << ",\n"
       << "    \"exact_zero_pivots\": "
       << (zero_pivots ? zero_pivots->value() : 0) << ",\n"
       << "    \"pivot_growth_max\": " << (growth ? growth->value() : 0.0)
       << ",\n"
       << "    \"fault_injected_count\": " << (injected ? injected->value() : 0)
       << "\n  },\n"
       << "  \"worst_parallel_speedup\": " << worst_parallel_speedup << ",\n"
       << "  \"arena_peaks_match\": " << (arena_matches ? "true" : "false")
       << "\n}\n";
  if (!json) {
    std::cerr << "bench_numeric: failed to write " << opt.json_path << '\n';
    return 1;
  }
  std::cout << "\nwrote " << opt.json_path << '\n';
  obs_args.finish();
  if (!arena_matches) {
    std::cerr << "bench_numeric: arena peak diverged from prediction\n";
    return 1;
  }
  if (!schur_bitwise) {
    std::cerr << "bench_numeric: a Schur path diverged from the portable "
                 "path\n";
    return 1;
  }
  if (!split_bitwise) {
    std::cerr << "bench_numeric: split kernel diverged from the reference\n";
    return 1;
  }
  return 0;
}
