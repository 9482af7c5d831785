// e2ebench — the end-to-end benchmark of the multifrontal solver.
//
// One process runs one workload through the public solver API:
// analyze → parallel_numeric_factorize (4 workers, optionally under an
// out-of-core budget) → ensure_factors_resident → build_solve_graph +
// solve_factorized_multi. Every solve is checked against an independent
// backward-error oracle. Workloads:
//
//   bushy_tree    wide assembly trees (tree bound >= 3): ordering and
//                 tree-parallel factorization of many mid-size fronts.
//   big_front     trees dominated by one front (tree bound <= 1.5):
//                 dense kernels on a few huge fronts.
//   ooc_budget    3D trees factorized under 0.8x the serial predicted
//                 arena peak: spill, reload and factor streaming.
//   solve_stream  one closed-loop client issuing k=1 and k=16 solves
//                 against retained factorizations.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            --spill-dir DIR
//
// --trace 0 prints the end-to-end metrics (tracing off); --trace 1 runs
// the same work with span tracing on and prints the per-layer metrics.
// --spill-dir is an empty private directory for spill files (ooc_budget);
// its owner makes it and removes it afterwards.
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "inputs.hpp"
#include "memfront/frontal/arena.hpp"
#include "memfront/frontal/kernels.hpp"
#include "memfront/obs/metrics.hpp"
#include "memfront/obs/span_tracer.hpp"
#include "memfront/solver/analysis.hpp"
#include "memfront/solver/numeric_factor.hpp"
#include "memfront/solver/parallel_numeric.hpp"
#include "memfront/solver/solve.hpp"
#include "memfront/support/status.hpp"
#include "spans.hpp"
#include "stats.hpp"

#ifndef E2EBENCH_COMPILER
#define E2EBENCH_COMPILER __VERSION__
#endif
#ifndef E2EBENCH_COMPILER_FLAGS
#define E2EBENCH_COMPILER_FLAGS "unknown"
#endif

namespace e2ebench {
namespace {

using namespace memfront;

constexpr unsigned kWorkers = 4;
/// Normwise backward error above which a solve counts as failed.
constexpr double kTolerance = 1e-8;
/// Timed sections shorter than this are reported but not citable.
constexpr double kEvidenceFloorS = 0.020;
constexpr int kSetupReps = 21;       // input generation only
constexpr int kStreamSetupReps = 5;  // generation + analyze + factorize
/// Fewest requests per input and k a solve loop sends, however short its
/// time.
constexpr int kMinRequests = 10;
/// Each request is sent once in each of this many consecutive rounds, and
/// its latency is the fastest send. A 4-worker solve of a few ms stalls
/// whenever the hypervisor takes one of the VM's CPUs for a slice (the
/// host's steal time, reported as host_steal_s); on a shared host that
/// hits most sends in some minutes and few in others. The fastest of
/// six sends spread over six rounds keeps the solver's own cost and
/// drops most of that; with three, heavy-steal minutes still spread the
/// latency metrics by 0.3-0.4 over ten runs.
constexpr int kSends = 6;
/// Pipeline workloads follow each pass with solve requests for this share
/// of the pass's time: enough requests for the latency percentiles, while
/// most of the run still goes to passes, whose medians carry the rest.
constexpr double kSolveShare = 0.5;
constexpr double kOocBudgetFraction = 0.8;
constexpr int kRhsPanels = 4;  // distinct right-hand sides per (input, k)
constexpr index_t kWideK = 16;
constexpr double kMb = 1e-6;

// ---- workloads --------------------------------------------------------------

enum class Mode { kPipeline, kStream };

struct ProblemSpec {
  std::string name;  // Table-1 analogue, or "LAPLACE3D" (scale = edge)
  double scale = 1.0;
};

struct WorkloadSpec {
  std::string name;
  Mode mode = Mode::kPipeline;
  bool ooc = false;
  std::vector<ProblemSpec> problems;
};

/// Scales keep one pipeline pass at 1.5-4 s, so a 20 s run takes several
/// passes. MSDOOR runs at 1.0 rather than 2.0: its ordering alone took
/// about 3 s at 2.0, and at 1.0 its tree bound is still 4.5.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      {"bushy_tree", Mode::kPipeline, false,
       {{"SHIP_003", 1.0}, {"MSDOOR", 1.0}}},
      {"big_front", Mode::kPipeline, false,
       {{"GUPTA3", 1.0}, {"TWOTONE", 1.0}}},
      {"ooc_budget", Mode::kPipeline, true,
       {{"XENON2", 1.0}, {"ULTRASOUND3", 1.0}}},
      {"solve_stream", Mode::kStream, false,
       {{"BMWCRA_1", 1.0}, {"SHIP_003", 1.0}, {"XENON2", 1.0},
        {"LAPLACE3D", 24}}},
  };
  return all;
}

/// The solve_stream inputs, whose per-input latencies are per-layer
/// metrics (solve.<NAME>.k1_p50_ms) on every workload that has them.
const std::vector<std::string>& stream_input_names() {
  static const std::vector<std::string> names = {"BMWCRA_1", "SHIP_003",
                                                 "XENON2", "LAPLACE3D_24"};
  return names;
}

std::vector<Input> generate_inputs(const WorkloadSpec& w, std::uint64_t seed) {
  std::vector<Input> out;
  for (const ProblemSpec& p : w.problems) {
    if (p.name == "LAPLACE3D")
      out.push_back(shifted_laplacian(static_cast<index_t>(p.scale), 0.5));
    else
      out.push_back(
          table1_analogue(p.name, p.scale, input_seed(seed, p.name)));
  }
  return out;
}

// ---- options ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spill_dir;
};

[[noreturn]] void usage(const char* msg) {
  std::cerr << "e2ebench: " << msg
            << "\nusage: e2ebench --workload "
               "bushy_tree|big_front|ooc_budget|solve_stream --seed N "
               "--seconds S --trace 0|1 --spill-dir DIR\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::atof(value().c_str());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--spill-dir") o.spill_dir = value();
    else usage(("unknown argument " + a).c_str());
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

// ---- failure accounting -------------------------------------------------------

/// Operations attempted and failed. An operation fails when it throws (a
/// non-ok Status), overruns its memory budget, leaves spill files
/// behind, or returns a solution the oracle rejects.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double worst_backward_error = 0.0;
  std::map<std::string, std::uint64_t> failures;  // reason -> count

  void fail(const std::string& reason) {
    ++failed;
    if (failures[reason]++ == 0)
      std::cerr << "e2ebench: FAILED " << reason << "\n";
  }

  /// Runs `fn` as one operation; a thrown error becomes a failure.
  template <typename Fn>
  bool run(const std::string& what, Fn&& fn) {
    ++attempted;
    return guarded(what, fn);
  }

  /// Runs `fn` as part of an operation already counted.
  template <typename Fn>
  bool guarded(const std::string& what, Fn&& fn) {
    try {
      fn();
      return true;
    } catch (...) {
      const Status s = Status::from_current_exception();
      fail(what + ": " + error_code_name(s.code) + " " + s.message);
      return false;
    }
  }
};

/// A generated input lacks the property its workload exists for.
struct PropertyViolation : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// ---- spill directory ----------------------------------------------------------

/// Regular files left anywhere below `dir`.
std::size_t leftover_files(const std::string& dir) {
  std::size_t n = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec))
    if (it->is_regular_file()) ++n;
  return n;
}

// ---- per-input state ----------------------------------------------------------------

/// Flop-model facts of one analysis (AssemblyTree::flops).
struct TreeFacts {
  index_t fronts = 0;
  double flops = 0.0;
  double critical_path_flops = 0.0;  // heaviest leaf-to-root chain
  double max_front_flops = 0.0;
  index_t big_nfront = 0, big_npiv = 0;  // the front with the most flops
  bool symmetric = false;
  count_t peak_doubles = 0;            // predict_arena_peak
  count_t min_ooc_budget_doubles = 0;  // predict_min_ooc_budget

  double tree_bound() const { return flops / critical_path_flops; }
  double max_front_share() const { return max_front_flops / flops; }
  /// Lower bound on p-worker time as a share of serial time:
  /// max(W/p, CP) / W.
  double bound_fraction(unsigned p) const {
    return std::max(flops / p, critical_path_flops) / flops;
  }
};

TreeFacts tree_facts(const Analysis& a) {
  const AssemblyTree& tree = a.tree;
  TreeFacts f;
  f.fronts = tree.num_nodes();
  f.symmetric = tree.symmetric();
  std::vector<double> cp(static_cast<std::size_t>(tree.num_nodes()), 0.0);
  for (index_t i : a.traversal) {  // children precede parents
    const double w = static_cast<double>(tree.flops(i));
    double below = 0.0;
    for (index_t c : tree.children(i))
      below = std::max(below, cp[static_cast<std::size_t>(c)]);
    cp[static_cast<std::size_t>(i)] = w + below;
    f.flops += w;
    f.critical_path_flops =
        std::max(f.critical_path_flops, cp[static_cast<std::size_t>(i)]);
    if (w > f.max_front_flops) {
      f.max_front_flops = w;
      f.big_nfront = tree.nfront(i);
      f.big_npiv = tree.npiv(i);
    }
  }
  f.peak_doubles = predict_arena_peak(tree, a.traversal);
  f.min_ooc_budget_doubles = predict_min_ooc_budget(tree, a.traversal);
  return f;
}

/// One input with what every request against it needs.
struct ProblemData {
  Input input;
  double norm_inf = 0.0;  // of input.matrix, for the oracle
  std::vector<std::vector<double>> rhs[2];  // kRhsPanels at k=1 and k=16
};

/// A retained analysis + factorization, ready to serve solves.
struct Solved {
  Analysis analysis;
  Factorization fact;
  SolveGraph graph;
  SolveWorkspace ws[2];
  std::vector<double> x[2];
};

/// What one pass of one input through the pipeline measured.
struct ProblemRun {
  double analyze_s = 0, factor_s = 0, reload_s = 0, graph_s = 0;
  double first_solve_s = 0;  // k=1, counted in time to solution
  double wide_solve_s = 0;   // k=16
  Analysis::Timings timings{};
  TreeFacts facts{};
  ParallelNumericStats pstats{};
  OocExecStats ooc{};
  double mem_peak_mb = 0;

  double time_to_solution_s() const {
    return analyze_s + factor_s + reload_s + graph_s + first_solve_s;
  }
};

/// One pass of every input of the workload.
struct Iteration {
  double wall_s = 0;
  std::vector<ProblemRun> runs;
  SpanTotals spans;  // traced passes only

  /// Worker time inside factorization tasks (traced passes only).
  double busy_s() const {
    return spans.total("subtree") + spans.total("upper_front");
  }
};

/// Each input's median over passes of f(run), combined over inputs by
/// `combine` (sum or max). Per-input medians keep one slow pass of one
/// input from moving the whole workload's figure.
template <typename F, typename Combine>
double over_inputs(const std::vector<Iteration>& its, F f, Combine combine) {
  double acc = 0.0;
  if (its.empty()) return acc;
  for (std::size_t p = 0; p < its.front().runs.size(); ++p) {
    std::vector<double> v;
    for (const Iteration& it : its) v.push_back(f(it.runs[p]));
    acc = combine(acc, median(v));
  }
  return acc;
}
template <typename F>
double sum_median(const std::vector<Iteration>& its, F f) {
  return over_inputs(its, f, [](double a, double b) { return a + b; });
}
template <typename F>
double max_median(const std::vector<Iteration>& its, F f) {
  return over_inputs(its, f, [](double a, double b) { return std::max(a, b); });
}

/// Median over passes of f(pass).
template <typename F>
double median_of(const std::vector<Iteration>& its, F f) {
  std::vector<double> v;
  for (const Iteration& it : its) v.push_back(f(it));
  return median(v);
}

/// Per-request solve latencies (ms, the fastest of kSends sends), by k
/// (0: k=1, 1: k=16) and input, and the latency of every send.
struct Latencies {
  std::vector<std::vector<double>> ms[2];
  std::vector<std::vector<double>> sends[2];
  explicit Latencies(std::size_t inputs) {
    for (int k = 0; k < 2; ++k) {
      ms[k].resize(inputs);
      sends[k].resize(inputs);
    }
  }
  /// Geometric mean over inputs of each input's quantile-q latency (see
  /// tail_percentile), with the quantile used and the smallest sample.
  Tail geomean_quantile(int k_index, double q) const {
    std::vector<double> per_input;
    Tail out;
    out.quantile = q;
    out.samples = ms[k_index].empty() ? 0 : SIZE_MAX;
    for (const auto& v : ms[k_index]) {
      const Tail t = tail_percentile(v, q);
      per_input.push_back(t.value);
      out.quantile = std::min(out.quantile, t.quantile);
      out.samples = std::min(out.samples, t.samples);
    }
    out.value = geomean(per_input);
    return out;
  }
};

/// CPU time the hypervisor gave to other guests so far, summed over this
/// host's CPUs (the steal column of /proc/stat; 0 where it is missing).
/// Reported with each result: steal slows every timed section of a run.
double host_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double field = 0, steal = 0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> field; ++i) steal = field;
  return cpu == "cpu" ? steal / static_cast<double>(::sysconf(_SC_CLK_TCK))
                      : 0.0;
}

// ---- the runner -----------------------------------------------------------------

class Runner {
 public:
  Runner(const Options& opt, const WorkloadSpec& spec)
      : opt_(opt), spec_(spec) {}

  /// Generates every input, its oracle and right-hand sides; returns the
  /// seconds spent.
  double generate() {
    const auto t0 = Clock::now();
    std::vector<Input> inputs;
    {
      obs::SpanScope span("bench.generate");
      inputs = generate_inputs(spec_, opt_.seed);
    }
    std::vector<ProblemData> data(inputs.size());
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      ProblemData& d = data[p];
      d.input = std::move(inputs[p]);
      d.norm_inf = norm_inf(d.input.matrix);
      const index_t n = d.input.matrix.nrows();
      const std::uint64_t s = input_seed(opt_.seed, d.input.name + "/rhs");
      for (int r = 0; r < kRhsPanels; ++r)
        for (int k = 0; k < 2; ++k)
          d.rhs[k].push_back(
              random_panel(n, k == 0 ? 1 : kWideK, s + 2 * r + k));
    }
    const double secs = seconds_since(t0);
    data_ = std::move(data);
    return secs;
  }

  std::size_t inputs() const { return data_.size(); }
  const Input& input(std::size_t p) const { return data_[p].input; }

  /// analyze → factorize (4 workers; budgeted on ooc_budget) → reload →
  /// build the solve graph → first checked k=1 solve, then one checked
  /// k=16 solve. `keep` receives the factorization for later solves.
  ProblemRun run_pipeline(std::size_t p, Solved& keep) {
    const ProblemData& d = data_[p];
    const std::string& name = d.input.name;
    ProblemRun run;

    AnalysisOptions ao;
    ao.ordering = OrderingKind::kNestedDissection;
    ao.symmetric = d.input.symmetric;
    Clock::time_point t0 = Clock::now();
    bool ok = tally_.run(name + " analyze", [&] {
      obs::SpanScope span("bench.analyze");
      keep.analysis = analyze(d.input.matrix, ao);
    });
    run.analyze_s = seconds_since(t0);
    if (!ok) return run;
    run.timings = keep.analysis.timings;
    run.facts = tree_facts(keep.analysis);
    check_property(name, run.facts);

    ParallelNumericOptions po;
    po.nthreads = kWorkers;
    po.nprocs = kWorkers;
    if (spec_.ooc) {
      po.ooc.enabled = true;
      po.ooc.budget_doubles = ooc_budget(run.facts);
      po.ooc.spill_dir = opt_.spill_dir;
    }
    t0 = Clock::now();
    ok = tally_.run(name + " factorize", [&] {
      obs::SpanScope span("bench.factorize");
      keep.fact = parallel_numeric_factorize(keep.analysis, po, &run.pstats);
    });
    run.factor_s = seconds_since(t0);
    if (!ok) return run;
    workers_ = std::max(workers_, run.pstats.workers);
    run.ooc = keep.fact.stats.ooc;
    run.mem_peak_mb =
        kMb * 8.0 *
        static_cast<double>(spec_.ooc ? run.ooc.charged_peak_doubles
                                      : run.pstats.total_arena_peak_doubles);
    if (run.ooc.overrun_peak_doubles > 0)
      tally_.fail(name + " factorize: overran its out-of-core budget");

    if (spec_.ooc) {
      t0 = Clock::now();
      ok = tally_.run(name + " ensure_factors_resident", [&] {
        obs::SpanScope span("bench.ensure_factors_resident");
        ensure_factors_resident(keep.fact);
      });
      run.reload_s = seconds_since(t0);
      if (!ok) return run;
    }

    SolveOptions so;
    so.nthreads = kWorkers;
    t0 = Clock::now();
    ok = tally_.run(name + " build_solve_graph", [&] {
      obs::SpanScope span("bench.build_solve_graph");
      keep.graph = build_solve_graph(keep.analysis, so);
    });
    run.graph_s = seconds_since(t0);
    if (!ok) return run;

    solve(p, keep, 0, kWorkers, 0, &run.first_solve_s);
    solve(p, keep, 1, kWorkers, 0, &run.wide_solve_s);
    return run;
  }

  /// One checked solve request against input p: k=1 (k_index 0) or k=16
  /// (k_index 1), right-hand side number `request` (mod kRhsPanels).
  /// Stores the solve's wall time; the oracle runs outside it.
  void solve(std::size_t p, Solved& s, int k_index, unsigned threads,
             std::size_t request, double* seconds) {
    const ProblemData& d = data_[p];
    const index_t k = k_index == 0 ? 1 : kWideK;
    const auto& b = d.rhs[k_index][request % kRhsPanels];
    std::vector<double>& x = s.x[k_index];
    x.resize(b.size());
    SolveOptions so;
    so.nthreads = threads;
    const std::string what = d.input.name + " solve k=" + std::to_string(k);
    ++tally_.attempted;
    const auto t0 = Clock::now();
    const bool ok = tally_.guarded(what, [&] {
      obs::SpanScope span("bench.solve", k);
      solve_factorized_multi(s.analysis, s.fact, s.graph, b, k, x,
                             s.ws[k_index], so);
    });
    *seconds = seconds_since(t0);
    if (!ok) return;
    const double berr = backward_error(d.input.matrix, d.norm_inf, b, x, k);
    tally_.worst_backward_error = std::max(tally_.worst_backward_error, berr);
    if (!(berr <= kTolerance)) {
      std::ostringstream os;
      os << what << ": normwise backward error above " << kTolerance
         << " (returned ok)";
      tally_.fail(os.str());
    }
  }

  /// One pass of every input through the pipeline, after releasing the
  /// previous pass's factorizations. A traced pass releases its own
  /// factorizations too before reading the spans: spill stores run I/O
  /// threads until then, and the tracer is read only when no thread
  /// records.
  Iteration iterate(std::vector<Solved>& keep, bool traced) {
    release(keep);
    keep.resize(data_.size());
    Iteration it;
    obs::Tracer::set_enabled(traced);
    const auto t0 = Clock::now();
    for (std::size_t p = 0; p < data_.size(); ++p)
      it.runs.push_back(run_pipeline(p, keep[p]));
    it.wall_s = seconds_since(t0);
    obs::Tracer::set_enabled(false);
    if (traced) {
      release(keep);
      harvest_spans(it.spans);
    }
    return it;
  }

  /// Stream set-up: generate, then analyze + factorize + build the solve
  /// graph of every input. run_pipeline's two checked solves warm each
  /// input up; set-up time excludes them. The stream runs in core, so no
  /// I/O thread outlives a call and the spans can be read right away.
  Iteration stream_setup(std::vector<Solved>& keep, bool traced) {
    release(keep);
    Iteration it;
    it.wall_s = generate();
    keep.resize(data_.size());
    obs::Tracer::set_enabled(traced);
    for (std::size_t p = 0; p < data_.size(); ++p) {
      const auto t0 = Clock::now();
      it.runs.push_back(run_pipeline(p, keep[p]));
      const ProblemRun& r = it.runs.back();
      it.wall_s += seconds_since(t0) - r.first_solve_s - r.wide_solve_s;
    }
    obs::Tracer::set_enabled(false);
    if (traced) harvest_spans(it.spans);
    return it;
  }

  /// Drops retained factorizations. On ooc_budget every spill file must
  /// be gone with them; leftovers fail the release.
  void release(std::vector<Solved>& keep) {
    const bool had = !keep.empty();
    keep.clear();
    if (!spec_.ooc || !had) return;
    ++tally_.attempted;
    if (const std::size_t left = leftover_files(opt_.spill_dir); left > 0)
      tally_.fail(std::to_string(left) + " spill files left behind");
  }

  /// Closed loop, one client: each round sends every input at k=1, then
  /// every input at k=16, each send when the previous one returned. Every
  /// kSends rounds close one request per input and k (see kSends). Runs
  /// until `seconds` pass and `min_requests` closed. With `spans`, tracing
  /// is on and each send's spans are read after it (in-core
  /// factorizations only: no I/O thread may be recording).
  void solve_loop(std::vector<Solved>& solved, double seconds,
                  unsigned threads, int min_requests, Latencies& lat,
                  SpanTotals* spans = nullptr) {
    const std::size_t n = solved.size();
    std::vector<double> fastest(2 * n);
    const auto t0 = Clock::now();
    obs::Tracer::set_enabled(spans != nullptr);
    for (std::size_t round = 0;; ++round) {
      const std::size_t send = round % kSends;
      if (send == 0 &&
          round >= static_cast<std::size_t>(kSends * min_requests) &&
          seconds_since(t0) >= seconds)
        break;
      for (std::size_t i = 0; i < 2 * n; ++i) {
        const std::size_t p = i % n;
        const int k_index = static_cast<int>(i / n);
        double s = 0;
        solve(p, solved[p], k_index, threads, round, &s);
        const double ms = 1e3 * s;
        lat.sends[k_index][p].push_back(ms);
        fastest[i] = send == 0 ? ms : std::min(fastest[i], ms);
        if (send == kSends - 1) lat.ms[k_index][p].push_back(fastest[i]);
        if (spans != nullptr) harvest_spans(*spans);
      }
    }
    obs::Tracer::set_enabled(false);
  }

  count_t ooc_budget(const TreeFacts& f) const {
    return static_cast<count_t>(kOocBudgetFraction *
                                static_cast<double>(f.peak_doubles));
  }

  Tally& tally() { return tally_; }
  unsigned workers() const { return workers_; }
  double steal_s() const { return host_steal_s() - steal0_; }

 private:
  /// Each workload exists for one property of its inputs; a seed that
  /// breaks it would silently measure a different workload, so it stops
  /// the run instead.
  void check_property(const std::string& name, const TreeFacts& f) const {
    std::ostringstream why;
    if (spec_.name == "bushy_tree" && f.tree_bound() < 3.0)
      why << "tree bound " << f.tree_bound() << " < 3";
    if (spec_.name == "big_front" && f.tree_bound() > 1.5)
      why << "tree bound " << f.tree_bound() << " > 1.5";
    if (spec_.ooc && ooc_budget(f) < f.min_ooc_budget_doubles)
      why << kOocBudgetFraction << "x the predicted peak is below "
          << "predict_min_ooc_budget";
    if (why.str().empty()) return;
    std::ostringstream os;
    os << "seed " << opt_.seed << " breaks the defining property of "
       << spec_.name << " on " << name << ": " << why.str();
    throw PropertyViolation(os.str());
  }

  const Options& opt_;
  const WorkloadSpec& spec_;
  std::vector<ProblemData> data_;
  Tally tally_;
  unsigned workers_ = 0;
  double steal0_ = host_steal_s();
};

// ---- baselines (traced runs) --------------------------------------------------------

/// Model GFLOP/s of the blocked partial-factorization kernel on a dense
/// front of the given shape (diagonally dominant, so no pivoting).
double kernel_gflops(index_t nfront, index_t npiv, bool symmetric,
                     std::uint64_t seed) {
  const std::size_t nn =
      static_cast<std::size_t>(nfront) * static_cast<std::size_t>(nfront);
  std::vector<double> pristine(nn);
  Rng rng(seed);
  for (index_t c = 0; c < nfront; ++c)
    for (index_t r = 0; r < nfront; ++r) {
      double& v = pristine[static_cast<std::size_t>(c) * nfront + r];
      if (symmetric && r < c)
        v = pristine[static_cast<std::size_t>(r) * nfront + c];
      else
        v = rng.real(-1.0, 1.0) + (r == c ? nfront : 0.0);
    }
  std::vector<double> front(nn);
  std::vector<double> times;
  double total = 0.0;
  while (times.size() < 3 || (total < 0.3 && times.size() < 50)) {
    front = pristine;
    const FrontView view{front.data(), nfront, nfront};
    const auto t0 = Clock::now();
    if (symmetric)
      partial_ldlt_blocked(view, npiv);
    else
      partial_lu_blocked(view, npiv);
    times.push_back(seconds_since(t0));
    total += times.back();
  }
  return 1e-9 * static_cast<double>(elimination_flops(nfront, npiv, symmetric)) /
         median(times);
}

// ---- reporting ----------------------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Metrics in print order, each with a unit and a note for the human
/// report (sample counts, evidence-floor flags).
class Report {
 public:
  /// A timed section shorter than the evidence floor is flagged as not
  /// citable.
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    std::string n = note;
    const double secs = unit == "s" ? value : unit == "ms" ? 1e-3 * value : -1;
    if (secs >= 0.0 && secs < kEvidenceFloorS)
      n += (n.empty() ? "" : "; ") +
           std::string("below the 20 ms evidence floor: not citable");
    rows_.push_back({name, value, unit, n});
  }

  /// A per-request latency percentile: citable through its sample count,
  /// not its length.
  void add_latency(const std::string& name, double value,
                   const std::string& note) {
    rows_.push_back({name, value, "ms", note});
  }

  /// Prints the report and the result line. A metric that is not finite
  /// was not measured; it fails the run and is written as 0.
  void print(Tally& tally) const {
    for (const Row& r : rows_)
      if (!std::isfinite(r.value)) tally.fail("metric " + r.name + " is not finite");
    for (const Row& r : rows_) {
      std::printf("  %-34s %16.6f %-6s %s\n", r.name.c_str(), r.value,
                  r.unit.c_str(), r.note.c_str());
    }
    const double frac = tally.attempted > 0
                            ? static_cast<double>(tally.failed) /
                                  static_cast<double>(tally.attempted)
                            : 0.0;
    std::printf("  failed_frac %.6f (%" PRIu64 " of %" PRIu64
                " operations failed)\n",
                frac, tally.failed, tally.attempted);
    for (const auto& [reason, count] : tally.failures)
      std::printf("    %" PRIu64 " x %s\n", count, reason.c_str());
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      os << (i ? ", " : "") << json_string(r.name) << ": {\"value\": "
         << (std::isfinite(r.value) ? r.value : 0.0)
         << ", \"unit\": " << json_string(r.unit) << "}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Row> rows_;
};

void print_fingerprint(const Options& opt, const Runner& r) {
  std::ostringstream os;
  os << "fingerprint {\"cpu\": " << json_string(cpu_model())
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": " << json_string(E2EBENCH_COMPILER)
     << ", \"flags\": " << json_string(E2EBENCH_COMPILER_FLAGS)
     << ", \"MEMFRONT_OBS\": " << MEMFRONT_OBS
     << ", \"MEMFRONT_FAULTS\": " << MEMFRONT_FAULTS
     << ", \"MEMFRONT_OOC_REAL\": " << MEMFRONT_OOC_REAL
     << ", \"workers\": " << r.workers() << ", \"workload\": "
     << json_string(opt.workload) << ", \"seed\": " << opt.seed
     << ", \"seconds\": " << opt.seconds
     << ", \"trace\": " << (opt.trace ? 1 : 0)
     << ", \"host_steal_s\": " << r.steal_s() << "}";
  std::cout << os.str() << "\n";
}

void print_inputs(const Runner& r, const std::vector<Iteration>& its) {
  if (its.empty()) return;
  for (std::size_t p = 0; p < its.front().runs.size(); ++p) {
    const TreeFacts& f = its.front().runs[p].facts;
    const Input& in = r.input(p);
    std::printf(
        "input %-12s n=%d nnz=%lld %s fronts=%d gflop=%.3f "
        "tree_bound=%.2f max_front_share=%.3f predicted_peak_mb=%.2f "
        "min_ooc_budget_mb=%.2f bound(p=4)=max(W/4,CP)=%.3f GFLOP\n",
        in.name.c_str(), in.matrix.nrows(),
        static_cast<long long>(in.matrix.nnz()), in.symmetric ? "LDLt" : "LU",
        f.fronts, 1e-9 * f.flops, f.tree_bound(), f.max_front_share(),
        kMb * 8.0 * static_cast<double>(f.peak_doubles),
        kMb * 8.0 * static_cast<double>(f.min_ooc_budget_doubles),
        1e-9 * f.bound_fraction(kWorkers) * f.flops);
  }
}

/// Per-input medians behind the end-to-end sums, and the solve
/// latencies behind the geometric means.
void print_breakdown(const Runner& r, const std::vector<Iteration>& its,
                     const Latencies& lat) {
  for (std::size_t p = 0; p < r.inputs(); ++p) {
    auto med = [&](auto f) {
      std::vector<double> v;
      for (const Iteration& it : its) v.push_back(f(it.runs[p]));
      return median(v);
    };
    std::printf(
        "median of %zu: %-12s analyze %.4f s  factor %.4f s  reload %.4f s  "
        "graph %.4f s  first solve %.4f s\n",
        its.size(), r.input(p).name.c_str(),
        med([](const ProblemRun& x) { return x.analyze_s; }),
        med([](const ProblemRun& x) { return x.factor_s; }),
        med([](const ProblemRun& x) { return x.reload_s; }),
        med([](const ProblemRun& x) { return x.graph_s; }),
        med([](const ProblemRun& x) { return x.first_solve_s; }));
    for (int k = 0; k < 2; ++k) {
      const Tail t = tail_percentile(lat.ms[k][p], 0.99);
      const Tail all = tail_percentile(lat.sends[k][p], 0.99);
      std::printf(
          "latency %-12s k=%-2d %zu requests  p50 %.4f ms  p%g %.4f ms  "
          "(every send: %zu sends  p50 %.4f ms  p%g %.4f ms)\n",
          r.input(p).name.c_str(), k == 0 ? 1 : kWideK, t.samples,
          median(lat.ms[k][p]), 100.0 * t.quantile, t.value, all.samples,
          median(lat.sends[k][p]), 100.0 * all.quantile, all.value);
    }
  }
}

// ---- the two runs -------------------------------------------------------------------

/// Tracing off: the end-to-end metrics.
void run_end_to_end(const Options& opt, const WorkloadSpec& spec) {
  Runner r(opt, spec);
  std::vector<Solved> keep;
  std::vector<double> setup;
  std::vector<Iteration> its;
  Latencies lat(spec.problems.size());
  if (spec.mode == Mode::kStream) {
    for (int rep = 0; rep < kStreamSetupReps; ++rep) {
      its.push_back(r.stream_setup(keep, false));
      setup.push_back(its.back().wall_s);
    }
    r.solve_loop(keep, opt.seconds, kWorkers, kMinRequests, lat);
  } else {
    r.generate();  // warm-up: the first generations page in, untimed
    for (int rep = 0; rep < kSetupReps; ++rep) setup.push_back(r.generate());
    r.iterate(keep, false);  // warm-up: first-touch allocations, untimed
    // Each pass is followed by solve requests against its factorizations,
    // so both kinds of sample span the run.
    const auto t0 = Clock::now();
    do {
      its.push_back(r.iterate(keep, false));
      r.solve_loop(keep, kSolveShare * its.back().wall_s, kWorkers, 1, lat);
    } while (seconds_since(t0) < opt.seconds);
  }
  r.release(keep);
  print_fingerprint(opt, r);
  print_inputs(r, its);
  print_breakdown(r, its, lat);

  Report rep;
  const std::string over =
      "sum over inputs of the median of " + std::to_string(its.size()) +
      (spec.mode == Mode::kStream ? " set-ups" : " pipeline passes");
  rep.add("setup_s", median(setup), "s",
          "median of " + std::to_string(setup.size()) + " set-ups");
  rep.add("time_to_solution_s",
          sum_median(its, [](const ProblemRun& x) {
            return x.time_to_solution_s();
          }),
          "s", over);
  rep.add("analyze_s",
          sum_median(its, [](const ProblemRun& x) { return x.analyze_s; }),
          "s", over);
  rep.add("factor_s",
          sum_median(its, [](const ProblemRun& x) { return x.factor_s; }), "s",
          over);
  for (int k = 0; k < 2; ++k)
    for (double q : {0.5, 0.99}) {
      const Tail t = lat.geomean_quantile(k, q);
      std::ostringstream name, note;
      name << "solve_k" << (k == 0 ? 1 : kWideK) << "_p" << (q == 0.5 ? 50 : 99)
           << "_ms";
      note << "geomean over inputs of the p" << 100.0 * t.quantile
           << " latency, >= " << t.samples << " requests per input";
      rep.add_latency(name.str(), t.value, note.str());
    }
  rep.add("mem_peak_mb",
          max_median(its, [](const ProblemRun& x) { return x.mem_peak_mb; }),
          "MB",
          std::string(spec.ooc ? "charged out-of-core peak"
                               : "sum of per-worker arena peaks") +
              ", max over inputs of the median");
  rep.add("rss_peak_mb", kMb * static_cast<double>(obs::peak_rss_bytes()),
          "MB", "process peak RSS");
  rep.print(r.tally());
}

/// Tracing on for half the passes: the per-layer metrics.
void run_per_layer(const Options& opt, const WorkloadSpec& spec) {
  Runner r(opt, spec);
  const std::size_t n = spec.problems.size();
  std::vector<Solved> keep;
  std::vector<double> generate_s;
  std::vector<Iteration> plain, traced;  // untraced / traced passes
  std::vector<SpanTotals> solve_spans;   // per traced solve batch
  Latencies lat(n), serial_lat(n);
  r.generate();  // warm-up, untimed
  for (int rep = 0; rep < kSetupReps; ++rep) generate_s.push_back(r.generate());
  const auto t0 = Clock::now();
  if (spec.mode == Mode::kStream) {
    // An untraced and a traced set-up give the factorization layers; the
    // solve layer's spans and trace overhead come from alternating
    // untraced and traced requests.
    r.stream_setup(keep, false);  // warm-up: first-touch allocations, untimed
    plain.push_back(r.stream_setup(keep, false));
    traced.push_back(r.stream_setup(keep, true));
    std::vector<double> wall_plain, wall_traced;
    do {
      Latencies unused(n);
      auto t = Clock::now();
      r.solve_loop(keep, 0.0, kWorkers, 1, unused);
      wall_plain.push_back(seconds_since(t));
      solve_spans.emplace_back();
      t = Clock::now();
      r.solve_loop(keep, 0.0, kWorkers, 1, unused, &solve_spans.back());
      wall_traced.push_back(seconds_since(t));
    } while (seconds_since(t0) < 0.5 * opt.seconds);
    plain.back().wall_s = median(wall_plain);
    traced.back().wall_s = median(wall_traced);
  } else {
    r.iterate(keep, false);  // warm-up, untimed
    // Traced first: the untraced pass keeps its factorizations for the
    // solve loops and baselines below.
    do {
      traced.push_back(r.iterate(keep, true));
      solve_spans.push_back(traced.back().spans);
      plain.push_back(r.iterate(keep, false));
    } while (seconds_since(t0) < 0.35 * opt.seconds);
  }
  r.solve_loop(keep, 0.1 * opt.seconds, kWorkers, kMinRequests, lat);
  r.solve_loop(keep, 0.1 * opt.seconds, 1, kMinRequests, serial_lat);

  // Baselines on the retained analyses: the serial in-core factorization,
  // and on ooc_budget the in-core 4-worker factorization the budget is
  // paid against.
  double serial_s = 0.0, incore_s = 0.0, bound_s = 0.0;
  const std::vector<ProblemRun>& ref = plain.front().runs;
  for (std::size_t p = 0; p < n; ++p) {
    auto t = Clock::now();
    r.tally().run(r.input(p).name + " serial factorize", [&] {
      Factorization f = numeric_factorize(keep[p].analysis);
    });
    const double s = seconds_since(t);
    serial_s += s;
    bound_s += s * ref[p].facts.bound_fraction(kWorkers);
    if (!spec.ooc) continue;
    ParallelNumericOptions po;
    po.nthreads = kWorkers;
    po.nprocs = kWorkers;
    t = Clock::now();
    r.tally().run(r.input(p).name + " in-core factorize", [&] {
      Factorization f = parallel_numeric_factorize(keep[p].analysis, po);
    });
    incore_s += seconds_since(t);
  }
  const TreeFacts* big = &ref.front().facts;
  for (const ProblemRun& x : ref)
    if (x.facts.max_front_flops > big->max_front_flops) big = &x.facts;
  const double kernel_rate =
      kernel_gflops(big->big_nfront, big->big_npiv, big->symmetric,
                    input_seed(opt.seed, "kernel"));
  r.release(keep);
  print_fingerprint(opt, r);
  print_inputs(r, plain);
  std::printf("largest front: nfront=%d npiv=%d %s\n", big->big_nfront,
              big->big_npiv, big->symmetric ? "LDLt" : "LU");

  double total_w = 0, total_cp = 0, max_share = 0, peak_mb = 0, fronts = 0;
  for (const ProblemRun& x : ref) {
    total_w += x.facts.flops;
    total_cp += x.facts.critical_path_flops;
    max_share = std::max(max_share, x.facts.max_front_share());
    peak_mb = std::max(peak_mb,
                       kMb * 8.0 * static_cast<double>(x.facts.peak_doubles));
    fronts += x.facts.fronts;
  }
  const double tree_bound = total_w / total_cp;
  const double factor_s =
      sum_median(plain, [](const ProblemRun& x) { return x.factor_s; });
  const double speedup = serial_s / factor_s;
  auto mb = [](count_t doubles) {
    return kMb * 8.0 * static_cast<double>(doubles);
  };
  // Median over traced passes (or solve batches) of the summed self time
  // of the named spans.
  auto self = [](const std::vector<SpanTotals>& passes,
                 std::initializer_list<const char*> names) {
    std::vector<double> v;
    for (const SpanTotals& spans : passes) {
      double s = 0;
      for (const char* name : names) s += spans.self(name);
      v.push_back(s);
    }
    return median(v);
  };
  std::vector<SpanTotals> factor_spans;
  std::uint64_t dropped = 0;
  for (const Iteration& it : traced) {
    factor_spans.push_back(it.spans);
    dropped += it.spans.dropped;
  }
  for (const SpanTotals& s : solve_spans) dropped += s.dropped;

  Report rep;
  rep.add("sparse.generate_s", median(generate_s), "s");
  rep.add("ordering.s", sum_median(plain, [](const ProblemRun& x) {
            return x.timings.ordering_s;
          }),
          "s");
  rep.add("symbolic.s", sum_median(plain, [](const ProblemRun& x) {
            return x.timings.symbolic_s + x.timings.splitting_s +
                   x.timings.finalize_s;
          }),
          "s");
  rep.add("symbolic.fronts", fronts, "count");
  rep.add("symbolic.gflop", 1e-9 * total_w, "GFLOP");
  rep.add("symbolic.tree_bound", tree_bound, "x",
          "total / critical-path flops");
  rep.add("symbolic.max_front_share", max_share, "frac");
  rep.add("symbolic.predicted_peak_mb", peak_mb, "MB");
  rep.add("frontal.kernel_gflops", kernel_rate, "GFLOP/s",
          "model flops of the largest front / kernel time");
  rep.add("frontal.kernel_self_s",
          self(factor_spans, {"kernel", "panel", "trsm", "schur"}), "s");
  rep.add("frontal.assemble_self_s", self(factor_spans, {"assemble"}), "s");
  rep.add("frontal.extend_add_self_s", self(factor_spans, {"extend_add"}),
          "s");
  rep.add("frontal.extract_self_s", self(factor_spans, {"extract"}), "s");
  rep.add("solver.factor_serial_s", serial_s, "s",
          "1-worker numeric_factorize");
  rep.add("solver.factor_bound_s", bound_s, "s",
          "max(W/4, CP) at the serial flop rate");
  rep.add("solver.speedup", speedup, "x", "serial / 4-worker factor_s");
  rep.add("solver.bound_efficiency", speedup / std::min(4.0, tree_bound),
          "frac", "speedup / min(4, tree bound)");
  rep.add("solver.factor_gflops", 1e-9 * total_w / factor_s, "GFLOP/s");
  rep.add("solver.idle_s", median_of(traced, [](const Iteration& it) {
            double wall = 0;
            for (const ProblemRun& x : it.runs) wall += x.factor_s;
            return kWorkers * wall - it.busy_s();
          }),
          "s", "4 x wall - worker task-span time");
  rep.add("solver.sched.steals", sum_median(plain, [](const ProblemRun& x) {
            return static_cast<double>(x.pstats.sched.steals);
          }),
          "count");
  rep.add("solver.sched.wakeups", sum_median(plain, [](const ProblemRun& x) {
            return static_cast<double>(x.pstats.sched.wakeups);
          }),
          "count");
  rep.add("solver.arena_total_mb", max_median(plain, [&](const ProblemRun& x) {
            return mb(x.pstats.total_arena_peak_doubles);
          }),
          "MB");
  rep.add("solver.arena_max_worker_mb",
          max_median(plain, [&](const ProblemRun& x) {
            return mb(x.pstats.max_arena_peak_doubles);
          }),
          "MB");
  rep.add("solve.graph_build_s",
          sum_median(plain, [](const ProblemRun& x) { return x.graph_s; }),
          "s");
  for (int k = 0; k < 2; ++k) {
    const Tail t = serial_lat.geomean_quantile(k, 0.5);
    rep.add_latency(
        k == 0 ? "solve.serial_k1_p50_ms" : "solve.serial_k16_p50_ms",
        t.value,
        "1-worker geomean over inputs, >= " + std::to_string(t.samples) +
            " requests per input");
  }
  for (const std::string& name : stream_input_names())
    for (int k = 0; k < 2; ++k) {
      std::size_t samples = 0;
      double v = 0.0;
      for (std::size_t p = 0; p < n; ++p)
        if (r.input(p).name == name) {
          v = median(lat.ms[k][p]);
          samples = lat.ms[k][p].size();
        }
      rep.add_latency(
          "solve." + name + (k == 0 ? ".k1_p50_ms" : ".k16_p50_ms"), v,
          samples > 0
              ? "4-worker p50 over " + std::to_string(samples) + " requests"
              : "input not in this workload");
    }
  rep.add("solve.fwd_self_s",
          self(solve_spans, {"solve_fwd_front", "solve_fwd_subtree"}), "s",
          "per traced pass");
  rep.add("solve.bwd_self_s",
          self(solve_spans, {"solve_bwd_front", "solve_bwd_subtree"}), "s",
          "per traced pass");
  rep.add("solve.backward_error_max", r.tally().worst_backward_error, "ratio");
  rep.add("ooc.spill_mb", sum_median(plain, [&](const ProblemRun& x) {
            return mb(x.ooc.spill_doubles);
          }),
          "MB");
  rep.add("ooc.reload_mb", sum_median(plain, [&](const ProblemRun& x) {
            return mb(x.ooc.reload_doubles);
          }),
          "MB");
  rep.add("ooc.factor_write_mb", sum_median(plain, [&](const ProblemRun& x) {
            return mb(x.ooc.factor_write_doubles);
          }),
          "MB");
  rep.add("ooc.stall_s", sum_median(plain, [](const ProblemRun& x) {
            return x.ooc.stall_seconds;
          }),
          "s");
  rep.add("ooc.overlap_s", sum_median(plain, [](const ProblemRun& x) {
            return x.ooc.overlap_seconds;
          }),
          "s");
  rep.add("ooc.io_retries", sum_median(plain, [](const ProblemRun& x) {
            return static_cast<double>(x.ooc.io_retries);
          }),
          "count");
  rep.add("ooc.store_write_self_s", self(factor_spans, {"ooc.store.write"}),
          "s");
  rep.add("ooc.store_read_self_s", self(factor_spans, {"ooc.store.read"}),
          "s");
  rep.add("ooc.overhead_frac", spec.ooc ? factor_s / incore_s - 1.0 : 0.0,
          "frac", "budgeted / in-core 4-worker factor_s - 1");
  rep.add("ooc.factor_reload_s",
          sum_median(plain, [](const ProblemRun& x) { return x.reload_s; }),
          "s");
  rep.add("ooc.charged_peak_mb", max_median(plain, [&](const ProblemRun& x) {
            return mb(x.ooc.charged_peak_doubles);
          }),
          "MB");
  rep.add("ooc.budget_mb", max_median(plain, [&](const ProblemRun& x) {
            return mb(x.ooc.budget_doubles);
          }),
          "MB");
  auto wall = [](const Iteration& it) { return it.wall_s; };
  rep.add("obs.trace_overhead_frac",
          median_of(traced, wall) / median_of(plain, wall) - 1.0, "frac",
          "traced / untraced wall - 1");
  rep.add("obs.dropped_events", static_cast<double>(dropped), "count");
  Tally& t = r.tally();
  rep.add("failed_frac",
          static_cast<double>(t.failed) /
              static_cast<double>(std::max<std::uint64_t>(1, t.attempted)),
          "frac");
  rep.print(t);
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  const Options opt = parse(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : workloads())
    if (w.name == opt.workload) spec = &w;
  if (spec == nullptr) usage(("unknown workload " + opt.workload).c_str());
  if (spec->ooc && opt.spill_dir.empty())
    usage("the ooc_budget workload needs --spill-dir DIR");
  try {
    if (opt.trace)
      run_per_layer(opt, *spec);
    else
      run_end_to_end(opt, *spec);
  } catch (const PropertyViolation& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
