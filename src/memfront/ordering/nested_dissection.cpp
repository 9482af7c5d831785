#include "memfront/ordering/nested_dissection.hpp"

#include <algorithm>
#include <atomic>

#include "memfront/ordering/bisection.hpp"
#include "memfront/ordering/ordering.hpp"
#include "memfront/ordering/quotient_graph.hpp"
#include "memfront/obs/metrics.hpp"
#include "memfront/obs/span_tracer.hpp"
#include "memfront/support/error.hpp"
#include "memfront/support/parallel_for.hpp"

namespace memfront {
namespace {

/// Fewest edges a subgraph needs before its two halves are ordered on two
/// threads. On a 4-core Xeon a parallel_for(2, ..., 2) fork/join costs
/// about 18 µs (median), while nested dissection of a 16k-edge grid takes
/// about 35 ms (3.3 ms of it the top bisection): at the floor a fork
/// costs under 0.1% of the work it splits. Below it, a forked thread's
/// cold thread_local workspaces (grown from empty) would be a visible
/// share of a few-ms ordering.
constexpr count_t kForkMinEdges = 16384;

struct NdContext {
  const NdOptions& opt;
  std::vector<index_t> order;  // elimination order, global ids
  // For multisection mode: separators per recursion depth, deepest first.
  std::vector<std::vector<index_t>> level_separators;

  /// Appends a half's results. Orders concatenate; separator buckets
  /// merge per depth (each bucket is sorted before use, so the merge
  /// order of the ids does not matter).
  void append(NdContext&& half) {
    order.insert(order.end(), half.order.begin(), half.order.end());
    if (level_separators.size() < half.level_separators.size())
      level_separators.resize(half.level_separators.size());
    for (std::size_t d = 0; d < half.level_separators.size(); ++d) {
      auto& bucket = level_separators[d];
      const auto& ids = half.level_separators[d];
      bucket.insert(bucket.end(), ids.begin(), ids.end());
    }
  }
};

/// Ordering threads alive at once, process-wide; its high-water mark is
/// the ordering.nd.threads_peak gauge.
std::atomic<std::int64_t> live_threads{0};

obs::Gauge& threads_peak_gauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::global().gauge("ordering.nd.threads_peak");
  return gauge;
}

/// Counts one ordering thread for the scope's lifetime.
struct LiveThread {
  LiveThread() {
    threads_peak_gauge().max_of(
        live_threads.fetch_add(1, std::memory_order_relaxed) + 1);
  }
  ~LiveThread() { live_threads.fetch_sub(1, std::memory_order_relaxed); }
  LiveThread(const LiveThread&) = delete;
  LiveThread& operator=(const LiveThread&) = delete;
};

void order_with_md(const Graph& sub, std::span<const index_t> global,
                   bool amf, std::vector<index_t>& out) {
  const MdOptions md{.metric = amf ? MdMetric::kApproxFill
                                   : MdMetric::kExternalDegree};
  for (index_t local : minimum_degree_order(sub, md))
    out.push_back(global[static_cast<std::size_t>(local)]);
}

/// Edges of `sub` incident to `part`: the fork's measure of a half's
/// size, known before the half's subgraph is built.
count_t incident_edges(const Graph& sub, const std::vector<index_t>& part) {
  count_t edges = 0;
  for (index_t v : part) edges += sub.degree(v);
  return edges;
}

/// Orders `sub` into ctx. `threads` is this call's thread budget, its
/// own thread included: a call above the edge floor with a budget of at
/// least 2 orders its two halves concurrently, each with a share of the
/// budget, so no more than `threads` threads ever work under it. A
/// half's order depends only on its subgraph and seed, never on the
/// budget, so every budget yields the serial order.
void recurse(NdContext& ctx, const Graph& sub,
             std::vector<index_t> global, std::size_t depth,
             std::uint64_t seed, unsigned threads) {
  if (sub.num_vertices() <= ctx.opt.leaf_size) {
    order_with_md(sub, global, ctx.opt.amf_leaves, ctx.order);
    return;
  }
  Bisection cut = bisect(sub, {.seed = seed});
  // A failed split (everything on one side) would loop forever: fall back
  // to minimum degree for this whole subgraph.
  if (cut.part_a.empty() || cut.part_b.empty()) {
    order_with_md(sub, global, ctx.opt.amf_leaves, ctx.order);
    return;
  }

  auto to_global = [&](const std::vector<index_t>& locals) {
    std::vector<index_t> ids;
    ids.reserve(locals.size());
    for (index_t v : locals)
      ids.push_back(global[static_cast<std::size_t>(v)]);
    return ids;
  };

  // Thread shares of the two halves; the half with more incident edges
  // gets the larger one.
  const bool fork = threads >= 2 && sub.num_edges() >= kForkMinEdges;
  unsigned share[2] = {1, 1};
  if (fork) {
    const bool a_heavier =
        incident_edges(sub, cut.part_a) >= incident_edges(sub, cut.part_b);
    share[a_heavier ? 0 : 1] = (threads + 1) / 2;
    share[a_heavier ? 1 : 0] = threads / 2;
  }
  auto order_half = [&](NdContext& into, std::size_t h) {
    const std::vector<index_t>& part = h == 0 ? cut.part_a : cut.part_b;
    recurse(into, sub.induced(part), to_global(part), depth + 1,
            seed * 2 + 1 + h, share[h]);
  };
  if (fork) {
    NdContext halves[2] = {
        {.opt = ctx.opt, .order = {}, .level_separators = {}},
        {.opt = ctx.opt, .order = {}, .level_separators = {}}};
    // One extra thread while the pair runs: parallel_for(2, ..., 2) runs
    // one half on the caller and spawns one thread for the other.
    LiveThread forked;
    parallel_for(
        2,
        [&](std::size_t h) {
          MEMFRONT_SPAN("ordering.subtree",
                        static_cast<std::int64_t>(depth + 1));
          order_half(halves[h], h);
        },
        2);
    ctx.append(std::move(halves[0]));
    ctx.append(std::move(halves[1]));
  } else {
    order_half(ctx, 0);
    order_half(ctx, 1);
  }

  if (cut.separator.empty()) return;
  std::vector<index_t> sep_global = to_global(cut.separator);
  if (ctx.opt.multisection) {
    if (ctx.level_separators.size() <= depth)
      ctx.level_separators.resize(depth + 1);
    auto& bucket = ctx.level_separators[depth];
    bucket.insert(bucket.end(), sep_global.begin(), sep_global.end());
  } else {
    // Classic ND: the separator is eliminated right after its two halves,
    // ordered by minimum degree on its induced subgraph.
    order_with_md(sub.induced(cut.separator), sep_global, false, ctx.order);
  }
}

}  // namespace

std::vector<index_t> nested_dissection(const Graph& g, const NdOptions& opt) {
  const index_t n = g.num_vertices();
  NdContext ctx{.opt = opt, .order = {}, .level_separators = {}};
  ctx.order.reserve(static_cast<std::size_t>(n));
  std::vector<index_t> all(static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
  {
    LiveThread caller;
    // Inside another parallel loop (a sweep's legs) the cores are taken:
    // order serially there.
    const unsigned threads = in_parallel_body() ? 1 : default_thread_count();
    recurse(ctx, g, std::move(all), 0, opt.seed + 7, threads);
  }

  if (opt.multisection) {
    // Multisection: separators eliminated deepest level first, each level
    // ordered by minimum degree on its induced subgraph.
    for (std::size_t depth = ctx.level_separators.size(); depth > 0; --depth) {
      auto& ids = ctx.level_separators[depth - 1];
      if (ids.empty()) continue;
      std::sort(ids.begin(), ids.end());
      order_with_md(g.induced(ids), ids, false, ctx.order);
    }
  }
  check(ctx.order.size() == static_cast<std::size_t>(n),
        "nested_dissection: incomplete order");
  return ctx.order;
}

std::vector<index_t> nested_dissection_order(const Graph& g,
                                             std::uint64_t seed) {
  return nested_dissection(g, {.seed = seed});
}

}  // namespace memfront
