#include "memfront/solver/analysis.hpp"

#include <chrono>

#include "memfront/obs/span_tracer.hpp"
#include "memfront/support/error.hpp"

namespace memfront {
namespace {

/// DFS postorder following the current child order of the tree.
std::vector<index_t> traversal_order(const AssemblyTree& tree) {
  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(tree.num_nodes()));
  // Stack entries: (node, next child position). Children are visited in
  // list order, node emitted after its children.
  std::vector<std::pair<index_t, std::size_t>> stack;
  for (index_t r : tree.roots()) {
    stack.emplace_back(r, 0);
    while (!stack.empty()) {
      auto& [node, pos] = stack.back();
      const auto children = tree.children(node);
      if (pos < children.size()) {
        const index_t c = children[pos++];
        stack.emplace_back(c, 0);
      } else {
        order.push_back(node);
        stack.pop_back();
      }
    }
  }
  check(order.size() == static_cast<std::size_t>(tree.num_nodes()),
        "traversal_order: incomplete traversal");
  return order;
}

}  // namespace

std::size_t Analysis::memory_bytes() const {
  std::size_t bytes = sizeof(Analysis);
  if (permuted) {
    bytes += permuted->colptr().size() * sizeof(count_t);
    bytes += permuted->rowind().size() * sizeof(index_t);
    bytes += permuted->values().size() * sizeof(double);
  }
  const std::size_t nn = static_cast<std::size_t>(tree.num_nodes());
  bytes += nn * (sizeof(AssemblyTree::Node) + sizeof(std::vector<index_t>));
  for (index_t i = 0; i < tree.num_nodes(); ++i)
    bytes += tree.children(i).size() * sizeof(index_t);
  bytes += perm.size() * sizeof(index_t);
  if (structure)
    bytes += static_cast<std::size_t>(structure->total_entries()) *
                 sizeof(index_t) +
             (nn + 1) * sizeof(count_t);
  bytes += memory.subtree_peak.size() * sizeof(count_t);
  bytes += traversal.size() * sizeof(index_t);
  return bytes;
}

Analysis analyze(const CscMatrix& a, const AnalysisOptions& options) {
  using Clock = std::chrono::steady_clock;
  const auto seconds = [](Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
  };
  const auto t0 = Clock::now();
  require(a.nrows() == a.ncols(), "analyze: matrix must be square");
  require(!a.has_nonfinite_values(), "analyze: matrix contains NaN/Inf values");
  const Graph adjacency = Graph::from_matrix(a);
  const std::vector<index_t> order = [&] {
    // Nested dissection may fork ordering threads below this span; each
    // records its own ordering.subtree spans.
    MEMFRONT_SPAN("analyze.ordering");
    return compute_ordering(adjacency, options.ordering, options.seed);
  }();
  const auto t_ordered = Clock::now();

  SymbolicOptions sym = options.symbolic;
  sym.symmetric = options.symmetric;
  SymbolicResult symbolic = [&] {
    MEMFRONT_SPAN("analyze.symbolic");
    return build_assembly_tree(adjacency, order, sym);
  }();
  const auto t_symbolic = Clock::now();

  Analysis analysis;
  analysis.options = options;
  analysis.perm = std::move(symbolic.perm);
  if (options.split_master_threshold > 0) {
    SplitResult split = split_large_masters(
        symbolic.tree, {.master_threshold = options.split_master_threshold,
                        .relative_to_max_master = options.split_relative,
                        .min_npiv = options.split_min_npiv});
    analysis.num_split_nodes = split.num_split_nodes;
    if (options.want_structure) {
      // A chain piece's front rows are a suffix of the original node's
      // rows (the piece eliminates later pivots of the same front), so the
      // split structure is derived from the unsplit one.
      const FrontalStructure unsplit =
          compute_structure(symbolic.tree, adjacency, analysis.perm);
      const index_t old_nn = symbolic.tree.num_nodes();
      const index_t new_nn = split.tree.num_nodes();
      std::vector<count_t> offsets(static_cast<std::size_t>(new_nn) + 1, 0);
      for (index_t j = 0; j < new_nn; ++j)
        offsets[static_cast<std::size_t>(j) + 1] =
            offsets[static_cast<std::size_t>(j)] + split.tree.nfront(j);
      std::vector<index_t> rows(static_cast<std::size_t>(offsets.back()));
      for (index_t i = 0; i < old_nn; ++i) {
        const auto orig = unsplit.rows(i);
        const index_t base = split.node_map[static_cast<std::size_t>(i)];
        const index_t end = i + 1 < old_nn
                                ? split.node_map[static_cast<std::size_t>(i) + 1]
                                : new_nn;
        std::size_t skip = 0;
        for (index_t piece = base; piece < end; ++piece) {
          std::copy(orig.begin() + static_cast<std::ptrdiff_t>(skip),
                    orig.end(),
                    rows.begin() + static_cast<std::ptrdiff_t>(
                                       offsets[static_cast<std::size_t>(piece)]));
          skip += static_cast<std::size_t>(split.tree.npiv(piece));
        }
      }
      analysis.structure.emplace(FrontalStructure(std::move(offsets),
                                                  std::move(rows)));
    }
    analysis.tree = std::move(split.tree);
  } else {
    analysis.tree = std::move(symbolic.tree);
    if (options.want_structure)
      analysis.structure.emplace(
          compute_structure(analysis.tree, adjacency, analysis.perm));
  }

  const auto t_split = Clock::now();

  if (options.liu_reorder) reorder_children_liu(analysis.tree);
  analysis.memory = analyze_tree_memory(analysis.tree);
  analysis.traversal = traversal_order(analysis.tree);
  // The permuted matrix only feeds the numeric phase; scheduling
  // experiments (want_structure = false) never read it.
  if (options.want_structure) analysis.permuted = a.permuted(analysis.perm);
  const auto t_done = Clock::now();

  analysis.timings.ordering_s = seconds(t0, t_ordered);
  analysis.timings.symbolic_s = seconds(t_ordered, t_symbolic);
  analysis.timings.splitting_s = seconds(t_symbolic, t_split);
  analysis.timings.finalize_s = seconds(t_split, t_done);
  analysis.timings.total_s = seconds(t0, t_done);
  return analysis;
}

}  // namespace memfront
