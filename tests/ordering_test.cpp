#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <tuple>

#include "memfront/obs/metrics.hpp"
#include "memfront/ordering/bisection.hpp"
#include "memfront/sparse/coo.hpp"
#include "memfront/ordering/ordering.hpp"
#include "memfront/ordering/quotient_graph.hpp"
#include "memfront/sparse/generators.hpp"
#include "memfront/sparse/permutation.hpp"
#include "memfront/sparse/problems.hpp"
#include "memfront/support/parallel_for.hpp"
#include "memfront/symbolic/col_counts.hpp"
#include "memfront/symbolic/etree.hpp"

namespace memfront {
namespace {

Graph grid_graph(index_t nx, index_t ny, index_t nz = 1) {
  return Graph::from_matrix(grid_matrix({.nx = nx, .ny = ny, .nz = nz,
                                         .dof = 1, .wide_stencil = false,
                                         .symmetric_values = true,
                                         .seed = 42}));
}

/// Factor fill of an ordering via exact column counts.
count_t factor_nnz(const Graph& g, std::span<const index_t> perm) {
  // Permute adjacency, compute the etree and counts.
  const auto inv = invert_permutation(perm);
  const index_t n = g.num_vertices();
  std::vector<count_t> ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> adj;
  for (index_t v = 0; v < n; ++v) {
    std::vector<index_t> nb;
    for (index_t w : g.neighbors(perm[v]))
      nb.push_back(inv[static_cast<std::size_t>(w)]);
    std::sort(nb.begin(), nb.end());
    adj.insert(adj.end(), nb.begin(), nb.end());
    ptr[v + 1] = static_cast<count_t>(adj.size());
  }
  Graph pg(n, std::move(ptr), std::move(adj));
  const auto parent = elimination_tree(pg);
  count_t total = 0;
  for (index_t c : column_counts(pg, parent)) total += c;
  return total;
}

TEST(Graph, FromMatrixSymmetrizes) {
  const Graph g = grid_graph(4, 4);
  EXPECT_EQ(g.num_vertices(), 16);
  // 4x4 5-point grid: 2*4*3 = 24 undirected edges.
  EXPECT_EQ(g.num_edges(), 24);
  for (index_t v = 0; v < g.num_vertices(); ++v)
    for (index_t w : g.neighbors(v)) EXPECT_NE(w, v);
}

TEST(Graph, InducedSubgraph) {
  const Graph g = grid_graph(3, 3);
  const std::vector<index_t> verts{0, 1, 2};  // the first grid row: a path
  const Graph sub = g.induced(verts);
  EXPECT_EQ(sub.num_vertices(), 3);
  EXPECT_EQ(sub.num_edges(), 2);
  EXPECT_EQ(sub.degree(1), 2);
}

TEST(Graph, ComponentsCounted) {
  // Two disjoint grids glued into one pattern via block diagonal.
  CooMatrix coo(8, 8);
  for (index_t i = 0; i < 8; ++i) coo.add(i, i, 1.0);
  coo.add_symmetric(0, 1, 1.0);
  coo.add_symmetric(1, 2, 1.0);
  coo.add_symmetric(4, 5, 1.0);
  const Graph g = Graph::from_matrix(coo.to_csc());
  std::vector<index_t> comp;
  // {0,1,2} + {4,5} + singletons 3,6,7 = 5 components.
  EXPECT_EQ(g.components(comp), 5);
}

class OrderingValidity
    : public ::testing::TestWithParam<std::tuple<OrderingKind, int>> {};

TEST_P(OrderingValidity, ProducesPermutation) {
  const auto [kind, shape] = GetParam();
  Graph g = shape == 0   ? grid_graph(9, 9)
            : shape == 1 ? grid_graph(5, 5, 4)
                         : Graph::from_matrix(circuit_matrix(
                               {.base_nodes = 60, .harmonics = 3,
                                .avg_degree = 4, .nonlinear_frac = 0.1,
                                .unsym_frac = 0.3, .seed = 9}));
  const auto perm = compute_ordering(g, kind, 1);
  EXPECT_EQ(perm.size(), static_cast<std::size_t>(g.num_vertices()));
  EXPECT_TRUE(is_permutation(perm));
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAllShapes, OrderingValidity,
    ::testing::Combine(::testing::Values(OrderingKind::kNatural,
                                         OrderingKind::kAmd,
                                         OrderingKind::kAmf,
                                         OrderingKind::kNestedDissection,
                                         OrderingKind::kPord,
                                         OrderingKind::kRcm),
                       ::testing::Values(0, 1, 2)),
    [](const auto& info) {
      return ordering_name(std::get<0>(info.param)) + std::string("_shape") +
             std::to_string(std::get<1>(info.param));
    });

TEST(Ordering, FillReducersBeatNaturalOn2DGrid) {
  const Graph g = grid_graph(14, 14);
  const count_t natural = factor_nnz(g, identity_permutation(196));
  for (OrderingKind kind : {OrderingKind::kAmd, OrderingKind::kAmf,
                            OrderingKind::kNestedDissection,
                            OrderingKind::kPord}) {
    const count_t fill = factor_nnz(g, compute_ordering(g, kind, 1));
    EXPECT_LT(fill, natural) << ordering_name(kind);
  }
}

TEST(Ordering, AmdCloseToNestedDissectionOnGrid) {
  // Sanity on quality: neither should be wildly worse than the other.
  const Graph g = grid_graph(16, 16);
  const count_t amd = factor_nnz(g, amd_order(g));
  const count_t nd = factor_nnz(g, nested_dissection_order(g, 1));
  EXPECT_LT(amd, 3 * nd);
  EXPECT_LT(nd, 3 * amd);
}

TEST(Ordering, AmfDiffersFromAmd) {
  const Graph g = grid_graph(12, 12);
  EXPECT_NE(amd_order(g), amf_order(g));
}

TEST(Ordering, HandlesDisconnectedGraphs) {
  CooMatrix coo(30, 30);
  for (index_t i = 0; i < 30; ++i) coo.add(i, i, 1.0);
  for (index_t i = 0; i < 13; ++i) coo.add_symmetric(i, i + 1, 1.0);
  for (index_t i = 16; i < 29; ++i) coo.add_symmetric(i, i + 1, 1.0);
  const Graph g = Graph::from_matrix(coo.to_csc());
  for (OrderingKind kind : {OrderingKind::kAmd, OrderingKind::kAmf,
                            OrderingKind::kNestedDissection,
                            OrderingKind::kPord, OrderingKind::kRcm}) {
    EXPECT_TRUE(is_permutation(compute_ordering(g, kind, 2)))
        << ordering_name(kind);
  }
}

TEST(Ordering, EmptyAndTinyGraphs) {
  const Graph empty(0, {0}, {});
  EXPECT_TRUE(compute_ordering(empty, OrderingKind::kAmd, 0).empty());
  CooMatrix coo(1, 1);
  coo.add(0, 0, 1.0);
  const Graph one = Graph::from_matrix(coo.to_csc());
  EXPECT_EQ(compute_ordering(one, OrderingKind::kNestedDissection, 0),
            (std::vector<index_t>{0}));
}

TEST(MinimumDegree, DenseRowsDeferred) {
  // A star graph: the hub is the densest row and must be ordered last.
  CooMatrix coo(200, 200);
  for (index_t i = 0; i < 200; ++i) coo.add(i, i, 1.0);
  for (index_t i = 1; i < 200; ++i) coo.add_symmetric(0, i, 1.0);
  const Graph g = Graph::from_matrix(coo.to_csc());
  const auto perm =
      minimum_degree_order(g, {.metric = MdMetric::kExternalDegree,
                               .dense_threshold = 50});
  EXPECT_TRUE(is_permutation(perm));
  EXPECT_EQ(perm.back(), 0);  // hub last
}

TEST(MinimumDegree, PathGraphIsFillFree) {
  // On a path, minimum degree must find a perfect (zero-fill) ordering.
  CooMatrix coo(40, 40);
  for (index_t i = 0; i < 40; ++i) coo.add(i, i, 1.0);
  for (index_t i = 0; i + 1 < 40; ++i) coo.add_symmetric(i, i + 1, 1.0);
  const Graph g = Graph::from_matrix(coo.to_csc());
  const auto perm = amd_order(g);
  // nnz(L) for a zero-fill path factorization: 2n-1.
  EXPECT_EQ(factor_nnz(g, perm), 2 * 40 - 1);
}

TEST(Bisection, SeparatorSeparates) {
  const Graph g = grid_graph(12, 12);
  const Bisection cut = bisect(g);
  EXPECT_EQ(cut.part_a.size() + cut.part_b.size() + cut.separator.size(),
            144u);
  EXPECT_FALSE(cut.part_a.empty());
  EXPECT_FALSE(cut.part_b.empty());
  // No edge may connect part_a and part_b directly.
  std::vector<int> side(144, -1);
  for (index_t v : cut.part_a) side[static_cast<std::size_t>(v)] = 0;
  for (index_t v : cut.part_b) side[static_cast<std::size_t>(v)] = 1;
  for (index_t v = 0; v < 144; ++v)
    for (index_t w : g.neighbors(v))
      if (side[static_cast<std::size_t>(v)] == 0)
        EXPECT_NE(side[static_cast<std::size_t>(w)], 1);
}

TEST(Bisection, GridSeparatorIsSmall) {
  const Graph g = grid_graph(16, 16);
  const Bisection cut = bisect(g);
  // A 16x16 grid has a 16-vertex optimal separator; allow some slack.
  EXPECT_LE(cut.separator.size(), 40u);
  // Balance within the configured tolerance (plus separator slack).
  EXPECT_GT(cut.part_a.size(), 60u);
  EXPECT_GT(cut.part_b.size(), 60u);
}

TEST(Bisection, DisconnectedSplitsWithoutSeparator) {
  CooMatrix coo(20, 20);
  for (index_t i = 0; i < 20; ++i) coo.add(i, i, 1.0);
  for (index_t i = 0; i < 9; ++i) coo.add_symmetric(i, i + 1, 1.0);
  for (index_t i = 10; i < 19; ++i) coo.add_symmetric(i, i + 1, 1.0);
  const Graph g = Graph::from_matrix(coo.to_csc());
  const Bisection cut = bisect(g);
  EXPECT_TRUE(cut.separator.empty());
  EXPECT_EQ(cut.part_a.size(), 10u);
  EXPECT_EQ(cut.part_b.size(), 10u);
}

// ---- parallel nested dissection ------------------------------------------

/// Sets MEMFRONT_THREADS (the ordering's thread budget) for a scope.
class ScopedThreads {
 public:
  explicit ScopedThreads(unsigned n) {
    if (const char* old = std::getenv("MEMFRONT_THREADS")) saved_ = old;
    setenv("MEMFRONT_THREADS", std::to_string(n).c_str(), 1);
  }
  ~ScopedThreads() {
    if (saved_)
      setenv("MEMFRONT_THREADS", saved_->c_str(), 1);
    else
      unsetenv("MEMFRONT_THREADS");
  }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  std::optional<std::string> saved_;
};

/// Two disjoint 100x100 grids: the top bisection splits them with an
/// empty separator.
Graph two_grids() {
  const CscMatrix grid =
      grid_matrix({.nx = 100, .ny = 100, .nz = 1, .dof = 1,
                   .wide_stencil = false, .symmetric_values = true,
                   .seed = 42});
  const index_t n = grid.nrows();
  CooMatrix coo(2 * n, 2 * n);
  for (index_t copy = 0; copy < 2; ++copy)
    for (index_t j = 0; j < n; ++j)
      for (index_t r : grid.column(j)) coo.add(copy * n + r, copy * n + j, 1.0);
  return Graph::from_matrix(coo.to_csc());
}

TEST(ParallelNestedDissection, BitIdenticalToSerialAtEveryBudget) {
  struct Case {
    std::string name;
    Graph graph;
    // Whether the top split forks (above the 16384-edge floor, and
    // the bisection succeeds) for ND and for PORD.
    bool nd_forks;
    bool pord_forks;
  };
  // GUPTA3: under ND the top split leaves a 2-vertex half and the other
  // half's bisection fails and falls back to minimum degree; under PORD
  // the top bisection itself fails.
  const Graph gupta = Graph::from_matrix(make_problem(ProblemId::kGupta3, 1.0).matrix);
  const Case cases[] = {
      {"grid160", grid_graph(160, 160), true, true},
      {"grid40_below_floor", grid_graph(40, 40), false, false},
      {"two_grids", two_grids(), true, true},
      {"gupta3_failed_split", gupta, true, false},
  };
  obs::Gauge& peak =
      obs::MetricsRegistry::global().gauge("ordering.nd.threads_peak");
  for (const Case& c : cases) {
    for (OrderingKind kind :
         {OrderingKind::kNestedDissection, OrderingKind::kPord}) {
      const std::string label = c.name + " " + ordering_name(kind);
      const bool forks =
          kind == OrderingKind::kPord ? c.pord_forks : c.nd_forks;
      std::vector<index_t> serial;
      {
        ScopedThreads one(1);
        peak.reset();
        serial = compute_ordering(c.graph, kind, 0);
        EXPECT_EQ(peak.value(), 1) << label;
      }
      ASSERT_TRUE(is_permutation(serial)) << label;
      for (unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
        ScopedThreads budget(threads);
        peak.reset();
        EXPECT_EQ(compute_ordering(c.graph, kind, 0), serial)
            << label << " at " << threads << " threads";
        // Live ordering threads never exceed the budget, and a graph
        // above the floor really ran its halves concurrently.
        EXPECT_LE(peak.value(), static_cast<std::int64_t>(threads)) << label;
        if (forks && threads >= 2) EXPECT_GE(peak.value(), 2) << label;
        if (!forks) EXPECT_EQ(peak.value(), 1) << label;
      }
    }
  }
}

TEST(ParallelNestedDissection, OrdersSeriallyInsideAParallelLoop) {
  // Sweep legs analyze on parallel_for workers, which already use the
  // cores: each leg's ordering stays on its own thread.
  const Graph g = grid_graph(160, 160);
  ScopedThreads budget(4);
  const std::vector<index_t> expected =
      compute_ordering(g, OrderingKind::kNestedDissection, 0);
  obs::Gauge& peak =
      obs::MetricsRegistry::global().gauge("ordering.nd.threads_peak");
  peak.reset();
  std::vector<index_t> orders[2];
  parallel_for(
      2,
      [&](std::size_t i) {
        orders[i] = compute_ordering(g, OrderingKind::kNestedDissection, 0);
      },
      2);
  EXPECT_EQ(orders[0], expected);
  EXPECT_EQ(orders[1], expected);
  EXPECT_LE(peak.value(), 2);  // the two legs, neither forked
}

TEST(Ordering, PaperOrderingsOrder) {
  const auto kinds = paper_orderings();
  ASSERT_EQ(kinds.size(), 4u);
  EXPECT_EQ(ordering_name(kinds[0]), "METIS");
  EXPECT_EQ(ordering_name(kinds[1]), "PORD");
  EXPECT_EQ(ordering_name(kinds[2]), "AMD");
  EXPECT_EQ(ordering_name(kinds[3]), "AMF");
}

}  // namespace
}  // namespace memfront
