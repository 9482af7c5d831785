// Recursive nested dissection (our METIS stand-in) and its options.
#pragma once

#include <cstdint>

#include "memfront/ordering/graph.hpp"

namespace memfront {

struct NdOptions {
  index_t leaf_size = 96;  // subgraphs at most this big are MD-ordered
  bool amf_leaves = false; // order leaves with AMF instead of AMD
  bool multisection = false;  // defer all separators to the end (PORD-like)
  std::uint64_t seed = 0;
};

/// Orders `g`. Large subgraphs have the two halves of their bisection
/// ordered concurrently, with at most default_thread_count() ordering
/// threads alive under one call (MEMFRONT_THREADS=1 runs it serially);
/// the order is bit-identical at every thread count.
std::vector<index_t> nested_dissection(const Graph& g, const NdOptions& opt);

}  // namespace memfront
