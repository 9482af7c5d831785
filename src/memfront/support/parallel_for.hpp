// Minimal thread-pool parallelism for the experiment pipeline.
//
// Every simulation run is deterministic and self-contained (no shared
// mutable state: an Engine owns all of its processors, queues and
// results), so independent (problem x strategy x budget) legs of a sweep
// can run on separate threads and must produce results bit-identical to
// the serial order. parallel_for hands out indices through an atomic
// cursor — each worker writes only to its own output slots — and rethrows
// the first exception a body raised, after all workers have stopped.
//
// One simulation per thread, no locks in the hot path, results gathered
// by index so output order never depends on scheduling.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace memfront {

/// Worker count a parallelism level of 0 resolves to: the
/// MEMFRONT_THREADS environment variable when set (>= 1), otherwise the
/// hardware concurrency (at least 1).
inline unsigned default_thread_count() {
  if (const char* env = std::getenv("MEMFRONT_THREADS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n >= 1) return static_cast<unsigned>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

namespace detail {
/// Multi-worker parallel_for bodies the calling thread is inside.
inline thread_local unsigned parallel_body_depth = 0;
}  // namespace detail

/// True while the calling thread runs a body of a multi-worker
/// parallel_for: the enclosing loop already spreads its work over the
/// workers, so nested work should not fork more threads.
inline bool in_parallel_body() { return detail::parallel_body_depth > 0; }

/// Runs fn(i) for every i in [0, n), distributing indices over
/// min(n, nthreads) threads (nthreads = 0 means default_thread_count()).
/// With one worker the calls run inline on the caller's thread, in order.
/// Exceptions: the first one thrown by any body is rethrown here once
/// every worker has joined.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn, unsigned nthreads = 0) {
  if (n == 0) return;
  if (nthreads == 0) nthreads = default_thread_count();
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(n, nthreads));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto body = [&] {
    struct Depth {
      Depth() { ++detail::parallel_body_depth; }
      ~Depth() { --detail::parallel_body_depth; }
    } depth;
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || failed.load(std::memory_order_relaxed)) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  try {
    for (unsigned t = 1; t < workers; ++t) threads.emplace_back(body);
  } catch (...) {
    // Thread spawn failed (resource limit): stop handing out work, join
    // whatever started, and surface the spawn error — never terminate.
    failed.store(true, std::memory_order_relaxed);
    cursor.store(n, std::memory_order_relaxed);
    for (std::thread& t : threads) t.join();
    throw;
  }
  body();
  for (std::thread& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

/// parallel_for over a vector of inputs, gathering fn(item) results in
/// input order — the parallel drop-in for a transform loop.
template <typename T, typename Fn>
auto parallel_map(const std::vector<T>& items, Fn&& fn, unsigned nthreads = 0)
    -> std::vector<std::decay_t<decltype(fn(items[0]))>> {
  using R = std::decay_t<decltype(fn(items[0]))>;
  std::vector<std::optional<R>> slots(items.size());
  parallel_for(
      items.size(), [&](std::size_t i) { slots[i].emplace(fn(items[i])); },
      nthreads);
  std::vector<R> results;
  results.reserve(items.size());
  for (std::optional<R>& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace memfront
