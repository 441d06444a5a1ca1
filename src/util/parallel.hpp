// Fork-join helper for the pipeline's per-user kernels.
//
// Batch mining and an epoch's re-mining and tally counting fan users
// out over a transient thread pool. Each call writes only its own
// index's output, so results do not depend on the thread count.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace crowdweb::util {

/// Runs fn(i) for every i in [0, n) on `threads` workers (0 = hardware
/// concurrency, never more than n) that claim indices from a shared
/// counter, which balances items of uneven cost.
/// Each call must write only its own index's output; the result then
/// does not depend on the thread count. With threads <= 1 (or n <= 1)
/// the loop runs inline with no thread spawned.
template <typename Fn>
void parallel_for(std::size_t n, unsigned threads, Fn&& fn) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  threads = static_cast<unsigned>(std::min<std::size_t>(threads, n));
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  const auto worker = [&fn, &next, n] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed))
      fn(i);
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& thread : pool) thread.join();
}

}  // namespace crowdweb::util
