// Deterministic fork-join helpers for the pipeline's parallel kernels.
//
// The mining/crowd kernels fan work out over transient thread pools
// (the PR 5 mining-pool pattern). For kernels whose output order
// matters, work is split into *contiguous chunks*: chunk boundaries
// depend only on (n, threads), each chunk fills its own scratch, and
// the caller concatenates per-chunk results in chunk order — so the
// output is byte-identical to the sequential run at any thread count.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace crowdweb::util {

/// Number of workers worth spawning for `items` units of work:
/// `requested` threads (0 = hardware concurrency), capped by the item
/// count, never less than 1.
inline unsigned effective_threads(unsigned requested, std::size_t items) {
  if (items == 0) return 1;
  const unsigned threads =
      requested == 0 ? std::max(1u, std::thread::hardware_concurrency()) : requested;
  return static_cast<unsigned>(
      std::min<std::size_t>(threads, items));
}

/// Runs fn(chunk, begin, end) over `threads` contiguous chunks of
/// [0, n). Chunk boundaries are a pure function of (n, threads):
/// the first n % threads chunks get one extra item. With threads <= 1
/// (or n == 0) the call runs inline with no thread spawned.
template <typename Fn>
void parallel_chunks(std::size_t n, unsigned threads, Fn&& fn) {
  threads = effective_threads(threads, n);
  if (threads <= 1) {
    if (n > 0) fn(0u, std::size_t{0}, n);
    return;
  }
  const std::size_t base = n / threads;
  const std::size_t extra = n % threads;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  std::size_t begin = 0;
  for (unsigned t = 0; t < threads; ++t) {
    const std::size_t end = begin + base + (t < extra ? 1 : 0);
    pool.emplace_back([&fn, t, begin, end] { fn(t, begin, end); });
    begin = end;
  }
  for (std::thread& thread : pool) thread.join();
}

/// Runs fn(i) for every i in [0, n) on `threads` workers that claim
/// indices from a shared counter, which balances items of uneven cost.
/// Each call must write only its own index's output; the result then
/// does not depend on the thread count. With threads <= 1 (or n <= 1)
/// the loop runs inline with no thread spawned.
template <typename Fn>
void parallel_for(std::size_t n, unsigned threads, Fn&& fn) {
  threads = effective_threads(threads, n);
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
