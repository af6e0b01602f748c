#ifndef PICTDB_COMMON_PARALLEL_FOR_H_
#define PICTDB_COMMON_PARALLEL_FOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

namespace pictdb {

/// Calls `fn(i)` once for every i in [0, n) from `threads` threads (at
/// least one) started for this call, which claim indices in turn from
/// one atomic counter. Returns when every call has finished. This is
/// how a caller runs many QueryService::RunSync calls at once: the
/// service owns no threads.
template <typename Fn>
void ParallelFor(size_t threads, size_t n, const Fn& fn) {
  const size_t count = std::max<size_t>(1, threads);
  std::atomic<size_t> next{0};
  std::vector<std::thread> callers;
  callers.reserve(count);
  for (size_t t = 0; t < count; ++t) {
    callers.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& caller : callers) caller.join();
}

}  // namespace pictdb

#endif  // PICTDB_COMMON_PARALLEL_FOR_H_
