#include "parallel/parallel_for.hpp"

#include <algorithm>
#include <exception>
#include <vector>

namespace gridsub::par {

void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& body,
                  ThreadPool* pool) {
  if (begin >= end) return;
  const auto run_block = [&body](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) body(i);
  };
  ThreadPool& p = pool ? *pool : ThreadPool::shared();
  const auto n = static_cast<std::size_t>(end - begin);
  const std::size_t n_blocks = std::min<std::size_t>(p.thread_count(), n);
  if (n_blocks <= 1) {
    run_block(begin, end);
    return;
  }
  const std::size_t chunk = (n + n_blocks - 1) / n_blocks;
  std::vector<std::future<void>> futures;
  futures.reserve(n_blocks);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::int64_t lo = begin + static_cast<std::int64_t>(b * chunk);
    const std::int64_t hi =
        std::min<std::int64_t>(end, lo + static_cast<std::int64_t>(chunk));
    if (lo >= hi) break;
    futures.push_back(p.submit([lo, hi, &run_block]() { run_block(lo, hi); }));
  }
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace gridsub::par
