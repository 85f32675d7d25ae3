#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <utility>
#include <vector>

#include "util/mutex.h"

namespace maras {

size_t EffectiveThreads(size_t requested, size_t items) {
  if (requested <= 1 || items <= 1) return 1;
  return std::min(requested, items);
}

Status TryParallelFor(size_t num_threads, size_t n, const RunContext& ctx,
                      const std::function<Status(size_t, size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::atomic<bool> stop{false};
  Mutex error_mu;
  Status first_error;
  size_t first_error_index = n;  // n = no failure recorded yet
  std::exception_ptr first_exception;
  auto run = [&](size_t slot) {
    for (size_t i = next.fetch_add(1);
         i < n && !stop.load(std::memory_order_acquire);
         i = next.fetch_add(1)) {
      try {
        Status status = ctx.Check();
        if (status.ok()) status = fn(i, slot);
        if (status.ok()) continue;
        MutexLock lock(&error_mu);
        if (i < first_error_index) {
          first_error_index = i;
          first_error = std::move(status);
        }
      } catch (...) {
        MutexLock lock(&error_mu);
        if (!first_exception) first_exception = std::current_exception();
      }
      stop.store(true, std::memory_order_release);
      return;
    }
  };

  const size_t workers = EffectiveThreads(num_threads, n);
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (size_t slot = 1; slot < workers; ++slot) {
    try {
      threads.emplace_back(run, slot);
    } catch (const std::exception&) {
      // Out of threads or memory: the hand-out is dynamic, so the workers
      // that did start (at least the caller) still cover every index, and
      // they are joined below either way.
      break;
    }
  }
  run(0);
  for (std::thread& thread : threads) thread.join();

  MutexLock lock(&error_mu);
  if (first_exception) std::rethrow_exception(first_exception);
  return first_error_index < n ? first_error : Status::OK();
}

}  // namespace maras
