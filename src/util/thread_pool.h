#ifndef MARAS_UTIL_THREAD_POOL_H_
#define MARAS_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>

#include "util/run_context.h"
#include "util/status.h"

namespace maras {

// Worker count a parallel region should actually use: 0 and 1 both mean
// serial, and the fan-out never exceeds the number of work items.
size_t EffectiveThreads(size_t requested, size_t items);

// The one fan-out primitive: runs fn(i, slot) for i in [0, n) across
// EffectiveThreads(num_threads, n) workers and returns once every worker
// has been joined.
//
// * Indices are handed out dynamically through one atomic counter, so
//   uneven per-index cost balances itself.
// * `slot` is the running worker's id in [0, EffectiveThreads(num_threads,
//   n)). Two calls never run on the same slot at once, so per-worker
//   scratch is a vector indexed by slot. The caller's thread is slot 0.
// * Before each index, `ctx` (cancellation / deadline / memory budget) and
//   a shared stop flag are polled; once either trips, no further index is
//   handed out — indices already running finish normally.
// * Among the failures actually observed, the one with the lowest index is
//   returned, so a lone failing index yields the same Status at any thread
//   count. A governance trip returns the RunContext status itself.
// * An exception thrown by fn (or by the poll) is caught on its worker,
//   stops the hand-out like a failure does, and the first one caught is
//   rethrown on the caller after the join.
// * With one worker everything runs inline on the caller's thread in index
//   order, stopping at the first failure.
//
// Determinism is the caller's contract: fn(i, slot) writes only to state
// owned by index i or by its slot, and whatever it leaves in slot state is
// merged in a way the schedule cannot influence.
Status TryParallelFor(size_t num_threads, size_t n, const RunContext& ctx,
                      const std::function<Status(size_t, size_t)>& fn);

}  // namespace maras

#endif  // MARAS_UTIL_THREAD_POOL_H_
