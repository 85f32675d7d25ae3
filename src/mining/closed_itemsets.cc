#include "mining/closed_itemsets.h"

#include <algorithm>
#include <utility>

#include "mining/flat_table.h"
#include "mining/fpgrowth.h"
#include "util/run_context.h"
#include "util/thread_pool.h"

namespace maras::mining {

namespace {

// Itemsets scanned per fan-out task, which is also the governance poll
// interval of the marking scan.
constexpr size_t kMarkBlock = 256;

// Appends to `marks` every immediate subset of `fi.items` that `fi` proves
// non-closed (equal support). Pure read of `all`.
void MarkCoveredSubsets(const FrequentItemsetResult& all,
                        const FrequentItemset& fi,
                        std::vector<Itemset>* marks) {
  if (fi.items.size() < 2) return;
  Itemset subset;
  subset.reserve(fi.items.size() - 1);
  for (size_t drop = 0; drop < fi.items.size(); ++drop) {
    subset.clear();
    for (size_t i = 0; i < fi.items.size(); ++i) {
      if (i != drop) subset.push_back(fi.items[i]);
    }
    if (all.SupportOf(subset) == fi.support) {
      marks->push_back(subset);
    }
  }
}

}  // namespace

FrequentItemsetResult FilterClosed(const FrequentItemsetResult& all,
                                   size_t num_threads) {
  // An empty context never trips, so the governed filter cannot fail.
  maras::StatusOr<FrequentItemsetResult> closed =
      FilterClosed(all, num_threads, RunContext());
  return std::move(closed).value();
}

maras::StatusOr<FrequentItemsetResult> FilterClosed(
    const FrequentItemsetResult& all, size_t num_threads,
    const RunContext& ctx) {
  // Mark every itemset that has an equal-support immediate superset in the
  // result by walking each itemset's immediate subsets, one block of
  // itemsets per task; the fan-out polls `ctx` before each block.
  const std::vector<FrequentItemset>& itemsets = all.itemsets();
  const size_t blocks = (itemsets.size() + kMarkBlock - 1) / kMarkBlock;
  std::vector<std::vector<Itemset>> slot_marks(
      EffectiveThreads(num_threads, blocks));
  maras::Status status = TryParallelFor(
      num_threads, blocks, ctx, [&](size_t block, size_t slot) {
        const size_t end = std::min(itemsets.size(), (block + 1) * kMarkBlock);
        for (size_t i = block * kMarkBlock; i < end; ++i) {
          MarkCoveredSubsets(all, itemsets[i], &slot_marks[slot]);
        }
        return maras::Status::OK();
      });
  if (!status.ok()) return maras::WithContext(status, "closed-filter");
  ItemsetFlatSet not_closed;
  for (std::vector<Itemset>& marks : slot_marks) {
    for (Itemset& s : marks) not_closed.Insert(std::move(s));
  }
  FrequentItemsetResult closed;
  for (const FrequentItemset& fi : all.itemsets()) {
    if (!not_closed.Contains(fi.items)) {
      closed.Add(fi.items, fi.support);
    }
  }
  closed.SortCanonically();
  return closed;
}

Itemset ClosureOf(const TransactionDatabase& db, const Itemset& s) {
  std::vector<TransactionId> tids = db.ContainingTransactions(s);
  if (tids.empty()) return {};
  Itemset closure = db.transaction(tids[0]);
  for (size_t i = 1; i < tids.size() && closure.size() > s.size(); ++i) {
    closure = Intersect(closure, db.transaction(tids[i]));
  }
  return closure;
}

bool IsClosedInDatabase(const TransactionDatabase& db, const Itemset& s) {
  Itemset closure = ClosureOf(db, s);
  return !closure.empty() && closure == s;
}

maras::StatusOr<FrequentItemsetResult> MineClosed(
    const TransactionDatabase& db, const MiningOptions& options) {
  FpGrowth miner(options);
  MARAS_ASSIGN_OR_RETURN(FrequentItemsetResult all, miner.Mine(db));
  return FilterClosed(all, options.num_threads,
                      options.context != nullptr ? *options.context
                                                 : RunContext());
}

}  // namespace maras::mining
