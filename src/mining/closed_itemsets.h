#ifndef MARAS_MINING_CLOSED_ITEMSETS_H_
#define MARAS_MINING_CLOSED_ITEMSETS_H_

#include "mining/frequent_itemsets.h"
#include "mining/transaction_db.h"
#include "util/statusor.h"

namespace maras::mining {

// Closed-itemset extraction (Definition 3.4.1): an itemset S is closed when
// no proper superset has the same support.
//
// Key fact used here: among *frequent* itemsets, S is closed iff no
// immediate superset S ∪ {i} has equal support. Any equal-support superset
// of a frequent S is itself frequent, so scanning each mined itemset's
// immediate subsets and marking the equal-support ones non-closed finds
// exactly the closed family. This is exact (no sampling, no heuristics) and
// runs in O(Σ |S|) hash probes over the mined result.
//
// The marking scan fans out over blocks of itemsets; tasks only read `all`
// and collect marks into their worker slot, and the per-slot mark sets are
// unioned afterwards. Set union is order-independent and the surviving
// family is re-sorted canonically, so the output is byte-identical at every
// thread count.
FrequentItemsetResult FilterClosed(const FrequentItemsetResult& all,
                                   size_t num_threads = 1);

// Governed variant (the ungoverned one forwards here with an empty
// context): polls `ctx` (cancellation / deadline / budget) before each
// block of itemsets and stops handing out blocks on a trip, returning the
// context's status wrapped "closed-filter". Output is byte-identical to the
// ungoverned filter when nothing trips.
maras::StatusOr<FrequentItemsetResult> FilterClosed(
    const FrequentItemsetResult& all, size_t num_threads,
    const RunContext& ctx);

// Direct check against the database (no mined result needed): S is closed
// iff the intersection of all transactions containing S equals S. Used by
// property tests as independent ground truth; O(|tidlist| · |t|).
bool IsClosedInDatabase(const TransactionDatabase& db, const Itemset& s);

// Closure of S: the intersection of all transactions containing S (the
// smallest closed superset). Empty result means S occurs in no transaction.
Itemset ClosureOf(const TransactionDatabase& db, const Itemset& s);

// Convenience: mine frequent itemsets with FP-Growth, then keep the closed
// ones. Respects MiningOptions::context in both phases when it is set.
maras::StatusOr<FrequentItemsetResult> MineClosed(
    const TransactionDatabase& db, const MiningOptions& options);

}  // namespace maras::mining

#endif  // MARAS_MINING_CLOSED_ITEMSETS_H_
