#ifndef MARAS_MINING_FPGROWTH_H_
#define MARAS_MINING_FPGROWTH_H_

#include <cstddef>

#include "mining/fptree.h"
#include "mining/frequent_itemsets.h"
#include "mining/transaction_db.h"
#include "util/status.h"
#include "util/statusor.h"

namespace maras::mining {

// FP-Growth frequent-itemset miner (Han, Pei & Yin). The paper's mining
// phase uses FP-Growth trees for closed itemset and rule generation
// (Section 5.2); closedness filtering lives in closed_itemsets.h on top of
// this miner's output.
//
// The recursion is allocation-free on the hot path: each worker owns a
// MineScratch holding one recycled FpTree arena per recursion depth (a
// conditional tree is built into its depth's arena with Clear(), never
// freshly allocated), a dense conditional-count table reset via a
// touched-item list, a reusable path buffer, and the suffix itemset
// extended in place and popped on unwind. The only steady-state allocation
// per frequent itemset is the itemset stored in the result.
//
// The top-level loop over the global tree's header items is one fan-out
// (util/thread_pool.h) across MiningOptions::num_threads workers: each
// item's conditional tree is projected and mined serially inside its own
// task against the shared read-only global tree, into the running worker
// slot's scratch and result. FP-Growth emits every frequent itemset exactly
// once — in the task of its least frequent item — so the slot results are
// disjoint, and concatenation + canonical sort reconstructs the serial
// result byte for byte regardless of thread count or schedule.
//
// When MiningOptions::context is set, every conditional-tree step polls it
// (cancellation / deadline) and every recorded itemset charges the memory
// budget, as does the resident footprint of the global tree and the
// recycled conditional arenas (charged on capacity growth, released when
// the mine returns — arenas die with the call, recorded itemsets persist);
// a trip unwinds cooperatively with the context's status, wrapped
// "fp-growth", and a failed mine releases everything it charged so a
// degradation retry starts from clean accounting.
class FpGrowth {
 public:
  explicit FpGrowth(MiningOptions options) : options_(options) {}

  maras::StatusOr<FrequentItemsetResult> Mine(
      const TransactionDatabase& db) const;

 private:
  // Per-worker recycled buffers (tree arenas per depth, conditional counts,
  // suffix stack). Defined in the .cc.
  struct MineScratch;

  // Mines every item of `tree` (the conditional tree for the current
  // suffix, held in scratch->suffix). `depth` indexes the recycled arena the
  // next conditional tree is built into.
  maras::Status MineTree(const FpTree& tree, size_t depth,
                         MineScratch* scratch, FrequentItemsetResult* result,
                         size_t* charged) const;
  // One step of MineTree: record {item} ∪ suffix, project the conditional
  // tree into the recycled arena for `depth` and recurse. The unit of
  // parallel fan-out. `charged` accumulates the budget bytes this call
  // chain charged for recorded itemsets (owned by the worker slot,
  // so no synchronization).
  maras::Status MineItem(const FpTree& tree, ItemId item, size_t depth,
                         MineScratch* scratch, FrequentItemsetResult* result,
                         size_t* charged) const;

  MiningOptions options_;
};

}  // namespace maras::mining

#endif  // MARAS_MINING_FPGROWTH_H_
