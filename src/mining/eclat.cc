#include "mining/eclat.h"

#include <algorithm>
#include <utility>

#include "util/thread_pool.h"

namespace maras::mining {

maras::StatusOr<FrequentItemsetResult> Eclat::Mine(
    const TransactionDatabase& db) const {
  if (options_.min_support == 0) {
    return maras::Status::InvalidArgument("min_support must be >= 1");
  }
  if (options_.shard_count != 1 || options_.shard_index != 0) {
    return maras::Status::InvalidArgument(
        "eclat is a single-process cross-check baseline; sharding is"
        " FP-Growth only");
  }

  // Frequent items in ascending item order, so emitted itemsets are
  // canonically sorted within each branch.
  std::vector<ItemId> items;
  for (size_t item = 0; item < db.item_bound(); ++item) {
    if (db.ItemSupport(static_cast<ItemId>(item)) >= options_.min_support) {
      items.push_back(static_cast<ItemId>(item));
    }
  }

  FrequentItemsetResult result;
  if (options_.eclat_mode == EclatMode::kScalar) {
    // Reference engine: serial merge-intersection over tid-lists.
    std::vector<Vertical> root;
    root.reserve(items.size());
    for (ItemId item : items) {
      root.push_back(Vertical{item, db.TidList(item)});
    }
    MineClass({}, root, &result);
    result.SortCanonically();
    return result;
  }

  const size_t universe = db.size();
  BitmapPolicy policy = BitmapPolicy::kAuto;
  if (options_.eclat_mode == EclatMode::kDense) policy = BitmapPolicy::kDense;
  if (options_.eclat_mode == EclatMode::kSparse) {
    policy = BitmapPolicy::kSparse;
  }

  std::vector<VerticalSlice> root;
  root.reserve(items.size());
  for (ItemId item : items) {
    root.push_back(VerticalSlice::Make(item, db.TidList(item), universe,
                                       policy));
  }

  // One task per top-level item, each writing its worker slot's result;
  // itemsets are unique, so after SortCanonically the bytes are
  // independent of which slot mined which branch.
  std::vector<FrequentItemsetResult> slots(
      maras::EffectiveThreads(options_.num_threads, root.size()));
  MARAS_RETURN_IF_ERROR(maras::TryParallelFor(
      options_.num_threads, root.size(), maras::RunContext(),
      [&](size_t i, size_t slot) {
        MineBranch(i, root, {}, universe, policy, &slots[slot]);
        return maras::Status::OK();
      }));
  for (FrequentItemsetResult& slot : slots) {
    result.Absorb(std::move(slot));
  }
  result.SortCanonically();
  return result;
}

void Eclat::MineBranch(size_t i, const std::vector<VerticalSlice>& klass,
                       const Itemset& prefix, size_t universe,
                       BitmapPolicy policy,
                       FrequentItemsetResult* result) const {
  Itemset itemset = prefix;
  itemset.push_back(klass[i].item);
  result->Add(itemset, klass[i].support);
  if (options_.max_itemset_size != 0 &&
      itemset.size() >= options_.max_itemset_size) {
    return;
  }
  // Child class: intersect with every later sibling. The kernel picks
  // dense∧dense (word-wise AND+popcount), sparse∧sparse (galloping), or
  // probe (mixed) per pair; the child's representation is re-chosen from
  // its own density under the active policy.
  std::vector<VerticalSlice> child;
  for (size_t j = i + 1; j < klass.size(); ++j) {
    VerticalSlice entry = IntersectSlices(klass[i], klass[j], universe,
                                          policy);
    if (entry.support >= options_.min_support) {
      child.push_back(std::move(entry));
    }
  }
  for (size_t c = 0; c < child.size(); ++c) {
    MineBranch(c, child, itemset, universe, policy, result);
  }
}

void Eclat::MineClass(const Itemset& prefix,
                      const std::vector<Vertical>& klass,
                      FrequentItemsetResult* result) const {
  for (size_t i = 0; i < klass.size(); ++i) {
    Itemset itemset = prefix;
    itemset.push_back(klass[i].item);
    result->Add(itemset, klass[i].tids.size());
    if (options_.max_itemset_size != 0 &&
        itemset.size() >= options_.max_itemset_size) {
      continue;
    }
    // Child class: intersect with every later sibling.
    std::vector<Vertical> child;
    for (size_t j = i + 1; j < klass.size(); ++j) {
      Vertical entry;
      entry.item = klass[j].item;
      std::set_intersection(klass[i].tids.begin(), klass[i].tids.end(),
                            klass[j].tids.begin(), klass[j].tids.end(),
                            std::back_inserter(entry.tids));
      if (entry.tids.size() >= options_.min_support) {
        child.push_back(std::move(entry));
      }
    }
    if (!child.empty()) MineClass(itemset, child, result);
  }
}

}  // namespace maras::mining
