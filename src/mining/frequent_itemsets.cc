#include "mining/frequent_itemsets.h"

#include <algorithm>
#include <utility>

namespace maras::mining {

void FrequentItemsetResult::Add(Itemset items, size_t support) {
  itemsets_.push_back(FrequentItemset{std::move(items), support});
  index_.InsertOrAssign(static_cast<uint32_t>(itemsets_.size() - 1),
                        KeyAt{this});
}

size_t FrequentItemsetResult::SupportOf(const Itemset& s) const {
  const uint32_t i = index_.Find(s, KeyAt{this});
  return i == FlatItemsetIndex::kNotFound ? 0 : itemsets_[i].support;
}

bool FrequentItemsetResult::ContainsItemset(const Itemset& s) const {
  return index_.Find(s, KeyAt{this}) != FlatItemsetIndex::kNotFound;
}

void FrequentItemsetResult::SortCanonically() {
  std::sort(itemsets_.begin(), itemsets_.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              if (a.items != b.items) return a.items < b.items;
              return a.support < b.support;
            });
  // Sorting renumbers every entry, so the index is rebuilt from scratch.
  index_.Clear();
  index_.Reserve(itemsets_.size());
  for (size_t i = 0; i < itemsets_.size(); ++i) {
    index_.InsertOrAssign(static_cast<uint32_t>(i), KeyAt{this});
  }
}

void FrequentItemsetResult::Absorb(FrequentItemsetResult&& other) {
  if (itemsets_.empty()) {
    *this = std::move(other);
    other = FrequentItemsetResult();
    return;
  }
  // No exact-size reserve of itemsets_: merging shards one at a time would
  // then reallocate and move the whole vector on every call. push_back
  // grows geometrically, as the index's power-of-two slot counts do.
  index_.Reserve(itemsets_.size() + other.itemsets_.size());
  for (FrequentItemset& fi : other.itemsets_) {
    itemsets_.push_back(std::move(fi));
    index_.InsertOrAssign(static_cast<uint32_t>(itemsets_.size() - 1),
                          KeyAt{this});
  }
  other.itemsets_.clear();
  other.index_.Clear();
}

}  // namespace maras::mining
