#include "mining/concept_lattice.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/run_context.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace maras::mining {

namespace {

// FNV-1a over an id span — must hash identically to ItemsetHash so FindNode
// probes and pool-resident keys agree.
uint64_t SpanHash(const ItemId* ids, size_t count) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < count; ++i) {
    h ^= ids[i];
    h *= 1099511628211ULL;
  }
  return h;
}

bool SpanEquals(const ItemId* a, size_t a_count, const Itemset& b) {
  if (a_count != b.size()) return false;
  return std::equal(a, a + a_count, b.begin());
}

// a ⊆ b over sorted spans.
bool SpanIsSubset(const ItemId* a, size_t a_count, const ItemId* b,
                  size_t b_count) {
  if (a_count > b_count) return false;
  size_t j = 0;
  for (size_t i = 0; i < a_count; ++i) {
    while (j < b_count && b[j] < a[i]) ++j;
    if (j == b_count || b[j] != a[i]) return false;
    ++j;
  }
  return true;
}

// Smallest power-of-two slot count keeping load factor under ~0.7 (the
// FlatItemsetIndex policy).
size_t SlotCountFor(size_t entries) {
  size_t slots = 16;
  while (slots * 7 < entries * 10) slots *= 2;
  return slots;
}

// Nodes per covering-edge fan-out task. The fan-out polls the RunContext
// before each task, so this also bounds governance latency without putting
// an atomic load in the inner counting loop.
constexpr size_t kNodeBlock = 64;

}  // namespace

uint32_t ConceptLattice::FindNode(const Itemset& s) const {
  if (index_slots_.empty()) return kNotFound;
  const uint64_t hash = SpanHash(s.data(), s.size());
  const size_t mask = index_slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const IndexSlot& slot = index_slots_[i];
    if (slot.node == kNotFound) return kNotFound;
    if (slot.hash == hash) {
      LatticeSpan<ItemId> items = NodeItems(slot.node);
      if (SpanEquals(items.ptr, items.count, s)) return slot.node;
    }
  }
}

bool ConceptLattice::NodeContains(uint32_t node, const Itemset& subset) const {
  LatticeSpan<ItemId> items = NodeItems(node);
  return SpanIsSubset(subset.data(), subset.size(), items.ptr, items.count);
}

uint32_t ConceptLattice::DescendToClosure(uint32_t start,
                                          const Itemset& subset) const {
  uint32_t current = start;
  for (;;) {
    uint32_t next = kNotFound;
    for (uint32_t candidate : Subsets(current)) {
      if (NodeContains(candidate, subset)) {
        next = candidate;
        break;
      }
    }
    if (next == kNotFound) return current;
    current = next;
  }
}

size_t ConceptLattice::MemoryFootprint() const {
  return item_pool_.capacity() * sizeof(ItemId) +
         node_item_begin_.capacity() * sizeof(uint32_t) +
         support_.capacity() * sizeof(uint64_t) +
         (subset_begin_.capacity() + subsets_.capacity() +
          superset_begin_.capacity() + supersets_.capacity()) *
             sizeof(uint32_t) +
         index_slots_.capacity() * sizeof(IndexSlot);
}

void ConceptLattice::BuildNodeIndex() {
  const size_t n = support_.size();
  index_slots_.assign(SlotCountFor(n), IndexSlot{});
  const size_t mask = index_slots_.size() - 1;
  for (uint32_t node = 0; node < n; ++node) {
    LatticeSpan<ItemId> items = NodeItems(node);
    const uint64_t hash = SpanHash(items.ptr, items.count);
    size_t i = hash & mask;
    // Node itemsets are unique within one closed family, so placement needs
    // no key compares.
    while (index_slots_[i].node != kNotFound) i = (i + 1) & mask;
    index_slots_[i] = IndexSlot{hash, node};
  }
}

maras::StatusOr<ConceptLattice> ConceptLattice::Build(
    const FrequentItemsetResult& closed, size_t num_threads,
    const RunContext& ctx) {
  const size_t n = closed.size();
  if (n >= kNotFound) {
    return maras::Status::InvalidArgument(
        "closed family of " + std::to_string(n) +
        " itemsets exceeds 32-bit lattice node indexing");
  }

  ConceptLattice lattice;
  size_t pool_size = 0;
  ItemId item_bound = 0;
  for (const FrequentItemset& fi : closed.itemsets()) {
    pool_size += fi.items.size();
    if (!fi.items.empty()) item_bound = std::max(item_bound, fi.items.back());
  }
  if (n > 0) item_bound += 1;
  if (pool_size >= static_cast<size_t>(kNotFound)) {
    return maras::Status::InvalidArgument(
        "closed family item pool exceeds 32-bit indexing");
  }
  lattice.item_pool_.reserve(pool_size);
  lattice.node_item_begin_.reserve(n + 1);
  lattice.support_.reserve(n);
  lattice.node_item_begin_.push_back(0);
  for (const FrequentItemset& fi : closed.itemsets()) {
    lattice.item_pool_.insert(lattice.item_pool_.end(), fi.items.begin(),
                              fi.items.end());
    lattice.node_item_begin_.push_back(
        static_cast<uint32_t>(lattice.item_pool_.size()));
    lattice.support_.push_back(fi.support);
  }
  lattice.BuildNodeIndex();
  MARAS_RETURN_IF_ERROR(ctx.Charge(lattice.MemoryFootprint()));

  // Inverted index: item -> ascending node ids containing it. Drives the
  // counting pass that finds each node's proper closed subsets.
  std::vector<uint32_t> nodes_with_item_begin(item_bound + 1, 0);
  for (uint32_t node = 0; node < n; ++node) {
    for (ItemId id : lattice.NodeItems(node)) ++nodes_with_item_begin[id + 1];
  }
  for (size_t i = 1; i < nodes_with_item_begin.size(); ++i) {
    nodes_with_item_begin[i] += nodes_with_item_begin[i - 1];
  }
  std::vector<uint32_t> nodes_with_item(lattice.item_pool_.size());
  {
    std::vector<uint32_t> cursor(nodes_with_item_begin.begin(),
                                 nodes_with_item_begin.end() - 1);
    for (uint32_t node = 0; node < n; ++node) {
      for (ItemId id : lattice.NodeItems(node)) {
        nodes_with_item[cursor[id]++] = node;
      }
    }
  }

  // Covering-edge fan-out, one block of kNodeBlock node ids per task; each
  // worker slot owns one counting scratch, and covers[v] depends only on v,
  // so the schedule cannot influence output. For node v:
  // count, over the inverted lists of v's items, how many of v's items each
  // other node carries — u with count == |u| is a proper closed subset
  // (itemsets are unique, so u ⊆ v and u ≠ v imply u ⊊ v). The covers are
  // the maximal such u: scanning candidates largest-first, a candidate
  // contained in an already chosen cover is dominated, anything else starts
  // a new cover (every non-maximal candidate is inside some maximal one, so
  // the check against chosen covers alone is sufficient).
  std::vector<std::vector<uint32_t>> covers(n);
  struct CoverScratch {
    std::vector<uint32_t> count;
    std::vector<uint32_t> touched;
    std::vector<uint32_t> candidates;
  };
  const size_t blocks = (n + kNodeBlock - 1) / kNodeBlock;
  std::vector<CoverScratch> scratch(
      maras::EffectiveThreads(num_threads, blocks));
  maras::Status fan_status = maras::TryParallelFor(
      num_threads, blocks, ctx, [&](size_t block, size_t slot) {
        std::vector<uint32_t>& count = scratch[slot].count;
        std::vector<uint32_t>& touched = scratch[slot].touched;
        std::vector<uint32_t>& candidates = scratch[slot].candidates;
        if (count.empty()) count.assign(n, 0);
        const size_t last = std::min(n, (block + 1) * kNodeBlock);
        for (uint32_t v = static_cast<uint32_t>(block * kNodeBlock); v < last;
             ++v) {
          LatticeSpan<ItemId> v_items = lattice.NodeItems(v);
          touched.clear();
          for (ItemId id : v_items) {
            const uint32_t begin = nodes_with_item_begin[id];
            const uint32_t end = nodes_with_item_begin[id + 1];
            for (uint32_t k = begin; k < end; ++k) {
              const uint32_t u = nodes_with_item[k];
              if (u == v) continue;
              if (count[u]++ == 0) touched.push_back(u);
            }
          }
          candidates.clear();
          for (uint32_t u : touched) {
            LatticeSpan<ItemId> u_items = lattice.NodeItems(u);
            if (count[u] == u_items.count && u_items.count < v_items.count) {
              candidates.push_back(u);
            }
            count[u] = 0;
          }
          // Largest-first, id ascending within a size — deterministic and
          // makes the domination check against chosen covers complete.
          std::sort(candidates.begin(), candidates.end(),
                    [&lattice](uint32_t a, uint32_t b) {
                      const size_t sa = lattice.NodeItems(a).count;
                      const size_t sb = lattice.NodeItems(b).count;
                      if (sa != sb) return sa > sb;
                      return a < b;
                    });
          std::vector<uint32_t>& chosen = covers[v];
          for (uint32_t u : candidates) {
            LatticeSpan<ItemId> u_items = lattice.NodeItems(u);
            bool dominated = false;
            for (uint32_t w : chosen) {
              LatticeSpan<ItemId> w_items = lattice.NodeItems(w);
              if (SpanIsSubset(u_items.ptr, u_items.count, w_items.ptr,
                               w_items.count)) {
                dominated = true;
                break;
              }
            }
            if (!dominated) chosen.push_back(u);
          }
          std::sort(chosen.begin(), chosen.end());
        }
        return maras::Status::OK();
      });
  if (!fan_status.ok()) {
    return maras::WithContext(fan_status, "lattice-build");
  }

  // Serial CSR assembly in node order (deterministic bytes), then the
  // transpose for the specialize direction.
  size_t edge_total = 0;
  for (const std::vector<uint32_t>& c : covers) edge_total += c.size();
  lattice.subset_begin_.reserve(n + 1);
  lattice.subsets_.reserve(edge_total);
  lattice.subset_begin_.push_back(0);
  for (uint32_t v = 0; v < n; ++v) {
    lattice.subsets_.insert(lattice.subsets_.end(), covers[v].begin(),
                            covers[v].end());
    lattice.subset_begin_.push_back(
        static_cast<uint32_t>(lattice.subsets_.size()));
  }
  lattice.superset_begin_.assign(n + 1, 0);
  for (uint32_t u : lattice.subsets_) ++lattice.superset_begin_[u + 1];
  for (size_t i = 1; i <= n; ++i) {
    lattice.superset_begin_[i] += lattice.superset_begin_[i - 1];
  }
  lattice.supersets_.resize(edge_total);
  {
    std::vector<uint32_t> cursor(lattice.superset_begin_.begin(),
                                 lattice.superset_begin_.end() - 1);
    for (uint32_t v = 0; v < n; ++v) {
      for (uint32_t u : covers[v]) lattice.supersets_[cursor[u]++] = v;
    }
  }
  MARAS_RETURN_IF_ERROR(
      ctx.Charge((lattice.subsets_.size() + lattice.supersets_.size() + 2 * n +
                  2) *
                 sizeof(uint32_t)));
  return lattice;
}

// ---------------------------------------------------------------------------
// SubsetSupportCache
// ---------------------------------------------------------------------------

SubsetSupportCache::SubsetSupportCache(const TransactionDatabase* db)
    : db_(db), shards_(kShardCount), item_bitmaps_(db->item_bound()) {}

const TidBitmap& SubsetSupportCache::ItemBitmap(ItemId item) {
  MutexLock lock(&bitmap_mu_);
  std::unique_ptr<TidBitmap>& slot = item_bitmaps_[item];
  if (slot == nullptr) {
    slot = std::make_unique<TidBitmap>(
        TidBitmap::FromTids(db_->TidList(item), db_->size()));
  }
  return *slot;
}

uint64_t SubsetSupportCache::BitmapSupport(const Itemset& s) {
  if (s.size() == 1) return db_->ItemSupport(s[0]);
  if (s.size() == 2) {
    return AndPopcount(ItemBitmap(s[0]), ItemBitmap(s[1]));
  }
  TidBitmap acc;
  TidBitmap scratch;
  BitmapAnd(ItemBitmap(s[0]), ItemBitmap(s[1]), &acc);
  for (size_t i = 2; i + 1 < s.size(); ++i) {
    BitmapAnd(acc, ItemBitmap(s[i]), &scratch);
    std::swap(acc, scratch);
  }
  return AndPopcount(acc, ItemBitmap(s.back()));
}

uint64_t SubsetSupportCache::Support(const Itemset& s,
                                     const ConceptLattice* lattice,
                                     uint32_t target_node) {
  const size_t shard_index =
      ItemsetHash{}(s) & (kShardCount - 1);  // kShardCount is a power of two
  Shard& shard = shards_[shard_index];
  struct KeyAt {
    const Shard* shard;
    // Invoked only from Find/InsertOrAssign below, both under shard->mu;
    // the functor signature cannot carry that proof through the unannotated
    // FlatItemsetIndex templates, hence the analysis opt-out.
    const Itemset& operator()(uint32_t i) const NO_THREAD_SAFETY_ANALYSIS {
      return shard->keys[i];
    }
  };
  {
    MutexLock lock(&shard.mu);
    const uint32_t found = shard.index.Find(s, KeyAt{&shard});
    if (found != FlatItemsetIndex::kNotFound) {
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      return shard.values[found];
    }
  }
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  uint64_t support = 0;
  if (lattice != nullptr && target_node != ConceptLattice::kNotFound) {
    support =
        lattice->NodeSupport(lattice->DescendToClosure(target_node, s));
  } else {
    shard.fallbacks.fetch_add(1, std::memory_order_relaxed);
    support = BitmapSupport(s);
  }
  {
    MutexLock lock(&shard.mu);
    // Another worker may have raced the same key in; InsertOrAssign keeps
    // the table consistent either way (supports are exact, so the values
    // agree).
    shard.keys.push_back(s);
    shard.values.push_back(support);
    shard.index.InsertOrAssign(static_cast<uint32_t>(shard.keys.size() - 1),
                               KeyAt{&shard});
  }
  return support;
}

SubsetSupportCache::Stats SubsetSupportCache::stats() const {
  Stats out;
  out.shards.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    ShardStats row;
    row.hits = shard.hits.load(std::memory_order_relaxed);
    row.misses = shard.misses.load(std::memory_order_relaxed);
    row.fallbacks = shard.fallbacks.load(std::memory_order_relaxed);
    out.hits += row.hits;
    out.misses += row.misses;
    out.fallbacks += row.fallbacks;
    out.shards.push_back(row);
  }
  // The contract the stress test leans on: totals come from the same
  // gather as the per-shard rows, so they match even under concurrent
  // probes. Guard the derivation against a future second-read refactor.
  uint64_t check_hits = 0;
  uint64_t check_misses = 0;
  uint64_t check_fallbacks = 0;
  for (const ShardStats& row : out.shards) {
    check_hits += row.hits;
    check_misses += row.misses;
    check_fallbacks += row.fallbacks;
  }
  assert(check_hits == out.hits && check_misses == out.misses &&
         check_fallbacks == out.fallbacks);
  (void)check_hits;
  (void)check_misses;
  (void)check_fallbacks;
  return out;
}

}  // namespace maras::mining
