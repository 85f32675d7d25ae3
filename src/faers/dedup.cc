#include "faers/dedup.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace maras::faers {

namespace {

// Reports between two polls of the run context.
constexpr size_t kPollInterval = 4096;

// Age band boundaries match core/stratified.h (kept dependency-free here).
int AgeBand(double age) {
  if (age < 0) return 0;
  if (age < 18) return 1;
  if (age < 65) return 2;
  return 3;
}

// Writes the canonical fingerprint of a report's clinical content into
// `key`: its sorted, de-duplicated drug names, then reaction names, then
// sex and age band. `names` is scratch space reused across reports.
void Fingerprint(const Report& report, std::vector<std::string_view>* names,
                 std::string* key) {
  key->clear();
  for (const std::vector<std::string>* list :
       {&report.drugs, &report.reactions}) {
    names->assign(list->begin(), list->end());
    std::sort(names->begin(), names->end());
    names->erase(std::unique(names->begin(), names->end()), names->end());
    for (std::string_view name : *names) {
      key->append(name);
      key->push_back('\x1f');
    }
    key->push_back('\x1e');
  }
  key->append(SexCode(report.sex));
  key->push_back(static_cast<char>('0' + AgeBand(report.age)));
}

// The one fingerprint pass behind FindDuplicateCases and MarkDuplicateCases.
maras::Status ScanDuplicates(const QuarterDataset& dataset,
                             const maras::RunContext& ctx,
                             std::vector<DuplicateCluster>* clusters,
                             DedupStats* stats) {
  const size_t n = dataset.reports.size();
  constexpr size_t kNoBucket = static_cast<size_t>(-1);
  // Fingerprint -> bucket id, ids in order of each bucket's first report.
  std::unordered_map<std::string, size_t> bucket_ids;
  std::vector<size_t> bucket_of(n, kNoBucket);
  std::vector<size_t> bucket_sizes;
  std::vector<std::string_view> names;
  std::string key;
  for (size_t i = 0; i < n; ++i) {
    if (i % kPollInterval == 0) {
      MARAS_RETURN_IF_ERROR(maras::WithContext(ctx.Check(), "dedup"));
    }
    const Report& report = dataset.reports[i];
    if (report.drugs.empty() || report.reactions.empty()) continue;
    Fingerprint(report, &names, &key);
    auto it = bucket_ids.find(key);
    if (it == bucket_ids.end()) {
      it = bucket_ids.emplace(key, bucket_sizes.size()).first;
      bucket_sizes.push_back(0);
    }
    bucket_of[i] = it->second;
    ++bucket_sizes[it->second];
  }
  // Members of each bucket, in dataset order, laid out bucket by bucket.
  std::vector<size_t> starts(bucket_sizes.size() + 1, 0);
  for (size_t b = 0; b < bucket_sizes.size(); ++b) {
    starts[b + 1] = starts[b] + bucket_sizes[b];
  }
  std::vector<size_t> members(starts.back());
  std::vector<size_t> fill(starts.begin(), starts.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    if (bucket_of[i] != kNoBucket) members[fill[bucket_of[i]]++] = i;
  }

  DedupStats local;
  local.reports_checked = n;
  for (size_t b = 0; b < bucket_sizes.size(); ++b) {
    const auto first = members.begin() + static_cast<std::ptrdiff_t>(starts[b]);
    const auto last =
        members.begin() + static_cast<std::ptrdiff_t>(starts[b + 1]);
    // Distinct case ids required: versioned resubmissions are handled by
    // the preprocessor, not flagged here.
    const uint64_t case_id = dataset.reports[*first].case_id;
    if (std::all_of(first, last, [&](size_t i) {
          return dataset.reports[i].case_id == case_id;
        })) {
      continue;
    }
    DuplicateCluster cluster;
    for (auto i = first; i != last; ++i) {
      cluster.primary_ids.push_back(dataset.reports[*i].primary_id());
    }
    local.redundant_reports += cluster.primary_ids.size() - 1;
    clusters->push_back(std::move(cluster));
  }
  local.clusters = clusters->size();
  if (stats != nullptr) *stats = local;
  return maras::Status::OK();
}

}  // namespace

std::vector<DuplicateCluster> FindDuplicateCases(const QuarterDataset& dataset,
                                                 DedupStats* stats) {
  std::vector<DuplicateCluster> clusters;
  // Ungoverned, so the scan cannot fail.
  MARAS_IGNORE_STATUS(
      ScanDuplicates(dataset, maras::RunContext{}, &clusters, stats));
  return clusters;
}

maras::StatusOr<std::vector<bool>> MarkDuplicateCases(
    const QuarterDataset& dataset, const IngestOptions& options,
    IngestReport* report, const maras::RunContext& ctx, DedupStats* stats) {
  std::vector<DuplicateCluster> clusters;
  DedupStats local;
  MARAS_RETURN_IF_ERROR(ScanDuplicates(dataset, ctx, &clusters, &local));
  std::vector<bool> skip(dataset.reports.size(), false);
  if (!clusters.empty()) {
    // Removal goes by primaryid: every report carrying a removed member's
    // primaryid is skipped.
    std::unordered_set<uint64_t> drop;
    for (const DuplicateCluster& cluster : clusters) {
      drop.insert(cluster.primary_ids.begin() + 1, cluster.primary_ids.end());
    }
    for (size_t i = 0; i < dataset.reports.size(); ++i) {
      skip[i] = drop.count(dataset.reports[i].primary_id()) > 0;
    }
  }
  if (report != nullptr && local.redundant_reports > 0) {
    report->warnings.push_back(
        dataset.Label() + ": removed " +
        std::to_string(local.redundant_reports) +
        " suspected duplicate reports in " + std::to_string(local.clusters) +
        " clusters");
    if (options.policy == IngestPolicy::kQuarantine) {
      for (const DuplicateCluster& cluster : clusters) {
        for (size_t i = 1; i < cluster.primary_ids.size(); ++i) {
          report->warnings.push_back(
              dataset.Label() + ": primaryid " +
              std::to_string(cluster.primary_ids[i]) +
              " removed as duplicate of primaryid " +
              std::to_string(cluster.primary_ids[0]));
        }
      }
    }
  }
  if (stats != nullptr) *stats = local;
  return skip;
}

}  // namespace maras::faers
