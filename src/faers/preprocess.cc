#include "faers/preprocess.h"

#include <algorithm>
#include <string_view>

#include "faers/vocabulary.h"

namespace maras::faers {

namespace {

// Reports between two polls of the run context.
constexpr size_t kPollInterval = 4096;

}  // namespace

Preprocessor::Preprocessor(PreprocessOptions options)
    : options_(std::move(options)) {
  if (options_.use_curated_vocabulary) {
    for (const std::string& name : CuratedDrugNames()) {
      drug_dictionary_.AddCanonical(name);
    }
    for (const DrugAlias& alias : CuratedDrugAliases()) {
      // Aliases are pre-normalized uppercase; failure means alias ==
      // canonical which the curated table never contains.
      MARAS_IGNORE_STATUS(drug_dictionary_.AddAlias(alias.alias,
                                                    alias.canonical));
    }
  }
}

std::string Preprocessor::CleanDrugName(
    const std::string& raw,
    std::unordered_map<std::string, std::string>* cache,
    PreprocessStats* stats) const {
  std::string normalized = text::NormalizeName(raw, options_.normalizer);
  if (auto it = cache->find(normalized); it != cache->end()) {
    return it->second;
  }
  std::string resolved = normalized;
  text::Dictionary::Match match =
      drug_dictionary_.Resolve(normalized, options_.max_edit_distance);
  switch (match.kind) {
    case text::Dictionary::MatchKind::kExact:
      resolved = match.canonical;
      break;
    case text::Dictionary::MatchKind::kAlias:
      resolved = match.canonical;
      ++stats->alias_resolutions;
      break;
    case text::Dictionary::MatchKind::kFuzzy:
      resolved = match.canonical;
      ++stats->fuzzy_corrections;
      break;
    case text::Dictionary::MatchKind::kNone:
      break;  // keep the normalized verbatim name as its own vocabulary entry
  }
  (*cache)[normalized] = resolved;
  return resolved;
}

maras::StatusOr<PreprocessResult> Preprocessor::Process(
    const QuarterDataset& dataset) const {
  return Process(dataset, nullptr, {}, maras::RunContext{});
}

maras::StatusOr<PreprocessResult> Preprocessor::Process(
    const QuarterDataset& dataset, IngestReport* report) const {
  return Process(dataset, report, {}, maras::RunContext{});
}

maras::StatusOr<PreprocessResult> Preprocessor::Process(
    const QuarterDataset& dataset, IngestReport* ingest,
    const std::vector<bool>& skip, const maras::RunContext& ctx) const {
  auto kept = [&](size_t i) { return skip.empty() || !skip[i]; };
  PreprocessResult result;
  for (size_t i = 0; i < dataset.reports.size(); ++i) {
    result.stats.reports_in += kept(i);
  }

  // Pass 1: select report versions. For each case id, remember the highest
  // version among reports passing the EXP filter.
  std::unordered_map<uint64_t, uint32_t> latest_version;
  if (options_.keep_latest_case_version) {
    for (size_t i = 0; i < dataset.reports.size(); ++i) {
      const Report& report = dataset.reports[i];
      if (!kept(i)) continue;
      if (options_.expedited_only && report.type != ReportType::kExpedited) {
        continue;
      }
      auto [it, inserted] =
          latest_version.emplace(report.case_id, report.case_version);
      if (!inserted && report.case_version > it->second) {
        it->second = report.case_version;
      }
    }
  }

  // FAERS names are Zipf-repeated, so each distinct raw name is cleaned and
  // interned once: raw name -> item id, one memo per domain (kNoItem when
  // the name cleans to nothing). Behind it, `cache` memoizes
  // normalized-name -> canonical resolution, so the fuzzy/alias counts stay
  // per distinct normalized name.
  constexpr mining::ItemId kNoItem = static_cast<mining::ItemId>(-1);
  std::unordered_map<std::string_view, mining::ItemId> drug_ids, adr_ids;
  std::unordered_map<std::string, std::string> cache;

  for (size_t i = 0; i < dataset.reports.size(); ++i) {
    if (i % kPollInterval == 0) {
      MARAS_RETURN_IF_ERROR(maras::WithContext(ctx.Check(), "preprocess"));
    }
    if (!kept(i)) continue;
    const Report& report = dataset.reports[i];
    if (options_.expedited_only && report.type != ReportType::kExpedited) {
      ++result.stats.dropped_not_expedited;
      continue;
    }
    if (options_.keep_latest_case_version) {
      auto it = latest_version.find(report.case_id);
      if (it != latest_version.end() && report.case_version < it->second) {
        ++result.stats.dropped_stale_version;
        continue;
      }
    }
    mining::Itemset transaction;
    for (const std::string& raw : report.drugs) {
      auto [memo, first_seen] = drug_ids.try_emplace(raw, kNoItem);
      if (first_seen) {
        std::string name = CleanDrugName(raw, &cache, &result.stats);
        if (!name.empty()) {
          MARAS_ASSIGN_OR_RETURN(
              memo->second,
              result.items.Intern(name, mining::ItemDomain::kDrug));
        }
      }
      if (memo->second == kNoItem) continue;
      transaction.push_back(memo->second);
      ++result.stats.drug_mentions;
    }
    size_t drug_items = transaction.size();
    for (const std::string& raw : report.reactions) {
      auto [memo, first_seen] = adr_ids.try_emplace(raw, kNoItem);
      if (first_seen) {
        std::string name = text::NormalizeName(raw, options_.normalizer);
        if (!name.empty()) {
          MARAS_ASSIGN_OR_RETURN(
              memo->second,
              result.items.Intern(name, mining::ItemDomain::kAdr));
        }
      }
      if (memo->second == kNoItem) continue;
      transaction.push_back(memo->second);
      ++result.stats.adr_mentions;
    }
    if (drug_items == 0 || transaction.size() == drug_items) {
      ++result.stats.dropped_empty;
      continue;
    }
    result.transactions.Add(std::move(transaction));
    result.primary_ids.push_back(report.primary_id());
    result.demographics.push_back(CaseDemographics{report.sex, report.age});
    ++result.stats.reports_kept;
  }

  result.stats.distinct_drugs =
      result.items.CountInDomain(mining::ItemDomain::kDrug);
  result.stats.distinct_adrs =
      result.items.CountInDomain(mining::ItemDomain::kAdr);

  if (ingest != nullptr) {
    const PreprocessStats& stats = result.stats;
    auto note = [&](size_t count, const char* what) {
      if (count == 0) return;
      ingest->warnings.push_back(dataset.Label() + ": " +
                                 std::to_string(count) + " " + what);
    };
    note(stats.dropped_not_expedited, "reports dropped as non-expedited");
    note(stats.dropped_stale_version, "stale case versions dropped");
    note(stats.dropped_empty,
         "reports dropped with no drugs or no reactions after cleaning");
  }
  return result;
}

}  // namespace maras::faers
