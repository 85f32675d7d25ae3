#ifndef MARAS_FAERS_PREPROCESS_H_
#define MARAS_FAERS_PREPROCESS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "faers/ingest.h"
#include "faers/report.h"
#include "mining/item_dictionary.h"
#include "mining/transaction_db.h"
#include "text/dictionary.h"
#include "text/normalizer.h"
#include "util/run_context.h"
#include "util/statusor.h"

namespace maras::faers {

// The paper's first mining step (Section 5.2): extract drugs and ADRs from
// FAERS reports, merge them per case, clean names (deduplication and
// misspelling correction), and hand the result to the miner.
struct PreprocessOptions {
  // Keep only expedited (EXP) reports — the serious-event subset the paper
  // selects in Section 5.1.
  bool expedited_only = true;
  // When a case was resubmitted, keep only its highest version.
  bool keep_latest_case_version = true;
  text::NormalizerOptions normalizer;
  // Maximum edit distance for dictionary-based misspelling correction;
  // 0 disables fuzzy matching.
  size_t max_edit_distance = 1;
  // Seed the spelling dictionary with the curated drug vocabulary and
  // brand->generic aliases.
  bool use_curated_vocabulary = true;
};

struct PreprocessStats {
  size_t reports_in = 0;
  size_t reports_kept = 0;         // after EXP filter + version dedup
  size_t dropped_not_expedited = 0;
  size_t dropped_stale_version = 0;
  size_t dropped_empty = 0;        // no drugs or no reactions after cleaning
  size_t distinct_drugs = 0;
  size_t distinct_adrs = 0;
  size_t drug_mentions = 0;
  size_t adr_mentions = 0;
  size_t fuzzy_corrections = 0;    // misspellings repaired
  size_t alias_resolutions = 0;    // brand names mapped to canonical
};

// Demographics retained per kept report, for stratified analyses
// (age/sex confounding control) and drill-down.
struct CaseDemographics {
  Sex sex = Sex::kUnknown;
  double age = -1.0;  // years; < 0 unreported
};

// The cleaned, mineable form of a quarter: the interned item vocabulary, one
// transaction per kept report, the report identity for drill-down
// (transaction i came from primary_ids[i]) and its demographics
// (demographics[i]).
struct PreprocessResult {
  mining::ItemDictionary items;
  mining::TransactionDatabase transactions;
  std::vector<uint64_t> primary_ids;
  std::vector<CaseDemographics> demographics;
  PreprocessStats stats;
};

class Preprocessor {
 public:
  explicit Preprocessor(PreprocessOptions options);

  // Processes one quarter into a transaction database.
  maras::StatusOr<PreprocessResult> Process(
      const QuarterDataset& dataset) const;

  // As above, but additionally records drop accounting into `report` (one
  // warning per drop category with a non-zero count), so a degraded
  // surveillance run can surface what the cleaning stage discarded.
  maras::StatusOr<PreprocessResult> Process(const QuarterDataset& dataset,
                                            IngestReport* report) const;

  // As above (drop accounting into `ingest` when non-null), treating every
  // report that `skip` marks (skip[i] for dataset.reports[i]; empty marks
  // none) as absent from the dataset — the dedup mask of MarkDuplicateCases
  // (faers/dedup.h). Polls `ctx` every few thousand reports, so a
  // cancelled, expired or over-budget run stops mid-quarter with its
  // Status.
  maras::StatusOr<PreprocessResult> Process(const QuarterDataset& dataset,
                                            IngestReport* ingest,
                                            const std::vector<bool>& skip,
                                            const maras::RunContext& ctx) const;

  // The spelling dictionary in use (exposed for tests).
  const text::Dictionary& drug_dictionary() const { return drug_dictionary_; }

 private:
  // Normalizes then resolves one drug name; updates stats.
  std::string CleanDrugName(const std::string& raw,
                            std::unordered_map<std::string, std::string>* cache,
                            PreprocessStats* stats) const;

  PreprocessOptions options_;
  text::Dictionary drug_dictionary_;
};

}  // namespace maras::faers

#endif  // MARAS_FAERS_PREPROCESS_H_
