#include "core/analyzer.h"

#include <algorithm>

#include "core/analysis_stages.h"
#include "mining/concept_lattice.h"
#include "mining/fpgrowth.h"
#include "util/run_context.h"

namespace maras::core {

size_t EscalatedSupport(size_t min_support,
                        const DegradationOptions& degradation) {
  return std::max(min_support + 1,
                  static_cast<size_t>(static_cast<double>(min_support) *
                                      degradation.support_factor));
}

maras::StatusOr<GovernedMineResult> MineWithDegradation(
    const mining::TransactionDatabase& db, mining::MiningOptions options,
    const DegradationOptions& degradation) {
  GovernedMineResult outcome;
  for (size_t attempt = 0;; ++attempt) {
    mining::FpGrowth miner(options);
    maras::StatusOr<mining::FrequentItemsetResult> mined = miner.Mine(db);
    if (mined.ok()) {
      outcome.frequent = *std::move(mined);
      outcome.min_support_used = options.min_support;
      return outcome;
    }
    if (!degradation.enabled || !mined.status().IsResourceExhausted() ||
        attempt >= degradation.max_retries) {
      return mined.status();
    }
    const size_t escalated =
        EscalatedSupport(options.min_support, degradation);
    outcome.notes.push_back(
        "memory budget exhausted at min_support=" +
        std::to_string(options.min_support) + "; retrying at min_support=" +
        std::to_string(escalated) + " (result will be truncated)");
    options.min_support = escalated;
    outcome.truncated = true;
  }
}

maras::StatusOr<AnalysisResult> MarasAnalyzer::Analyze(
    const faers::PreprocessResult& input) const {
  return Analyze(input.items, input.transactions);
}

maras::StatusOr<AnalysisResult> MarasAnalyzer::Analyze(
    const faers::PreprocessResult& input,
    const faers::IngestReport& ingest) const {
  MARAS_ASSIGN_OR_RETURN(AnalysisResult result,
                         Analyze(input.items, input.transactions));
  if (ingest.rows_rejected > 0) {
    result.ingest_warnings.push_back("ingestion: " + ingest.Summary());
  }
  result.ingest_warnings.insert(result.ingest_warnings.end(),
                                ingest.warnings.begin(),
                                ingest.warnings.end());
  return result;
}

maras::StatusOr<AnalysisResult> MarasAnalyzer::Analyze(
    const mining::ItemDictionary& items,
    const mining::TransactionDatabase& db) const {
  if (db.empty()) {
    return maras::Status::FailedPrecondition("empty transaction database");
  }
  const RunContext ungoverned;
  const RunContext& ctx = options_.mining.context != nullptr
                              ? *options_.mining.context
                              : ungoverned;
  // One quarter of the shared stage sequence: frequent itemsets under the
  // degradation ladder (Section 5.2), rule-space statistics + the closed
  // filter, multi-drug target rules (Lemma 3.4.2), then each target's MCAC.
  MARAS_ASSIGN_OR_RETURN(
      GovernedMineResult mined,
      MineWithDegradation(db, options_.mining, options_.degradation));
  MARAS_ASSIGN_OR_RETURN(
      ClosedCheckpoint closed,
      BuildClosedStage(std::move(mined), items, options_, ctx));
  MARAS_ASSIGN_OR_RETURN(
      std::vector<DrugAdrRule> rules,
      BuildRulesStage(closed.closed, items, db, options_, ctx));
  mining::ConceptLattice lattice;
  const bool use_lattice = LatticeMcacEligible(options_);
  if (use_lattice) {
    MARAS_ASSIGN_OR_RETURN(lattice,
                           BuildLatticeStage(closed.closed, options_, ctx));
  }
  AnalysisResult result;
  MARAS_ASSIGN_OR_RETURN(
      result.mcacs, BuildMcacsStage(rules, items, db, options_, ctx,
                                    use_lattice ? &lattice : nullptr));
  result.stats = closed.stats;
  result.stats.mcac_count = result.mcacs.size();
  result.truncated = closed.truncated;
  result.degradation_notes = std::move(closed.notes);
  return result;
}

std::vector<uint64_t> SupportingReports(
    const mining::TransactionDatabase& db,
    const std::vector<uint64_t>& primary_ids, const DrugAdrRule& rule) {
  std::vector<uint64_t> reports;
  for (mining::TransactionId tid :
       db.ContainingTransactions(rule.CompleteItemset())) {
    if (tid < primary_ids.size()) reports.push_back(primary_ids[tid]);
  }
  return reports;
}

}  // namespace maras::core
