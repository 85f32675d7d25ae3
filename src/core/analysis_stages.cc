#include "core/analysis_stages.h"

#include <optional>
#include <string_view>
#include <utility>

#include "mining/closed_itemsets.h"
#include "mining/concept_lattice.h"
#include "mining/rules.h"
#include "util/run_context.h"
#include "util/thread_pool.h"

namespace maras::core {

namespace {

// Counts drug/ADR items of `itemset` under the merged vocabulary.
void CountItemDomains(const mining::Itemset& itemset,
                      const mining::ItemDictionary& items, size_t* drugs,
                      size_t* adrs) {
  *drugs = 0;
  *adrs = 0;
  for (mining::ItemId id : itemset) {
    if (items.Domain(id) == mining::ItemDomain::kDrug) {
      ++*drugs;
    } else {
      ++*adrs;
    }
  }
}

// One checkpointed stage of the tail: replayed when resuming, otherwise
// computed into `*value` and committed.
template <typename T, typename ComputeFn>
maras::Status RunStage(const MultiQuarterOptions& options,
                       const RunContext& ctx, const std::string& stage,
                       maras::StatusOr<T> (*decode)(std::string_view),
                       std::string (*encode)(const T&), ComputeFn&& compute,
                       T* value, SurveillanceAnalysis* out) {
  MARAS_RETURN_IF_ERROR(ctx.Check());
  const bool resumed = TryResumeStage(
      options, stage,
      [&](const std::string& payload) -> maras::Status {
        MARAS_ASSIGN_OR_RETURN(*value, decode(payload));
        return maras::Status::OK();
      },
      &out->notes);
  if (resumed) {
    ++out->stages_resumed;
    return maras::Status::OK();
  }
  MARAS_ASSIGN_OR_RETURN(*value, compute());
  return CommitStage(options, stage, [&] { return encode(*value); });
}

}  // namespace

maras::StatusOr<ClosedCheckpoint> BuildClosedStage(
    GovernedMineResult mined, const mining::ItemDictionary& items,
    const AnalyzerOptions& analyzer, const RunContext& ctx) {
  ClosedCheckpoint closed_stage;
  closed_stage.min_support_used = mined.min_support_used;
  closed_stage.truncated = mined.truncated;
  closed_stage.notes = std::move(mined.notes);
  MARAS_ASSIGN_OR_RETURN(
      mining::RuleSpaceCount rule_count,
      mining::CountAllPartitionRules(mined.frequent, analyzer.min_confidence,
                                     ctx));
  closed_stage.stats.total_rules = rule_count.total_rules;
  for (const mining::FrequentItemset& fi : mined.frequent.itemsets()) {
    size_t drugs = 0, adrs = 0;
    CountItemDomains(fi.items, items, &drugs, &adrs);
    if (drugs >= 1 && adrs >= 1) ++closed_stage.stats.filtered_rules;
  }
  MARAS_ASSIGN_OR_RETURN(
      closed_stage.closed,
      mining::FilterClosed(mined.frequent, analyzer.mining.num_threads, ctx));
  for (const mining::FrequentItemset& fi : closed_stage.closed.itemsets()) {
    size_t drugs = 0, adrs = 0;
    CountItemDomains(fi.items, items, &drugs, &adrs);
    if (drugs >= 1 && adrs >= 1) ++closed_stage.stats.closed_mixed;
  }
  return closed_stage;
}

maras::StatusOr<std::vector<DrugAdrRule>> BuildRulesStage(
    const mining::FrequentItemsetResult& closed,
    const mining::ItemDictionary& items,
    const mining::TransactionDatabase& db, const AnalyzerOptions& analyzer,
    const RunContext& ctx) {
  std::vector<const mining::FrequentItemset*> candidates;
  for (const mining::FrequentItemset& fi : closed.itemsets()) {
    size_t drugs = 0, adrs = 0;
    CountItemDomains(fi.items, items, &drugs, &adrs);
    if (drugs < 2 || adrs < 1) continue;
    if (drugs > analyzer.max_drugs_per_rule) continue;
    candidates.push_back(&fi);
  }
  std::vector<std::optional<DrugAdrRule>> built(candidates.size());
  std::vector<maras::Status> errors(candidates.size());
  maras::Status status = maras::TryParallelFor(
      analyzer.mining.num_threads, candidates.size(), ctx,
      [&](size_t i, size_t) -> maras::Status {
        const mining::FrequentItemset& fi = *candidates[i];
        if (analyzer.verify_closed_in_db &&
            !mining::IsClosedInDatabase(db, fi.items)) {
          return maras::Status::OK();
        }
        maras::StatusOr<DrugAdrRule> target = BuildRule(fi.items, items, db);
        if (!target.ok()) {
          errors[i] = target.status();
          return maras::Status::OK();
        }
        if (target->confidence >= analyzer.min_confidence) {
          built[i] = *std::move(target);
        }
        return maras::Status::OK();
      });
  if (!status.ok()) return maras::WithContext(status, "rule-gen");
  std::vector<DrugAdrRule> rules;
  for (size_t i = 0; i < built.size(); ++i) {
    MARAS_RETURN_IF_ERROR(errors[i]);
    if (built[i].has_value()) rules.push_back(*std::move(built[i]));
  }
  return rules;
}

bool LatticeMcacEligible(const AnalyzerOptions& analyzer) {
  // Exactness gate (concept_lattice.h): every closed node below a
  // database-closed target is itself database-closed, so the descent needs
  // either an uncapped family or database-verified targets.
  return analyzer.mining.max_itemset_size == 0 || analyzer.verify_closed_in_db;
}

maras::StatusOr<mining::ConceptLattice> BuildLatticeStage(
    const mining::FrequentItemsetResult& closed,
    const AnalyzerOptions& analyzer, const RunContext& ctx) {
  MARAS_ASSIGN_OR_RETURN(
      mining::ConceptLattice lattice,
      mining::ConceptLattice::Build(closed, analyzer.mining.num_threads, ctx));
  return lattice;
}

maras::StatusOr<std::vector<Mcac>> BuildMcacsStage(
    const std::vector<DrugAdrRule>& rules,
    const mining::ItemDictionary& items,
    const mining::TransactionDatabase& db, const AnalyzerOptions& analyzer,
    const RunContext& ctx, const mining::ConceptLattice* lattice) {
  mining::SubsetSupportCache cache(&db);
  McacBuilder builder = lattice != nullptr
                            ? McacBuilder(&items, &db, lattice, &cache)
                            : McacBuilder(&items, &db);
  std::vector<std::optional<maras::StatusOr<Mcac>>> built(rules.size());
  maras::Status status = maras::TryParallelFor(
      analyzer.mining.num_threads, rules.size(), ctx,
      [&](size_t i, size_t) -> maras::Status {
        built[i].emplace(builder.Build(rules[i]));
        return maras::Status::OK();
      });
  if (!status.ok()) return maras::WithContext(status, "mcac-build");
  std::vector<Mcac> mcacs;
  for (std::optional<maras::StatusOr<Mcac>>& slot : built) {
    MARAS_ASSIGN_OR_RETURN(Mcac mcac, std::move(*slot));
    mcacs.push_back(std::move(mcac));
  }
  return mcacs;
}

maras::StatusOr<std::vector<RankedMcac>> BuildRankedStage(
    const std::vector<DrugAdrRule>& rules,
    const mining::ItemDictionary& items,
    const mining::TransactionDatabase& db, RankingMethod method,
    const AnalyzerOptions& analyzer, const RunContext& ctx,
    const mining::ConceptLattice* lattice) {
  MARAS_ASSIGN_OR_RETURN(
      std::vector<Mcac> mcacs,
      BuildMcacsStage(rules, items, db, analyzer, ctx, lattice));
  return RankMcacs(mcacs, method, analyzer.exclusiveness);
}

bool TryResumeStage(
    const MultiQuarterOptions& options, const std::string& stage,
    const std::function<maras::Status(const std::string&)>& decode,
    std::vector<std::string>* notes) {
  if (options.checkpoint_dir.empty() || !options.resume) return false;
  maras::StatusOr<std::string> payload =
      ReadCheckpoint(options.checkpoint_dir, stage);
  if (payload.status().IsNotFound()) return false;  // nothing written yet
  maras::Status rejected =
      payload.ok() ? decode(*payload) : payload.status();
  if (rejected.ok()) return true;
  notes->push_back("checkpoint for stage '" + stage +
                   "' rejected: " + rejected.ToString() + "; recomputing");
  return false;
}

maras::Status CommitStage(const MultiQuarterOptions& options,
                          const std::string& stage,
                          const std::function<std::string()>& encode) {
  if (!options.checkpoint_dir.empty()) {
    MARAS_RETURN_IF_ERROR(
        WriteCheckpoint(options.checkpoint_dir, stage, encode()));
  }
  // Crash-injection point: returning false simulates a process kill right
  // after this stage boundary.
  if (options.stage_hook && !options.stage_hook(stage)) {
    return maras::Status::Cancelled("injected crash at stage " + stage);
  }
  return maras::Status::OK();
}

maras::StatusOr<SurveillanceAnalysis> RunAnalysisTail(
    SurveillanceAnalysis out, const MultiQuarterOptions& options,
    const AnalyzerOptions& analyzer, RankingMethod method,
    const MineStep& mine) {
  const RunContext ungoverned;
  const RunContext& ctx =
      options.context != nullptr ? *options.context : ungoverned;
  const mining::ItemDictionary& items = out.run.merged.items;
  const mining::TransactionDatabase& db = out.run.merged.transactions;

  ClosedCheckpoint closed_stage;
  MARAS_RETURN_IF_ERROR(RunStage(
      options, ctx, "closed", DecodeClosedCheckpoint, EncodeClosedCheckpoint,
      [&]() -> maras::StatusOr<ClosedCheckpoint> {
        MARAS_ASSIGN_OR_RETURN(GovernedMineResult mined, mine(db));
        return BuildClosedStage(std::move(mined), items, analyzer, ctx);
      },
      &closed_stage, &out));

  std::vector<DrugAdrRule> rules;
  MARAS_RETURN_IF_ERROR(RunStage(
      options, ctx, "rules", DecodeRules, EncodeRules,
      [&] {
        return BuildRulesStage(closed_stage.closed, items, db, analyzer, ctx);
      },
      &rules, &out));

  std::vector<RankedMcac> ranked;
  MARAS_RETURN_IF_ERROR(RunStage(
      options, ctx, "ranked", DecodeRankedMcacs, EncodeRankedMcacs,
      [&]() -> maras::StatusOr<std::vector<RankedMcac>> {
        // The lattice is rebuilt (never checkpointed): it is a pure
        // function of the closed family, cheaper to reconstruct than to
        // persist, and a resumed "ranked" stage skips it entirely.
        mining::ConceptLattice lattice;
        const bool use_lattice = LatticeMcacEligible(analyzer);
        if (use_lattice) {
          MARAS_ASSIGN_OR_RETURN(
              lattice, BuildLatticeStage(closed_stage.closed, analyzer, ctx));
        }
        return BuildRankedStage(rules, items, db, method, analyzer, ctx,
                                use_lattice ? &lattice : nullptr);
      },
      &ranked, &out));

  out.closed = std::move(closed_stage.closed);
  out.rules = std::move(rules);
  out.ranked = std::move(ranked);
  out.stats = closed_stage.stats;
  out.stats.mcac_count = out.ranked.size();
  out.min_support_used = static_cast<size_t>(closed_stage.min_support_used);
  out.truncated = closed_stage.truncated;
  out.notes.insert(out.notes.end(), closed_stage.notes.begin(),
                   closed_stage.notes.end());
  return out;
}

}  // namespace maras::core
