#include "core/multi_quarter.h"

#include <optional>

#include "core/analysis_stages.h"
#include "core/checkpoint.h"
#include "faers/ascii_format.h"
#include "faers/dedup.h"
#include "mining/measures.h"
#include "util/run_context.h"
#include "util/thread_pool.h"

namespace maras::core {

maras::StatusOr<faers::PreprocessResult> MergeQuarters(
    const std::vector<const faers::PreprocessResult*>& quarters) {
  if (quarters.empty()) {
    return maras::Status::InvalidArgument("no quarters to merge");
  }
  faers::PreprocessResult merged;
  for (const faers::PreprocessResult* quarter : quarters) {
    // Old-id -> new-id mapping for this quarter's vocabulary.
    std::vector<mining::ItemId> remap(quarter->items.size());
    for (size_t old_id = 0; old_id < quarter->items.size(); ++old_id) {
      auto id = static_cast<mining::ItemId>(old_id);
      MARAS_ASSIGN_OR_RETURN(
          remap[old_id],
          merged.items.Intern(quarter->items.Name(id),
                              quarter->items.Domain(id)));
    }
    for (size_t t = 0; t < quarter->transactions.size(); ++t) {
      mining::Itemset transaction;
      transaction.reserve(quarter->transactions.transaction(
                                  static_cast<mining::TransactionId>(t))
                              .size());
      for (mining::ItemId old_id : quarter->transactions.transaction(
               static_cast<mining::TransactionId>(t))) {
        transaction.push_back(remap[old_id]);
      }
      merged.transactions.Add(std::move(transaction));
      merged.primary_ids.push_back(quarter->primary_ids[t]);
      merged.demographics.push_back(t < quarter->demographics.size()
                                        ? quarter->demographics[t]
                                        : faers::CaseDemographics{});
    }
    // Aggregate statistics.
    merged.stats.reports_in += quarter->stats.reports_in;
    merged.stats.reports_kept += quarter->stats.reports_kept;
    merged.stats.dropped_not_expedited +=
        quarter->stats.dropped_not_expedited;
    merged.stats.dropped_stale_version +=
        quarter->stats.dropped_stale_version;
    merged.stats.dropped_empty += quarter->stats.dropped_empty;
    merged.stats.drug_mentions += quarter->stats.drug_mentions;
    merged.stats.adr_mentions += quarter->stats.adr_mentions;
    merged.stats.fuzzy_corrections += quarter->stats.fuzzy_corrections;
    merged.stats.alias_resolutions += quarter->stats.alias_resolutions;
  }
  merged.stats.distinct_drugs =
      merged.items.CountInDomain(mining::ItemDomain::kDrug);
  merged.stats.distinct_adrs =
      merged.items.CountInDomain(mining::ItemDomain::kAdr);
  return merged;
}

std::vector<QuarterlySignalTrend> TrackSignal(
    const std::vector<const faers::PreprocessResult*>& quarters,
    const std::vector<std::string>& quarter_labels,
    const std::vector<std::string>& drug_names,
    const std::vector<std::string>& adr_names) {
  std::vector<QuarterlySignalTrend> trend;
  for (size_t q = 0; q < quarters.size(); ++q) {
    QuarterlySignalTrend row;
    row.label = q < quarter_labels.size() ? quarter_labels[q]
                                          : std::to_string(q + 1);
    const faers::PreprocessResult& quarter = *quarters[q];
    mining::Itemset drugs, adrs;
    bool resolvable = true;
    for (const std::string& name : drug_names) {
      auto id = quarter.items.Lookup(name);
      if (!id.ok()) {
        resolvable = false;
        break;
      }
      drugs.push_back(*id);
    }
    for (const std::string& name : adr_names) {
      if (!resolvable) break;
      auto id = quarter.items.Lookup(name);
      if (!id.ok()) {
        resolvable = false;
        break;
      }
      adrs.push_back(*id);
    }
    if (resolvable) {
      drugs = mining::MakeItemset(std::move(drugs));
      adrs = mining::MakeItemset(std::move(adrs));
      row.combination_reports = quarter.transactions.Support(drugs);
      row.reports =
          quarter.transactions.Support(mining::Union(drugs, adrs));
      row.confidence =
          mining::Confidence(row.reports, row.combination_reports);
    }
    trend.push_back(std::move(row));
  }
  return trend;
}

const char* TrendVerdictName(TrendVerdict verdict) {
  switch (verdict) {
    case TrendVerdict::kEmerging:
      return "emerging";
    case TrendVerdict::kStable:
      return "stable";
    case TrendVerdict::kFading:
      return "fading";
    case TrendVerdict::kInsufficient:
      return "insufficient";
  }
  return "?";
}

maras::StatusOr<MultiQuarterRun> ReduceQuarters(
    std::vector<QuarterCheckpoint> slots, faers::IngestPolicy policy,
    const std::function<maras::Status(size_t, const QuarterCheckpoint&)>&
        on_quarter) {
  MultiQuarterRun run;
  for (size_t i = 0; i < slots.size(); ++i) {
    QuarterOutcome& outcome = slots[i].outcome;
    if (!outcome.loaded) {
      if (policy == faers::IngestPolicy::kStrict) {
        return maras::WithContext(outcome.status, "quarter " + outcome.label);
      }
      run.ingest.warnings.push_back("skipping quarter " + outcome.label +
                                    ": " + outcome.status.ToString());
    }
    if (on_quarter) MARAS_RETURN_IF_ERROR(on_quarter(i, slots[i]));
    if (outcome.loaded) ++run.quarters_loaded;
    run.ingest.Merge(outcome.ingest);
    run.outcomes.push_back(std::move(outcome));
  }
  if (run.quarters_loaded == 0) {
    return maras::Status::Corruption("all " + std::to_string(slots.size()) +
                                     " quarters failed ingestion");
  }
  std::vector<const faers::PreprocessResult*> loaded;
  for (const QuarterCheckpoint& slot : slots) {
    if (slot.result.has_value()) loaded.push_back(&*slot.result);
  }
  MARAS_ASSIGN_OR_RETURN(run.merged, MergeQuarters(loaded));
  return run;
}

maras::Status MultiQuarterPipeline::ProcessQuarter(
    const faers::QuarterDataset& dataset, QuarterCheckpoint* slot) const {
  QuarterOutcome& outcome = slot->outcome;
  outcome.label = dataset.Label();
  const maras::RunContext ungoverned;
  const maras::RunContext& ctx =
      options_.context != nullptr ? *options_.context : ungoverned;
  auto process = [&]() -> maras::StatusOr<faers::PreprocessResult> {
    if (options_.validate) {
      faers::ValidationReport validation =
          faers::ValidateDataset(dataset, options_.validation);
      MARAS_RETURN_IF_ERROR(faers::EnforceValidation(
          validation, options_.ingest, &outcome.ingest));
    }
    std::vector<bool> duplicates;
    if (options_.remove_duplicates) {
      MARAS_ASSIGN_OR_RETURN(
          duplicates, faers::MarkDuplicateCases(dataset, options_.ingest,
                                                &outcome.ingest, ctx));
    }
    return faers::Preprocessor(options_.preprocess)
        .Process(dataset, &outcome.ingest, duplicates, ctx);
  };
  maras::StatusOr<faers::PreprocessResult> result = process();
  const maras::Status& status = result.status();
  // A governance stop is the run's, not the quarter's: it is never recorded
  // (or checkpointed) as a skippable quarter failure.
  if (status.IsCancelled() || status.IsDeadlineExceeded() ||
      status.IsResourceExhausted()) {
    return maras::WithContext(status, "quarter " + outcome.label);
  }
  outcome.loaded = result.ok();
  if (result.ok()) {
    slot->result = *std::move(result);
  } else {
    outcome.status = result.status();
  }
  return maras::Status::OK();
}

namespace {

// Quarter fan-out: `load(i, &slots[i])` runs as one pool task per quarter,
// each writing only its own slot, so the in-order reduce afterwards matches
// the serial run. The run context is polled before each quarter is handed
// out, and inside each quarter's dedup and preprocessing, so a governance
// trip stops the remaining ones; its Status (from `load`) fails the run.
template <typename LoadFn>
maras::Status LoadQuarters(const MultiQuarterOptions& options,
                           std::vector<QuarterCheckpoint>* slots,
                           LoadFn&& load) {
  const maras::RunContext ungoverned;
  const maras::RunContext& ctx =
      options.context != nullptr ? *options.context : ungoverned;
  return maras::WithContext(
      maras::TryParallelFor(options.num_threads, slots->size(), ctx,
                            [&](size_t i) -> maras::Status {
                              return load(i, &(*slots)[i]);
                            }),
      "multi-quarter ingest");
}

}  // namespace

maras::StatusOr<MultiQuarterRun> MultiQuarterPipeline::RunFromDirs(
    const std::vector<QuarterSource>& sources) const {
  if (sources.empty()) {
    return maras::Status::InvalidArgument("no quarters to ingest");
  }
  std::vector<QuarterCheckpoint> slots(sources.size());
  MARAS_RETURN_IF_ERROR(LoadQuarters(
      options_, &slots,
      [&](size_t i, QuarterCheckpoint* slot) -> maras::Status {
        const QuarterSource& source = sources[i];
        maras::StatusOr<faers::QuarterDataset> dataset =
            faers::ReadAsciiQuarterFromDir(source.directory, source.year,
                                           source.quarter, options_.ingest,
                                           &slot->outcome.ingest);
        if (dataset.ok()) return ProcessQuarter(*dataset, slot);
        slot->outcome.label = source.Label();
        slot->outcome.status = dataset.status();
        return maras::Status::OK();
      }));
  return ReduceQuarters(std::move(slots), options_.ingest.policy);
}

maras::StatusOr<MultiQuarterRun> MultiQuarterPipeline::Run(
    const std::vector<faers::QuarterDataset>& quarters) const {
  if (quarters.empty()) {
    return maras::Status::InvalidArgument("no quarters to ingest");
  }
  std::vector<QuarterCheckpoint> slots(quarters.size());
  MARAS_RETURN_IF_ERROR(
      LoadQuarters(options_, &slots, [&](size_t i, QuarterCheckpoint* slot) {
        return ProcessQuarter(quarters[i], slot);
      }));
  return ReduceQuarters(std::move(slots), options_.ingest.policy);
}

maras::StatusOr<SurveillanceAnalysis> MultiQuarterPipeline::RunAnalyzed(
    const std::vector<faers::QuarterDataset>& quarters,
    const AnalyzerOptions& analyzer, RankingMethod method) const {
  if (quarters.empty()) {
    return maras::Status::InvalidArgument("no quarters to ingest");
  }
  SurveillanceAnalysis out;

  // --- Stage 1: per-quarter ingest + preprocess, one snapshot each -------
  const size_t n = quarters.size();
  std::vector<QuarterCheckpoint> slots(n);
  std::vector<char> from_disk(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const std::string label = quarters[i].Label();
    from_disk[i] = TryResumeStage(
        options_, "quarter-" + label,
        [&](const std::string& payload) -> maras::Status {
          MARAS_ASSIGN_OR_RETURN(QuarterCheckpoint decoded,
                                 DecodeQuarterCheckpoint(payload));
          if (decoded.outcome.label != label) {
            return maras::Status::Corruption("snapshot is for quarter '" +
                                             decoded.outcome.label + "'");
          }
          slots[i] = std::move(decoded);
          return maras::Status::OK();
        },
        &out.notes);
    if (from_disk[i]) ++out.stages_resumed;
  }
  MARAS_RETURN_IF_ERROR(
      LoadQuarters(options_, &slots, [&](size_t i, QuarterCheckpoint* slot) {
        if (from_disk[i]) return maras::Status::OK();
        return ProcessQuarter(quarters[i], slot);
      }));
  // The reduce snapshots each computed quarter in input order, so the
  // checkpoint writes and crash hooks follow the serial run. The merge is
  // cheap and purely derived from the per-quarter snapshots, so it is
  // recomputed rather than checkpointed.
  MARAS_ASSIGN_OR_RETURN(
      out.run,
      ReduceQuarters(std::move(slots), options_.ingest.policy,
                     [&](size_t i, const QuarterCheckpoint& slot) {
                       if (from_disk[i]) return maras::Status::OK();
                       return CommitStage(
                           options_, "quarter-" + slot.outcome.label,
                           [&] { return EncodeQuarterCheckpoint(slot); });
                     }));

  // --- Stages 2-4: closed, rules, lattice + ranked -----------------------
  return RunAnalysisTail(
      std::move(out), options_, analyzer, method,
      [&](const mining::TransactionDatabase& db) {
        mining::MiningOptions mining_options = analyzer.mining;
        mining_options.context = options_.context;
        return MineWithDegradation(db, mining_options, analyzer.degradation);
      });
}

TrendVerdict ClassifyTrend(const std::vector<QuarterlySignalTrend>& trend,
                           double margin) {
  const QuarterlySignalTrend* first = nullptr;
  const QuarterlySignalTrend* last = nullptr;
  for (const auto& row : trend) {
    if (row.combination_reports == 0) continue;
    if (first == nullptr) first = &row;
    last = &row;
  }
  if (first == nullptr || first == last) {
    return TrendVerdict::kInsufficient;
  }
  double delta = last->confidence - first->confidence;
  if (delta > margin) return TrendVerdict::kEmerging;
  if (delta < -margin) return TrendVerdict::kFading;
  return TrendVerdict::kStable;
}

}  // namespace maras::core
