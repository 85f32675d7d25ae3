#ifndef MARAS_CORE_ANALYSIS_STAGES_H_
#define MARAS_CORE_ANALYSIS_STAGES_H_

#include <functional>
#include <string>
#include <vector>

#include "core/checkpoint.h"

namespace maras::core {

// ---------------------------------------------------------------------------
// The analysis stages of the MARAS pipeline (Fig. 1.1) as free functions,
// and the one sequence that runs them. Every execution mode — the
// in-memory MarasAnalyzer, the single-process and resumed-from-checkpoint
// MultiQuarterPipeline, and the multi-process shard supervisor — runs the
// *same* code on its corpus. Byte-identity across modes then holds by
// construction: once the frequent family entering BuildClosedStage is
// equal, every downstream artifact is equal.
//
// Each function is deterministic for fixed inputs at any thread count
// (fan-outs write disjoint slots and reduce in input order) and polls
// `ctx` cooperatively like the rest of the pipeline.
// ---------------------------------------------------------------------------

// Stage 2 tail: turns a completed (possibly degraded) mine into the closed
// stage snapshot — rule-space statistics over the pre-filter family, then
// the closed-set filter. Consumes `mined` (the frequent family is only
// needed transiently).
maras::StatusOr<ClosedCheckpoint> BuildClosedStage(
    GovernedMineResult mined, const mining::ItemDictionary& items,
    const AnalyzerOptions& analyzer, const RunContext& ctx);

// Stage 3: multi-drug target rule generation from the closed family.
maras::StatusOr<std::vector<DrugAdrRule>> BuildRulesStage(
    const mining::FrequentItemsetResult& closed,
    const mining::ItemDictionary& items,
    const mining::TransactionDatabase& db, const AnalyzerOptions& analyzer,
    const RunContext& ctx);

// True when the lattice-backed MCAC path is exact for these options: the
// mine was uncapped (mining.max_itemset_size == 0) or verify_closed_in_db
// guarantees database-closed targets. Callers skip BuildLatticeStage
// entirely when this is false and enumerate subset supports instead.
bool LatticeMcacEligible(const AnalyzerOptions& analyzer);

// Stage 3.5: the concept lattice over the closed family — node arenas plus
// covering edges, built in parallel, a pure function of `closed`.
maras::StatusOr<mining::ConceptLattice> BuildLatticeStage(
    const mining::FrequentItemsetResult& closed,
    const AnalyzerOptions& analyzer, const RunContext& ctx);

// Stage 4: one MCAC per target rule, in rule order (unranked). With a
// non-null `lattice`, subset supports resolve as memoized lattice walks
// (shared SubsetSupportCache across the fan-out); bytes are identical to
// the nullptr enumeration path.
maras::StatusOr<std::vector<Mcac>> BuildMcacsStage(
    const std::vector<DrugAdrRule>& rules,
    const mining::ItemDictionary& items,
    const mining::TransactionDatabase& db, const AnalyzerOptions& analyzer,
    const RunContext& ctx, const mining::ConceptLattice* lattice = nullptr);

// Stage 4 + contextual ranking: RankMcacs over BuildMcacsStage.
maras::StatusOr<std::vector<RankedMcac>> BuildRankedStage(
    const std::vector<DrugAdrRule>& rules,
    const mining::ItemDictionary& items,
    const mining::TransactionDatabase& db, RankingMethod method,
    const AnalyzerOptions& analyzer, const RunContext& ctx,
    const mining::ConceptLattice* lattice = nullptr);

// ---------------------------------------------------------------------------
// Checkpointed execution: every stage of a MultiQuarterOptions run is
// replayed from its snapshot when resuming, or computed, snapshotted and
// reported to the crash-injection hook.
// ---------------------------------------------------------------------------

// Replays `stage` from its checkpoint when `options` resume from a
// checkpoint dir; `decode(payload)` stores the value and returns OK. A
// missing snapshot is silent; a rejected one adds a recompute note, so a
// degraded resume is visible.
bool TryResumeStage(
    const MultiQuarterOptions& options, const std::string& stage,
    const std::function<maras::Status(const std::string&)>& decode,
    std::vector<std::string>* notes);

// Completes a computed stage: snapshots `encode()` when a checkpoint dir is
// set, then fires the stage hook (kCancelled when it injects a crash).
maras::Status CommitStage(const MultiQuarterOptions& options,
                          const std::string& stage,
                          const std::function<std::string()>& encode);

// The mine of the "closed" stage: in-process MineWithDegradation, or the
// shard supervisor's item-range workers merged under the canonical sort.
using MineStep = std::function<maras::StatusOr<GovernedMineResult>(
    const mining::TransactionDatabase&)>;

// The analysis tail of every checkpointed mode, over `out.run.merged`:
// "closed" (`mine` + BuildClosedStage), "rules", then the lattice and
// "ranked" — each one checkpointed stage — and the assembled result.
// `out` carries the pooled run plus the notes and resume count so far.
maras::StatusOr<SurveillanceAnalysis> RunAnalysisTail(
    SurveillanceAnalysis out, const MultiQuarterOptions& options,
    const AnalyzerOptions& analyzer, RankingMethod method,
    const MineStep& mine);

}  // namespace maras::core

#endif  // MARAS_CORE_ANALYSIS_STAGES_H_
