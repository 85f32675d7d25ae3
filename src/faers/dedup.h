#ifndef MARAS_FAERS_DEDUP_H_
#define MARAS_FAERS_DEDUP_H_

#include <cstdint>
#include <vector>

#include "faers/ingest.h"
#include "faers/report.h"
#include "util/run_context.h"
#include "util/statusor.h"

namespace maras::faers {

// ---------------------------------------------------------------------------
// Near-duplicate case detection. Beyond explicit case versions, FAERS
// contains the *same clinical event reported independently* — by the
// patient, the physician, and the manufacturer — under different case ids.
// Duplicates inflate supports and fabricate signal strength, so surveillance
// pipelines flag them before mining. Heuristic here: two reports are
// suspected duplicates when their full drug set, full reaction set, sex and
// age band coincide but their case ids differ (the standard fingerprint
// match used in deduplication literature).
// ---------------------------------------------------------------------------

struct DuplicateCluster {
  // Primary ids of the mutually-matching reports, in dataset order; always
  // at least two entries.
  std::vector<uint64_t> primary_ids;
};

struct DedupStats {
  size_t reports_checked = 0;
  size_t clusters = 0;
  size_t redundant_reports = 0;  // Σ (cluster size − 1)
};

// Finds suspected duplicate clusters, in order of each cluster's first
// report. Reports with no drugs or no reactions never match (their
// fingerprints are too weak to be evidence).
std::vector<DuplicateCluster> FindDuplicateCases(const QuarterDataset& dataset,
                                                 DedupStats* stats = nullptr);

// The redundant duplicates to skip: skip[i] is set for dataset.reports[i]
// when its primaryid is a non-first member of a cluster, so from each
// cluster only the first report (dataset order) survives. Preprocessing
// takes the mask instead of a deduplicated copy (Preprocessor::Process).
// From the same single fingerprint pass, records into `report` one warning
// summarizing the removal and, under kQuarantine, one warning per removed
// report naming its primaryid and the cluster representative it
// duplicated. Polls `ctx` every few thousand reports and stops with its
// Status.
maras::StatusOr<std::vector<bool>> MarkDuplicateCases(
    const QuarterDataset& dataset, const IngestOptions& options,
    IngestReport* report, const maras::RunContext& ctx,
    DedupStats* stats = nullptr);

}  // namespace maras::faers

#endif  // MARAS_FAERS_DEDUP_H_
