#include "faers/dedup.h"

#include <gtest/gtest.h>

namespace maras::faers {
namespace {

Report MakeReport(uint64_t case_id, std::vector<std::string> drugs,
                  std::vector<std::string> reactions,
                  Sex sex = Sex::kFemale, double age = 60) {
  Report r;
  r.case_id = case_id;
  r.case_version = 1;
  r.sex = sex;
  r.age = age;
  r.drugs = std::move(drugs);
  r.reactions = std::move(reactions);
  return r;
}

TEST(DedupTest, NoDuplicatesInDistinctReports) {
  QuarterDataset dataset;
  dataset.reports = {
      MakeReport(1, {"ASPIRIN"}, {"NAUSEA"}),
      MakeReport(2, {"WARFARIN"}, {"NAUSEA"}),
      MakeReport(3, {"ASPIRIN"}, {"RASH"}),
  };
  DedupStats stats;
  auto clusters = FindDuplicateCases(dataset, &stats);
  EXPECT_TRUE(clusters.empty());
  EXPECT_EQ(stats.redundant_reports, 0u);
}

TEST(DedupTest, SameEventDifferentReporters) {
  // Patient (case 1) and manufacturer (case 2) report the same event.
  QuarterDataset dataset;
  dataset.reports = {
      MakeReport(1, {"ASPIRIN", "WARFARIN"}, {"HAEMORRHAGE"}),
      MakeReport(2, {"WARFARIN", "ASPIRIN"}, {"HAEMORRHAGE"}),  // reordered
      MakeReport(3, {"NEXIUM"}, {"NAUSEA"}),
  };
  DedupStats stats;
  auto clusters = FindDuplicateCases(dataset, &stats);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].primary_ids,
            (std::vector<uint64_t>{101, 201}));
  EXPECT_EQ(stats.clusters, 1u);
  EXPECT_EQ(stats.redundant_reports, 1u);
}

TEST(DedupTest, DifferentDemographicsDoNotMatch) {
  QuarterDataset dataset;
  dataset.reports = {
      MakeReport(1, {"ASPIRIN"}, {"NAUSEA"}, Sex::kFemale, 70),
      MakeReport(2, {"ASPIRIN"}, {"NAUSEA"}, Sex::kMale, 70),
      MakeReport(3, {"ASPIRIN"}, {"NAUSEA"}, Sex::kFemale, 30),
  };
  EXPECT_TRUE(FindDuplicateCases(dataset).empty());
}

TEST(DedupTest, SameAgeBandMatches) {
  // 66 and 80 fall in the same band; exact ages differ across reporters.
  QuarterDataset dataset;
  dataset.reports = {
      MakeReport(1, {"ASPIRIN"}, {"NAUSEA"}, Sex::kFemale, 66),
      MakeReport(2, {"ASPIRIN"}, {"NAUSEA"}, Sex::kFemale, 80),
  };
  EXPECT_EQ(FindDuplicateCases(dataset).size(), 1u);
}

TEST(DedupTest, VersionedResubmissionNotFlagged) {
  // Same case id twice (v1 + v2) is versioning, not duplication.
  Report v1 = MakeReport(7, {"ASPIRIN"}, {"NAUSEA"});
  Report v2 = v1;
  v2.case_version = 2;
  QuarterDataset dataset;
  dataset.reports = {v1, v2};
  EXPECT_TRUE(FindDuplicateCases(dataset).empty());
}

TEST(DedupTest, EmptyContentNeverMatches) {
  QuarterDataset dataset;
  dataset.reports = {
      MakeReport(1, {}, {"NAUSEA"}),
      MakeReport(2, {}, {"NAUSEA"}),
      MakeReport(3, {"ASPIRIN"}, {}),
      MakeReport(4, {"ASPIRIN"}, {}),
  };
  EXPECT_TRUE(FindDuplicateCases(dataset).empty());
}

TEST(DedupTest, RemoveKeepsFirstOfEachCluster) {
  QuarterDataset dataset;
  dataset.quarter = 2;
  dataset.reports = {
      MakeReport(1, {"ASPIRIN", "WARFARIN"}, {"HAEMORRHAGE"}),
      MakeReport(2, {"ASPIRIN", "WARFARIN"}, {"HAEMORRHAGE"}),
      MakeReport(3, {"ASPIRIN", "WARFARIN"}, {"HAEMORRHAGE"}),
      MakeReport(4, {"NEXIUM"}, {"NAUSEA"}),
  };
  DedupStats stats;
  auto skip = MarkDuplicateCases(dataset, IngestOptions{}, nullptr,
                                 RunContext{}, &stats);
  ASSERT_TRUE(skip.ok());
  EXPECT_EQ(stats.redundant_reports, 2u);
  EXPECT_EQ(*skip, (std::vector<bool>{false, true, true, false}));
}

TEST(DedupTest, CancelledRunStopsTheScan) {
  QuarterDataset dataset;
  dataset.reports = {MakeReport(1, {"A"}, {"X"}), MakeReport(2, {"A"}, {"X"})};
  CancellationToken cancel;
  cancel.Cancel();
  RunContext ctx;
  ctx.cancel = &cancel;
  IngestReport report;
  auto skip = MarkDuplicateCases(dataset, IngestOptions{}, &report, ctx);
  ASSERT_TRUE(skip.status().IsCancelled());
  EXPECT_NE(skip.status().message().find("dedup"), std::string::npos);
  EXPECT_TRUE(report.warnings.empty());
}

TEST(DedupTest, TripleReporterCluster) {
  QuarterDataset dataset;
  dataset.reports = {
      MakeReport(1, {"A"}, {"X"}),
      MakeReport(2, {"A"}, {"X"}),
      MakeReport(3, {"A"}, {"X"}),
  };
  auto clusters = FindDuplicateCases(dataset);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].primary_ids.size(), 3u);
}

}  // namespace
}  // namespace maras::faers
