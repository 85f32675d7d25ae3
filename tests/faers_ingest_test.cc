// Recovery-policy behavior of the resilient FAERS reader: strict fails
// fast, permissive skips within an error budget, quarantine captures
// per-row diagnostics — plus the policy gates threaded through validation,
// dedup and preprocessing.

#include "faers/ingest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "faers/ascii_format.h"
#include "faers/dedup.h"
#include "faers/preprocess.h"
#include "faers/validate.h"
#include "util/delimited.h"

namespace maras::faers {
namespace {

QuarterDataset SampleDataset() {
  QuarterDataset dataset;
  dataset.year = 2014;
  dataset.quarter = 1;
  for (uint64_t i = 0; i < 4; ++i) {
    Report r;
    r.case_id = 10000001 + i;
    r.case_version = 1;
    r.type = ReportType::kExpedited;
    r.sex = i % 2 == 0 ? Sex::kFemale : Sex::kMale;
    r.age = 40 + static_cast<double>(i);
    r.country = "US";
    r.drugs = {"ASPIRIN", "WARFARIN"};
    r.reactions = {"HAEMORRHAGE", "NAUSEA"};
    dataset.reports.push_back(std::move(r));
  }
  return dataset;
}

AsciiQuarterFiles CleanFiles() {
  auto files = WriteAsciiQuarter(SampleDataset());
  EXPECT_TRUE(files.ok());
  return *files;
}

IngestOptions Permissive() {
  IngestOptions options;
  options.policy = IngestPolicy::kPermissive;
  options.max_bad_row_fraction = 0.5;
  return options;
}

IngestOptions Quarantine() {
  IngestOptions options;
  options.policy = IngestPolicy::kQuarantine;
  options.max_bad_row_fraction = 0.5;
  return options;
}

// Replaces the first occurrence of `from` in `content`.
void Replace(std::string* content, const std::string& from,
             const std::string& to) {
  size_t pos = content->find(from);
  ASSERT_NE(pos, std::string::npos) << from;
  content->replace(pos, from.size(), to);
}

TEST(IngestPolicyTest, StrictIsDefaultAndMatchesLegacyReader) {
  AsciiQuarterFiles files = CleanFiles();
  auto legacy = ReadAsciiQuarter(files, 2014, 1);
  IngestReport report;
  auto strict = ReadAsciiQuarter(files, 2014, 1, IngestOptions{}, &report);
  ASSERT_TRUE(legacy.ok());
  ASSERT_TRUE(strict.ok());
  ASSERT_EQ(strict->reports.size(), legacy->reports.size());
  for (size_t i = 0; i < strict->reports.size(); ++i) {
    EXPECT_EQ(strict->reports[i].drugs, legacy->reports[i].drugs);
    EXPECT_EQ(strict->reports[i].reactions, legacy->reports[i].reactions);
  }
  EXPECT_EQ(report.rows_seen, 4u + 8u + 8u);
  EXPECT_EQ(report.rows_rejected, 0u);
  EXPECT_EQ(report.reports_ingested, 4u);
}

TEST(IngestPolicyTest, StrictGarbageCaseidIsNowCorruption) {
  // Regression for the unchecked strtoull: a garbage caseid used to coerce
  // silently to 0; it must be a diagnosed row-level Corruption.
  AsciiQuarterFiles files = CleanFiles();
  Replace(&files.demo, "$10000002$", "$10OOOOO2$");  // letters O, not zeros
  auto parsed = ReadAsciiQuarter(files, 2014, 1);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption());
  EXPECT_NE(parsed.status().message().find("caseid"), std::string::npos);
  EXPECT_NE(parsed.status().message().find("DEMO14Q1.txt:3"),
            std::string::npos);
}

TEST(IngestPolicyTest, StrictGarbageAgeIsCorruption) {
  AsciiQuarterFiles files = CleanFiles();
  Replace(&files.demo, "$41$", "$4I$");
  auto parsed = ReadAsciiQuarter(files, 2014, 1);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption());
  EXPECT_NE(parsed.status().message().find("age"), std::string::npos);
}

TEST(IngestPolicyTest, PermissiveSkipsBadRowAndKeepsTheRest) {
  AsciiQuarterFiles files = CleanFiles();
  Replace(&files.demo, "$10000002$", "$10OOOOO2$");
  IngestReport report;
  auto parsed = ReadAsciiQuarter(files, 2014, 1, Permissive(), &report);
  ASSERT_TRUE(parsed.ok());
  // Report 2 is dropped; its DRUG/REAC rows are collateral, not faults.
  ASSERT_EQ(parsed->reports.size(), 3u);
  for (const Report& r : parsed->reports) {
    EXPECT_NE(r.case_id, 10000002u);
    EXPECT_EQ(r.drugs.size(), 2u);
    EXPECT_EQ(r.reactions.size(), 2u);
  }
  EXPECT_EQ(report.rows_rejected, 1u + 2u + 2u);
  EXPECT_EQ(report.collateral_rows, 2u + 2u);
  EXPECT_EQ(report.FaultCount(), 1u);
  // Permissive counts but does not capture.
  EXPECT_TRUE(report.quarantined.empty());
}

TEST(IngestPolicyTest, QuarantineCapturesRowDiagnostics) {
  AsciiQuarterFiles files = CleanFiles();
  Replace(&files.demo, "$10000002$", "$10OOOOO2$");
  IngestReport report;
  auto parsed = ReadAsciiQuarter(files, 2014, 1, Quarantine(), &report);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(report.quarantined.size(), 5u);
  const QuarantinedRow& root = report.quarantined[0];
  EXPECT_EQ(root.fault, RowFault::kBadNumeric);
  EXPECT_EQ(root.file, "DEMO14Q1.txt");
  EXPECT_EQ(root.line, 3u);
  EXPECT_EQ(root.column, "caseid");
  EXPECT_NE(root.reason.find("10OOOOO2"), std::string::npos);
  EXPECT_NE(root.content.find("10OOOOO2"), std::string::npos);
  EXPECT_EQ(report.CountFault(RowFault::kCollateral), 4u);
  // ToString is the grep-friendly "file:line [fault] column: reason" form.
  EXPECT_NE(root.ToString().find("DEMO14Q1.txt:3 [bad-numeric] caseid"),
            std::string::npos);
}

TEST(IngestPolicyTest, MalformedRowIsSkippedPermissively) {
  AsciiQuarterFiles files = CleanFiles();
  files.demo += "tail$without$enough$fields\n";
  IngestReport report;
  auto parsed = ReadAsciiQuarter(files, 2014, 1, Quarantine(), &report);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->reports.size(), 4u);
  EXPECT_EQ(report.FaultCount(), 1u);
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0].fault, RowFault::kMalformedRow);
  EXPECT_EQ(report.quarantined[0].line, 6u);
}

TEST(IngestPolicyTest, DuplicatePrimaryIdKeepsFirstOccurrence) {
  QuarterDataset dataset = SampleDataset();
  Report dup = dataset.reports[0];
  dup.drugs = {"PHANTOM"};
  dataset.reports.push_back(dup);
  auto files = WriteAsciiQuarter(dataset);
  ASSERT_TRUE(files.ok());
  EXPECT_TRUE(ReadAsciiQuarter(*files, 2014, 1).status().IsCorruption());
  IngestReport report;
  auto parsed = ReadAsciiQuarter(*files, 2014, 1, Quarantine(), &report);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->reports.size(), 4u);
  // The first occurrence wins and even absorbs the duplicate's DRUG row
  // (same primaryid, so the join cannot tell them apart).
  EXPECT_EQ(parsed->reports[0].case_id, 10000001u);
  EXPECT_EQ(report.CountFault(RowFault::kDuplicatePrimaryId), 1u);
}

TEST(IngestPolicyTest, OrphanRowsAreQuarantined) {
  AsciiQuarterFiles files = CleanFiles();
  files.drug += "999999$9999$1$PS$MYSTERY\n";
  files.reac += "888888$8888$VERTIGO\n";
  IngestReport report;
  auto parsed = ReadAsciiQuarter(files, 2014, 1, Quarantine(), &report);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->reports.size(), 4u);
  EXPECT_EQ(report.CountFault(RowFault::kOrphanRow), 2u);
  EXPECT_EQ(report.quarantined[0].file, "DRUG14Q1.txt");
  EXPECT_EQ(report.quarantined[1].file, "REAC14Q1.txt");
}

TEST(IngestPolicyTest, ErrorBudgetAbortsTheQuarter) {
  AsciiQuarterFiles files = CleanFiles();
  Replace(&files.demo, "$10000002$", "$10OOOOO2$");
  IngestOptions tight = Permissive();
  tight.max_bad_row_fraction = 0.01;  // 5 rejects of 20 rows >> 1%
  IngestReport report;
  auto parsed = ReadAsciiQuarter(files, 2014, 1, tight, &report);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsCorruption());
  EXPECT_NE(parsed.status().message().find("error budget"),
            std::string::npos);
  // The accounting still reaches the caller for diagnosis.
  EXPECT_EQ(report.rows_rejected, 5u);
}

TEST(IngestPolicyTest, QuarantineCapIsRespected) {
  AsciiQuarterFiles files = CleanFiles();
  files.demo += "bad$row$one\nbad$row$two\nbad$row$three\n";
  IngestOptions options = Quarantine();
  options.max_quarantined_rows = 2;
  IngestReport report;
  auto parsed = ReadAsciiQuarter(files, 2014, 1, options, &report);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(report.rows_rejected, 3u);  // counters stay exact
  EXPECT_EQ(report.quarantined.size(), 2u);
  EXPECT_TRUE(report.quarantine_overflow);
  ASSERT_EQ(report.warnings.size(), 1u);
  EXPECT_NE(report.warnings[0].find("cap"), std::string::npos);
}

TEST(IngestDirTest, MissingFileErrorNamesTheFile) {
  std::string dir = ::testing::TempDir();
  QuarterDataset dataset = SampleDataset();
  dataset.year = 2019;  // avoid clashing with other tests' 14Q1 files
  dataset.quarter = 3;
  ASSERT_TRUE(WriteAsciiQuarterToDir(dataset, dir).ok());
  std::remove((dir + "/REAC19Q3.txt").c_str());
  auto parsed = ReadAsciiQuarterFromDir(dir, 2019, 3);
  ASSERT_FALSE(parsed.ok());
  EXPECT_TRUE(parsed.status().IsIOError());
  EXPECT_NE(parsed.status().message().find("REAC file"), std::string::npos);
  for (const char* name : {"DEMO19Q3.txt", "DRUG19Q3.txt"}) {
    std::remove((dir + "/" + name).c_str());
  }
}

TEST(IngestDirTest, WriteErrorNamesTheFile) {
  Status status =
      WriteAsciiQuarterToDir(SampleDataset(), "/nonexistent/ingest-dir");
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsIOError());
  EXPECT_NE(status.message().find("DEMO14Q1.txt"), std::string::npos);
}

TEST(EnforceValidationTest, StrictFailsOnFirstError) {
  QuarterDataset dataset = SampleDataset();
  dataset.reports.push_back(dataset.reports[0]);  // duplicate primaryid
  ValidationReport validation = ValidateDataset(dataset);
  ASSERT_GT(validation.error_count(), 0u);
  Status status = EnforceValidation(validation, IngestOptions{});
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsFailedPrecondition());
  EXPECT_NE(status.message().find("duplicate-primaryid"), std::string::npos);
}

TEST(EnforceValidationTest, PermissiveDowngradesErrorsWithinBudget) {
  QuarterDataset dataset = SampleDataset();
  dataset.reports.push_back(dataset.reports[0]);
  ValidationReport validation = ValidateDataset(dataset);
  IngestReport report;
  EXPECT_TRUE(EnforceValidation(validation, Permissive(), &report).ok());
  ASSERT_FALSE(report.warnings.empty());
  EXPECT_NE(report.warnings[0].find("duplicate-primaryid"),
            std::string::npos);
}

TEST(EnforceValidationTest, PermissiveStillFailsPastBudget) {
  QuarterDataset dataset = SampleDataset();
  for (int i = 0; i < 4; ++i) dataset.reports.push_back(dataset.reports[0]);
  ValidationReport validation = ValidateDataset(dataset);
  IngestOptions tight = Permissive();
  tight.max_bad_row_fraction = 0.1;
  Status status = EnforceValidation(validation, tight);
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsFailedPrecondition());
}

TEST(EnforceValidationTest, WarningsNeverFailAnyPolicy) {
  QuarterDataset dataset = SampleDataset();
  dataset.reports[0].drugs.clear();  // warning-grade finding
  ValidationReport validation = ValidateDataset(dataset);
  EXPECT_GT(validation.warning_count(), 0u);
  EXPECT_EQ(validation.error_count(), 0u);
  EXPECT_TRUE(EnforceValidation(validation, IngestOptions{}).ok());
  EXPECT_TRUE(EnforceValidation(validation, Permissive()).ok());
}

TEST(IngestThreadingTest, PreprocessorRecordsDropAccounting) {
  QuarterDataset dataset = SampleDataset();
  dataset.reports[1].type = ReportType::kPeriodic;
  dataset.reports[2].reactions.clear();
  Preprocessor preprocessor{PreprocessOptions{}};
  IngestReport report;
  auto pre = preprocessor.Process(dataset, &report);
  ASSERT_TRUE(pre.ok());
  ASSERT_EQ(report.warnings.size(), 2u);
  EXPECT_NE(report.warnings[0].find("non-expedited"), std::string::npos);
  EXPECT_NE(report.warnings[1].find("no drugs or no reactions"),
            std::string::npos);
}

TEST(IngestThreadingTest, DedupRecordsRemovalsUnderQuarantine) {
  QuarterDataset dataset = SampleDataset();
  // Distinguish the base reports so only the injected twin clusters.
  for (size_t i = 0; i < dataset.reports.size(); ++i) {
    dataset.reports[i].drugs.push_back("MARKER" + std::to_string(i));
  }
  Report twin = dataset.reports[0];
  twin.case_id = 77000001;  // different case, same clinical fingerprint
  dataset.reports.push_back(twin);
  IngestReport report;
  DedupStats stats;
  auto skip = MarkDuplicateCases(dataset, Quarantine(), &report,
                                 maras::RunContext{}, &stats);
  ASSERT_TRUE(skip.ok());
  EXPECT_EQ(std::count(skip->begin(), skip->end(), true), 1);
  EXPECT_TRUE(skip->back());
  EXPECT_EQ(stats.redundant_reports, 1u);
  ASSERT_EQ(report.warnings.size(), 2u);
  EXPECT_NE(report.warnings[0].find("duplicate"), std::string::npos);
  EXPECT_NE(report.warnings[1].find("7700000"), std::string::npos);
}

TEST(IngestReportTest, MergeAndSummary) {
  IngestReport a;
  a.rows_seen = 10;
  a.rows_rejected = 2;
  a.collateral_rows = 1;
  a.warnings = {"w1"};
  IngestReport b;
  b.rows_seen = 5;
  b.rows_rejected = 1;
  b.quarantined.push_back(QuarantinedRow{RowFault::kOrphanRow, "DRUG", 7, "",
                                         "orphan", "raw"});
  a.Merge(b);
  EXPECT_EQ(a.rows_seen, 15u);
  EXPECT_EQ(a.rows_rejected, 3u);
  EXPECT_EQ(a.FaultCount(), 2u);
  EXPECT_EQ(a.quarantined.size(), 1u);
  EXPECT_EQ(a.Summary(), "15 rows, 3 rejected (1 collateral), 1 warning");
  EXPECT_DOUBLE_EQ(a.rejected_fraction(), 0.2);
}

TEST(IngestReportTest, PolicyAndFaultNames) {
  EXPECT_STREQ(IngestPolicyName(IngestPolicy::kStrict), "strict");
  EXPECT_STREQ(IngestPolicyName(IngestPolicy::kPermissive), "permissive");
  EXPECT_STREQ(IngestPolicyName(IngestPolicy::kQuarantine), "quarantine");
  EXPECT_STREQ(RowFaultName(RowFault::kMalformedRow), "malformed-row");
  EXPECT_STREQ(RowFaultName(RowFault::kCollateral), "collateral");
}

}  // namespace
}  // namespace maras::faers
