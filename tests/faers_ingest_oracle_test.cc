// Differential oracles for the FAERS ingest path. The production quarter
// reader and dedup are held byte for byte to the reference implementations
// in tests/ingest_reference.h: the parsed dataset, every IngestReport field
// (quarantined rows with file/line/column/reason/content, warnings, the
// overflow flag), the Status text of a failed read, the duplicate clusters,
// the kept reports and the per-duplicate warnings — across corruptor seeds,
// every IngestPolicy, quarantine caps and hand-written edge cases.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "faers/ascii_format.h"
#include "faers/corruptor.h"
#include "faers/dedup.h"
#include "faers/generator.h"
#include "faers/preprocess.h"
#include "tests/ingest_reference.h"
#include "util/random.h"

namespace maras::faers {
namespace {

struct ReadOutcome {
  std::string status;
  std::string dataset;
  std::string report;
};

template <typename ReadFn>
ReadOutcome Capture(ReadFn&& read) {
  // A report that already holds accounting: the reader must merge into it,
  // not overwrite it.
  IngestReport report;
  report.rows_seen = 5;
  report.warnings.push_back("earlier quarter note");
  StatusOr<QuarterDataset> dataset = read(&report);
  ReadOutcome out;
  out.status = dataset.status().ToString();
  if (dataset.ok()) out.dataset = reference::DumpDataset(*dataset);
  out.report = reference::DumpIngestReport(report);
  return out;
}

void ExpectSameRead(const AsciiQuarterFiles& files, int year, int quarter,
                    const IngestOptions& options, const std::string& what) {
  const ReadOutcome want = Capture([&](IngestReport* report) {
    return reference::ReadAsciiQuarter(files, year, quarter, options, report);
  });
  const ReadOutcome got = Capture([&](IngestReport* report) {
    return ReadAsciiQuarter(files, year, quarter, options, report);
  });
  const std::string where = what + " under " +
                            IngestPolicyName(options.policy) + " cap " +
                            std::to_string(options.max_quarantined_rows) +
                            " budget " +
                            std::to_string(options.max_bad_row_fraction);
  EXPECT_EQ(got.status, want.status) << where;
  EXPECT_EQ(got.dataset, want.dataset) << where;
  EXPECT_EQ(got.report, want.report) << where;
}

// Every policy x quarantine cap {0, 3} x a loose and a tight error budget,
// plus the policy-less overload (strict) and its report-less form.
void ExpectSameReadEverywhere(const AsciiQuarterFiles& files,
                              const std::string& what, int year = 2014,
                              int quarter = 1) {
  for (IngestPolicy policy : {IngestPolicy::kStrict, IngestPolicy::kPermissive,
                              IngestPolicy::kQuarantine}) {
    for (size_t cap : {size_t{0}, size_t{3}}) {
      for (double budget : {0.5, 0.02}) {
        IngestOptions options;
        options.policy = policy;
        options.max_quarantined_rows = cap;
        options.max_bad_row_fraction = budget;
        ExpectSameRead(files, year, quarter, options, what);
      }
    }
  }
  auto want = reference::ReadAsciiQuarter(files, year, quarter, IngestOptions{});
  auto got = ReadAsciiQuarter(files, year, quarter);
  EXPECT_EQ(got.status().ToString(), want.status().ToString()) << what;
  if (want.ok() && got.ok()) {
    EXPECT_EQ(reference::DumpDataset(*got), reference::DumpDataset(*want))
        << what;
  }
}

QuarterDataset GenerateQuarter(uint64_t seed, size_t reports) {
  GeneratorConfig config;
  config.seed = seed;
  config.n_reports = reports;
  config.n_drugs = 200;
  config.n_adrs = 80;
  auto dataset = SyntheticGenerator(config).Generate();
  EXPECT_TRUE(dataset.ok());
  return *std::move(dataset);
}

AsciiQuarterFiles Corrupted(uint64_t seed, size_t reports, size_t per_kind) {
  auto clean = WriteAsciiQuarter(GenerateQuarter(seed, reports));
  EXPECT_TRUE(clean.ok());
  CorruptorConfig config;
  config.seed = seed * 1000003 + 17;
  config.faults = AllRowFaults(per_kind);
  auto corrupted = Corruptor(config).Corrupt(*clean, 2014, 1);
  EXPECT_TRUE(corrupted.ok());
  return corrupted->files;
}

// ---------------------------------------------------------------------------
// Reader: corruptor seeds
// ---------------------------------------------------------------------------

class AsciiReaderDifferentialOracleTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AsciiReaderDifferentialOracleTest, CorruptedQuarterMatchesReference) {
  const uint64_t seed = GetParam();
  const AsciiQuarterFiles files = Corrupted(seed, 300, 2);
  ExpectSameReadEverywhere(files, "seed " + std::to_string(seed));

  // The sweep must exercise every root-cause fault kind and collateral.
  IngestOptions options;
  options.policy = IngestPolicy::kQuarantine;
  options.max_bad_row_fraction = 1.0;
  options.max_quarantined_rows = 0;
  IngestReport report;
  ASSERT_TRUE(
      reference::ReadAsciiQuarter(files, 2014, 1, options, &report).ok());
  std::set<RowFault> kinds;
  for (const QuarantinedRow& row : report.quarantined) kinds.insert(row.fault);
  for (RowFault fault :
       {RowFault::kMalformedRow, RowFault::kBadNumeric, RowFault::kBadCode,
        RowFault::kDuplicatePrimaryId, RowFault::kOrphanRow,
        RowFault::kCollateral}) {
    EXPECT_EQ(kinds.count(fault), 1u) << RowFaultName(fault);
  }
}

TEST_P(AsciiReaderDifferentialOracleTest, TornFilesMatchReference) {
  const uint64_t seed = GetParam();
  const AsciiQuarterFiles clean = Corrupted(seed, 120, 1);
  for (std::string AsciiQuarterFiles::*table :
       {&AsciiQuarterFiles::demo, &AsciiQuarterFiles::drug,
        &AsciiQuarterFiles::reac}) {
    auto torn = TearFileMidRecord(clean.*table, seed);
    ASSERT_TRUE(torn.ok());
    AsciiQuarterFiles files = clean;
    files.*table = torn->content;
    ExpectSameReadEverywhere(files, "torn at " + std::to_string(torn->offset),
                             2019, 3);
  }
}

// Seeded byte-level mutations of a small dirty quarter: inserted
// delimiters, line breaks and carriage returns, deleted and replaced bytes,
// duplicated lines.
TEST_P(AsciiReaderDifferentialOracleTest, MutatedQuarterMatchesReference) {
  const uint64_t seed = GetParam();
  const AsciiQuarterFiles base = Corrupted(seed, 40, 1);
  Rng rng(seed ^ 0x5eedull);
  static constexpr char kAlphabet[] = "$\n\r0123456789+-. eAXPMF";
  for (int round = 0; round < 40; ++round) {
    AsciiQuarterFiles files = base;
    std::string* table = round % 3 == 0   ? &files.demo
                         : round % 3 == 1 ? &files.drug
                                          : &files.reac;
    const int edits = 1 + static_cast<int>(rng.Uniform(4));
    for (int e = 0; e < edits && !table->empty(); ++e) {
      const size_t pos = rng.Uniform(table->size());
      const char c = kAlphabet[rng.Uniform(sizeof(kAlphabet) - 1)];
      switch (rng.Uniform(4)) {
        case 0:
          table->insert(table->begin() + static_cast<std::ptrdiff_t>(pos), c);
          break;
        case 1:
          table->erase(pos, 1);
          break;
        case 2:
          (*table)[pos] = c;
          break;
        default: {
          const size_t begin = table->rfind('\n', pos);
          const size_t start = begin == std::string::npos ? 0 : begin + 1;
          const size_t end = table->find('\n', pos);
          const std::string line =
              table->substr(start, end == std::string::npos
                                       ? std::string::npos
                                       : end - start + 1);
          table->insert(start, line);
          break;
        }
      }
    }
    ExpectSameReadEverywhere(files, "mutation round " + std::to_string(round));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsciiReaderDifferentialOracleTest,
                         ::testing::Values(3, 57, 191, 4242, 90210));

// ---------------------------------------------------------------------------
// Reader: hand-written edge cases
// ---------------------------------------------------------------------------

constexpr char kDemoHeader[] =
    "primaryid$caseid$caseversion$rept_cod$age$sex$occr_country";
constexpr char kDrugHeader[] = "primaryid$caseid$drug_seq$role_cod$drugname";
constexpr char kReacHeader[] = "primaryid$caseid$pt";

std::string Lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

AsciiQuarterFiles Files(const std::vector<std::string>& demo_rows,
                        const std::vector<std::string>& drug_rows,
                        const std::vector<std::string>& reac_rows) {
  std::vector<std::string> demo{kDemoHeader}, drug{kDrugHeader},
      reac{kReacHeader};
  demo.insert(demo.end(), demo_rows.begin(), demo_rows.end());
  drug.insert(drug.end(), drug_rows.begin(), drug_rows.end());
  reac.insert(reac.end(), reac_rows.begin(), reac_rows.end());
  return AsciiQuarterFiles{Lines(demo), Lines(drug), Lines(reac)};
}

AsciiQuarterFiles ValidFiles() {
  return Files({"1000000101$10000001$1$EXP$45$F$US",
                "1000000201$10000002$1$PER$$M$GB",
                "1000000301$10000003$1$DIR$70$UNK$"},
               {"1000000101$10000001$1$PS$ASPIRIN",
                "1000000101$10000001$2$SS$WARFARIN",
                "1000000201$10000002$1$PS$NEXIUM",
                "1000000301$10000003$1$PS$ASPIRIN"},
               {"1000000101$10000001$HAEMORRHAGE",
                "1000000201$10000002$NAUSEA",
                "1000000301$10000003$RASH"});
}

std::string Replaced(std::string s, const std::string& from,
                     const std::string& to) {
  for (size_t pos = s.find(from); pos != std::string::npos;
       pos = s.find(from, pos + to.size())) {
    s.replace(pos, from.size(), to);
  }
  return s;
}

TEST(AsciiReaderHandCaseOracleTest, LineEndingsAndBlankLines) {
  const AsciiQuarterFiles valid = ValidFiles();
  AsciiQuarterFiles crlf{Replaced(valid.demo, "\n", "\r\n"),
                         Replaced(valid.drug, "\n", "\r\n"),
                         Replaced(valid.reac, "\n", "\r\n")};
  ExpectSameReadEverywhere(crlf, "crlf");

  AsciiQuarterFiles blanks{Replaced(valid.demo, "\n", "\n\n"),
                           Replaced(valid.drug, "\n", "\n\r\n"),
                           valid.reac + "\n \n\r\n\r"};
  ExpectSameReadEverywhere(blanks, "blank lines");

  AsciiQuarterFiles no_final_newline = valid;
  no_final_newline.demo.pop_back();
  no_final_newline.drug.pop_back();
  no_final_newline.reac.pop_back();
  ExpectSameReadEverywhere(no_final_newline, "no final newline");

  AsciiQuarterFiles lone_cr = valid;
  lone_cr.drug.back() = '\r';
  lone_cr.reac = Replaced(valid.reac, "NAUSEA", "NAU\rSEA");
  ExpectSameReadEverywhere(lone_cr, "stray carriage returns");
}

TEST(AsciiReaderHandCaseOracleTest, HeadersAndEmptyFiles) {
  const AsciiQuarterFiles valid = ValidFiles();
  const std::string demo_header = std::string(kDemoHeader) + "\n";
  const std::string drug_header = std::string(kDrugHeader) + "\n";
  const std::string reac_header = std::string(kReacHeader) + "\n";
  ExpectSameReadEverywhere({demo_header, drug_header, reac_header},
                           "header-only files");
  ExpectSameReadEverywhere({std::string(kDemoHeader), std::string(kDrugHeader),
                            std::string(kReacHeader)},
                           "header-only files without newline");
  ExpectSameReadEverywhere({valid.demo, drug_header, valid.reac},
                           "header-only DRUG");
  ExpectSameReadEverywhere({"", valid.drug, valid.reac}, "empty DEMO");
  ExpectSameReadEverywhere({valid.demo, "", ""}, "empty DRUG and REAC");
  ExpectSameReadEverywhere({"\n" + valid.demo, valid.drug, valid.reac},
                           "blank first line in DEMO");
  ExpectSameReadEverywhere({valid.demo, "\r\n\n", valid.reac},
                           "DRUG of blank lines only");
  ExpectSameReadEverywhere(
      {Replaced(valid.demo, "rept_cod", "report_code"), valid.drug,
       valid.reac},
      "DEMO without rept_cod");
  ExpectSameReadEverywhere(
      {valid.demo, Replaced(valid.drug, "drugname", "drug"), valid.reac},
      "DRUG without drugname");
  ExpectSameReadEverywhere(
      {valid.demo, valid.drug, Replaced(valid.reac, "$pt", "$term")},
      "REAC without pt");
  ExpectSameReadEverywhere(
      {Replaced(valid.demo, "rept_cod", "report_code"),
       valid.drug + "1000000101$short\n", valid.reac},
      "DEMO without rept_cod and a malformed DRUG row");
  ExpectSameReadEverywhere(
      {valid.demo, Replaced(valid.drug, "drugname", "drug"),
       valid.reac + "1000000101$10000001$NAUSEA$extra\n"},
      "DRUG without drugname and a malformed REAC row");

  // Optional DEMO columns absent, columns reordered, duplicated and extra.
  ExpectSameReadEverywhere(
      Files({"1000000101$10000001$1$EXP"}, {"1000000101$1$1$PS$ASPIRIN"},
            {"1000000101$1$NAUSEA"}),
      "only the required DEMO columns");
  AsciiQuarterFiles minimal = Files({}, {"1000000101$1$1$PS$ASPIRIN"},
                                    {"1000000101$1$NAUSEA"});
  minimal.demo = "primaryid$caseid$caseversion$rept_cod\n"
                 "1000000101$10000001$1$EXP\n";
  ExpectSameReadEverywhere(minimal, "DEMO without age, sex, country");
  ExpectSameReadEverywhere(
      {"sex$rept_cod$caseid$primaryid$caseversion$age$age\n"
       "F$EXP$10000001$1000000101$1$30$40\n"
       "M$PER$10000002$1000000201$2$$x\n",
       "drugname$extra$primaryid\nASPIRIN$$1000000101\nNEXIUM$z$1000000201\n",
       "pt$primaryid$pt\nNAUSEA$1000000101$RASH\n"},
      "reordered, duplicated and extra columns");
}

TEST(AsciiReaderHandCaseOracleTest, NumericFields) {
  ExpectSameReadEverywhere(
      Files({"18446744073709551615$10000001$1$EXP$45$F$US",
             "18446744073709551616$10000002$1$EXP$45$F$US",
             "99999999999999999999$10000003$1$EXP$45$F$US",
             "1000000401$18446744073709551615$4294967295$EXP$1$M$US",
             "1000000501$18446744073709551616$1$EXP$1$M$US",
             "1000000601$10000006$4294967296$EXP$1$M$US"},
            {"18446744073709551615$1$1$PS$ASPIRIN",
             "18446744073709551616$1$1$PS$ASPIRIN",
             "1000000401$1$1$PS$NEXIUM", "1000000501$1$1$PS$NEXIUM"},
            {"18446744073709551615$1$NAUSEA", "1000000401$1$RASH",
             "1000000601$1$RASH"}),
      "20-digit ids and overflow");
  ExpectSameReadEverywhere(
      Files({"0001000000101$0010000001$01$EXP$045$F$US",
             "1000000101$10000009$1$EXP$45$F$US",
             "000$0$0$EXP$0$F$US"},
            {"1000000101$1$1$PS$ASPIRIN", "0001000000101$1$1$PS$WARFARIN",
             "0$1$1$PS$NEXIUM"},
            {"01000000101$1$NAUSEA", "00$1$RASH"}),
      "leading zeros");
  ExpectSameReadEverywhere(
      Files({"+5$10000001$1$EXP$45$F$US", "1000000201$+5$1$EXP$45$F$US",
             "1000000301$10000003$+1$EXP$45$F$US",
             "1000000401$10000004$1$EXP$+5$F$US",
             "1000000501$10000005$1$EXP$-3$F$US",
             "1000000601$10000006$1$EXP$ 5$F$US",
             "1000000701$10000007$1$EXP$5 $F$US",
             "1000000801$10000008$1$EXP$1e3$F$US",
             "1000000901$10000009$1$EXP$nan$F$US",
             "1000001001$10000010$1$EXP$inf$F$US",
             "1000001101$10000011$1$EXP$0x1A$F$US",
             "1000001201$10000012$1$EXP$1e999$F$US",
             "1000001301$10000013$1$EXP$1e-400$F$US",
             "1000001401$10000014$1$EXP$abc$F$US",
             "1000001501$10000015$1$EXP$.5$F$US",
             "1000001601$10000016$1$EXP$$F$US",
             "1000001701$10000017$1$EXP$ $F$US",
             "-1000001801$10000018$1$EXP$1$F$US",
             "1000001901$ 10000019$1$EXP$1$F$US",
             "$10000020$1$EXP$1$F$US"},
            {"+5$1$1$PS$ASPIRIN", "1000000401$1$1$PS$ASPIRIN",
             "1000000901$1$1$PS$ASPIRIN", "1000001601$1$1$PS$ASPIRIN",
             " 1000001601$1$1$PS$ASPIRIN", "$1$1$PS$ASPIRIN"},
            {"1000000501$1$NAUSEA", "1000001601$1$NAUSEA", "x$1$NAUSEA"}),
      "signs, spaces, exponents and empty age");
}

TEST(AsciiReaderHandCaseOracleTest, CodesRowFaultsAndCollateral) {
  ExpectSameReadEverywhere(
      Files({"1000000101$10000001$1$exp$45$F$US",
             "1000000201$10000002$1$$45$F$US",
             "1000000301$10000003$1$EXP$45$f$US",
             "1000000401$10000004$1$EXP$45$$US",
             "1000000501$10000005$1$EXP$45$X$US",
             "1000000601$10000006$1$EXP$45$UNK$US"},
            {"1000000101$1$1$PS$ASPIRIN", "1000000401$1$1$PS$ASPIRIN",
             "1000000601$1$1$PS$ASPIRIN"},
            {"1000000201$1$NAUSEA", "1000000601$1$NAUSEA"}),
      "report type and sex codes");
  ExpectSameReadEverywhere(
      Files({"1000000101$10000001$1$EXP$45$F$US",
             "1000000201$10000002$1$EXP$45$F",           // malformed
             "1000000301$10000003$1$EXP$45$F$US$XX",     // malformed
             "1000000401$garbage$1$EXP$45$F$US",         // bad caseid
             "1000000101$10000009$1$EXP$45$F$US",        // duplicate
             "01000000101$10000009$1$EXP$45$F$US",       // duplicate
             "junk$row", "$$$$$$", "$"},
            {"1000000101$1$1$PS$ASPIRIN", "1000000201$1$1$PS$ASPIRIN",
             "1000000301$1$1$PS", "1000000401$1$1$PS$ASPIRIN",
             "1000000401$1$1$PS$ASPIRIN$X", "1000009901$1$1$PS$ASPIRIN",
             "garbage$1$1$PS$ASPIRIN", "$$$$", "$$$$$$", "abc"},
            {"1000000201$1$NAUSEA", "1000000301$NAUSEA",
             "1000009901$1$NAUSEA", "1000000101$1$NAUSEA$X", "$$"}),
      "malformed, orphan, duplicate and collateral rows");
}

// Strict mode splits all three tables before it checks any DEMO row, so a
// malformed DRUG row is reported even when an earlier DEMO row has a bad
// numeric field.
TEST(AsciiReaderHandCaseOracleTest, StrictStructureErrorBeatsDemoNumeric) {
  const AsciiQuarterFiles files =
      Files({"1000000101$garbage$1$EXP$45$F$US"},
            {"1000000101$10000001$1$PS$ASPIRIN", "1000000101$short"},
            {"1000000101$10000001$NAUSEA"});
  ExpectSameReadEverywhere(files, "DEMO numeric vs DRUG structure");
  auto strict = ReadAsciiQuarter(files, 2014, 1);
  ASSERT_TRUE(strict.status().IsCorruption());
  EXPECT_EQ(strict.status().message(),
            "DRUG14Q1.txt: row 3 has 2 fields, expected 5");

  // Without the structural fault, the DEMO numeric is what strict reports.
  AsciiQuarterFiles numeric_only = files;
  numeric_only.drug = Lines({kDrugHeader, "1000000101$10000001$1$PS$ASPIRIN"});
  auto numeric = ReadAsciiQuarter(numeric_only, 2014, 1);
  EXPECT_EQ(numeric.status().message(),
            "DEMO14Q1.txt:2 (caseid): unparseable caseid 'garbage'");
}

TEST(AsciiReaderHandCaseOracleTest, QuarantineOverflow) {
  std::vector<std::string> demo{"1000000101$10000001$1$EXP$45$F$US"};
  std::vector<std::string> drug{"1000000101$1$1$PS$ASPIRIN"};
  for (int i = 0; i < 6; ++i) {
    drug.push_back("20000" + std::to_string(i) + "01$1$1$PS$ORPHAN");
    drug.push_back("30000" + std::to_string(i) + "01$1$1$PS");
  }
  ExpectSameReadEverywhere(Files(demo, drug, {"1000000101$1$NAUSEA"}),
                           "more rejects than the quarantine cap");
}

// ---------------------------------------------------------------------------
// Dedup
// ---------------------------------------------------------------------------

// A permissively read corrupted quarter of a small vocabulary (so natural
// fingerprint collisions occur), plus injected twins: reordered and
// repeated names, a same-case resubmission, and a report that shares a
// cluster member's primaryid.
QuarterDataset DedupCorpus(uint64_t seed) {
  GeneratorConfig config;
  config.seed = seed;
  config.n_reports = 500;
  config.n_drugs = 12;
  config.n_adrs = 8;
  config.mean_extra_drugs_per_report = 0.2;
  config.mean_extra_adrs_per_report = 0.1;
  auto generated = SyntheticGenerator(config).Generate();
  EXPECT_TRUE(generated.ok());
  auto clean = WriteAsciiQuarter(*generated);
  EXPECT_TRUE(clean.ok());
  CorruptorConfig corrupt;
  corrupt.seed = seed + 99;
  corrupt.faults = AllRowFaults(2);
  auto corrupted = Corruptor(corrupt).Corrupt(*clean, 2014, 1);
  EXPECT_TRUE(corrupted.ok());
  IngestOptions options;
  options.policy = IngestPolicy::kPermissive;
  options.max_bad_row_fraction = 1.0;
  auto dataset =
      reference::ReadAsciiQuarter(corrupted->files, 2014, 1, options);
  EXPECT_TRUE(dataset.ok());

  Rng rng(seed);
  const size_t n = dataset->reports.size();
  for (size_t k = 0; k < 12; ++k) {
    Report twin = dataset->reports[rng.Uniform(n)];
    twin.case_id = 90000000 + seed * 100 + k;
    std::reverse(twin.drugs.begin(), twin.drugs.end());
    if (!twin.reactions.empty() && k % 3 == 0) {
      twin.reactions.push_back(twin.reactions.front());
    }
    dataset->reports.push_back(std::move(twin));
  }
  Report resubmission = dataset->reports[rng.Uniform(n)];
  resubmission.case_version += 1;
  dataset->reports.push_back(resubmission);
  // Same primaryid as the last twin, different clinical content.
  Report shared = dataset->reports[n + 11];
  shared.drugs = {"UNRELATED"};
  dataset->reports.push_back(shared);
  return *std::move(dataset);
}

std::string DumpClusters(const std::vector<DuplicateCluster>& clusters,
                         const DedupStats& stats) {
  std::string out = "checked=" + std::to_string(stats.reports_checked) +
                    " clusters=" + std::to_string(stats.clusters) +
                    " redundant=" + std::to_string(stats.redundant_reports) +
                    "\n";
  for (const DuplicateCluster& cluster : clusters) {
    for (uint64_t id : cluster.primary_ids) out += std::to_string(id) + " ";
    out += "\n";
  }
  return out;
}

class DedupDifferentialOracleTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DedupDifferentialOracleTest, ClustersKeptReportsAndWarningsMatch) {
  const QuarterDataset dataset = DedupCorpus(GetParam());

  DedupStats want_stats, got_stats;
  const auto want_clusters = reference::FindDuplicateCases(dataset, &want_stats);
  const auto got_clusters = FindDuplicateCases(dataset, &got_stats);
  EXPECT_EQ(DumpClusters(got_clusters, got_stats),
            DumpClusters(want_clusters, want_stats));
  EXPECT_GE(want_clusters.size(), 5u) << "corpus too clean to pin dedup";

  for (IngestPolicy policy : {IngestPolicy::kStrict, IngestPolicy::kPermissive,
                              IngestPolicy::kQuarantine}) {
    IngestOptions options;
    options.policy = policy;
    IngestReport want_report, got_report;
    want_report.warnings.push_back("earlier note");
    got_report.warnings.push_back("earlier note");
    DedupStats want_removed, got_removed;
    const QuarterDataset want_kept = reference::RemoveDuplicateCases(
        dataset, options, &want_report, &want_removed);
    auto skip = MarkDuplicateCases(dataset, options, &got_report,
                                   RunContext{}, &got_removed);
    ASSERT_TRUE(skip.ok());
    QuarterDataset got_kept;
    got_kept.year = dataset.year;
    got_kept.quarter = dataset.quarter;
    for (size_t i = 0; i < dataset.reports.size(); ++i) {
      if (!(*skip)[i]) got_kept.reports.push_back(dataset.reports[i]);
    }
    const std::string where = IngestPolicyName(policy);
    EXPECT_EQ(reference::DumpDataset(got_kept),
              reference::DumpDataset(want_kept))
        << where;
    EXPECT_EQ(reference::DumpIngestReport(got_report),
              reference::DumpIngestReport(want_report))
        << where;
    EXPECT_EQ(DumpClusters({}, got_removed), DumpClusters({}, want_removed))
        << where;

    // Preprocessing the dataset under the skip mask equals preprocessing
    // the reference's deduplicated copy.
    const Preprocessor preprocessor{PreprocessOptions{}};
    auto want_pre = preprocessor.Process(want_kept, &want_report);
    auto got_pre =
        preprocessor.Process(dataset, &got_report, *skip, RunContext{});
    ASSERT_TRUE(want_pre.ok());
    ASSERT_TRUE(got_pre.ok());
    EXPECT_EQ(core::EncodePreprocessResult(*got_pre),
              core::EncodePreprocessResult(*want_pre))
        << where;
    EXPECT_EQ(got_report.warnings, want_report.warnings) << where;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DedupDifferentialOracleTest,
                         ::testing::Values(3, 57, 191, 4242, 90210));

}  // namespace
}  // namespace maras::faers
