#include "core/multi_quarter.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "core/analysis_stages.h"
#include "core/analyzer.h"
#include "core/checkpoint.h"
#include "core/ranking.h"
#include "faers/ascii_format.h"
#include "faers/corruptor.h"
#include "faers/generator.h"
#include "faers/preprocess.h"
#include "util/run_context.h"

namespace maras::core {
namespace {

faers::PreprocessResult MakeQuarter(int quarter, size_t reports) {
  faers::GeneratorConfig config;
  config.quarter = quarter;
  config.n_reports = reports;
  config.n_drugs = 300;
  config.n_adrs = 150;
  config.seed = 777;
  faers::SyntheticGenerator generator(config);
  auto dataset = generator.Generate();
  EXPECT_TRUE(dataset.ok());
  faers::Preprocessor preprocessor{faers::PreprocessOptions{}};
  auto pre = preprocessor.Process(*dataset);
  EXPECT_TRUE(pre.ok());
  return *std::move(pre);
}

class MultiQuarterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    q1_ = new faers::PreprocessResult(MakeQuarter(1, 1500));
    q2_ = new faers::PreprocessResult(MakeQuarter(2, 1500));
  }
  static void TearDownTestSuite() {
    delete q1_;
    delete q2_;
  }
  static faers::PreprocessResult* q1_;
  static faers::PreprocessResult* q2_;
};

faers::PreprocessResult* MultiQuarterTest::q1_ = nullptr;
faers::PreprocessResult* MultiQuarterTest::q2_ = nullptr;

TEST_F(MultiQuarterTest, MergeConcatenatesTransactions) {
  auto merged = MergeQuarters({q1_, q2_});
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->transactions.size(),
            q1_->transactions.size() + q2_->transactions.size());
  EXPECT_EQ(merged->primary_ids.size(), merged->transactions.size());
  EXPECT_EQ(merged->stats.reports_kept,
            q1_->stats.reports_kept + q2_->stats.reports_kept);
}

TEST_F(MultiQuarterTest, MergePreservesSupportsByName) {
  auto merged = MergeQuarters({q1_, q2_});
  ASSERT_TRUE(merged.ok());
  // Any drug present in both quarters: merged support == sum of supports.
  for (const char* name : {"ASPIRIN", "WARFARIN", "PROGRAF"}) {
    auto id1 = q1_->items.Lookup(name);
    auto id2 = q2_->items.Lookup(name);
    auto idm = merged->items.Lookup(name);
    ASSERT_TRUE(id1.ok() && id2.ok() && idm.ok()) << name;
    EXPECT_EQ(merged->transactions.ItemSupport(*idm),
              q1_->transactions.ItemSupport(*id1) +
                  q2_->transactions.ItemSupport(*id2))
        << name;
  }
}

TEST_F(MultiQuarterTest, MergePreservesDomains) {
  auto merged = MergeQuarters({q1_, q2_});
  ASSERT_TRUE(merged.ok());
  auto drug = merged->items.Lookup("ASPIRIN");
  ASSERT_TRUE(drug.ok());
  EXPECT_EQ(merged->items.Domain(*drug), mining::ItemDomain::kDrug);
  auto adr = merged->items.Lookup("NAUSEA");
  ASSERT_TRUE(adr.ok());
  EXPECT_EQ(merged->items.Domain(*adr), mining::ItemDomain::kAdr);
}

TEST_F(MultiQuarterTest, MergedCorpusIsAnalyzable) {
  auto merged = MergeQuarters({q1_, q2_});
  ASSERT_TRUE(merged.ok());
  AnalyzerOptions options;
  options.mining.min_support = 6;
  MarasAnalyzer analyzer(options);
  auto analysis = analyzer.Analyze(*merged);
  ASSERT_TRUE(analysis.ok());
  EXPECT_GT(analysis->stats.mcac_count, 0u);
}

TEST(MergeQuartersTest, EmptyInputRejected) {
  EXPECT_TRUE(MergeQuarters({}).status().IsInvalidArgument());
}

TEST_F(MultiQuarterTest, TrackSignalAcrossQuarters) {
  auto trend = TrackSignal({q1_, q2_}, {"2014Q1", "2014Q2"},
                           {"ZOMETA", "PRILOSEC"},
                           {"OSTEONECROSIS OF JAW"});
  ASSERT_EQ(trend.size(), 2u);
  EXPECT_EQ(trend[0].label, "2014Q1");
  for (const auto& row : trend) {
    EXPECT_GT(row.combination_reports, 0u);
    EXPECT_GE(row.combination_reports, row.reports);
    EXPECT_GE(row.confidence, 0.0);
    EXPECT_LE(row.confidence, 1.0);
  }
}

TEST_F(MultiQuarterTest, TrackSignalMissingVocabularyGivesZeroRow) {
  auto trend = TrackSignal({q1_}, {"2014Q1"}, {"NO SUCH DRUG"}, {"NAUSEA"});
  ASSERT_EQ(trend.size(), 1u);
  EXPECT_EQ(trend[0].combination_reports, 0u);
  EXPECT_EQ(trend[0].reports, 0u);
}

TEST(ClassifyTrendTest, Verdicts) {
  auto row = [](size_t combo, double conf) {
    QuarterlySignalTrend r;
    r.combination_reports = combo;
    r.reports = static_cast<size_t>(conf * static_cast<double>(combo));
    r.confidence = conf;
    return r;
  };
  EXPECT_EQ(ClassifyTrend({row(10, 0.2), row(10, 0.6)}),
            TrendVerdict::kEmerging);
  EXPECT_EQ(ClassifyTrend({row(10, 0.6), row(10, 0.2)}),
            TrendVerdict::kFading);
  EXPECT_EQ(ClassifyTrend({row(10, 0.4), row(10, 0.45)}),
            TrendVerdict::kStable);
  EXPECT_EQ(ClassifyTrend({row(10, 0.4)}), TrendVerdict::kInsufficient);
  EXPECT_EQ(ClassifyTrend({row(0, 0.0), row(0, 0.0)}),
            TrendVerdict::kInsufficient);
  // Zero-combination quarters are skipped, not treated as dips.
  EXPECT_EQ(ClassifyTrend({row(10, 0.2), row(0, 0.0), row(10, 0.6)}),
            TrendVerdict::kEmerging);
}

// --- Fault-tolerant pipeline ------------------------------------------------

faers::QuarterDataset GenerateRaw(int year, int quarter, uint64_t seed) {
  faers::GeneratorConfig config;
  config.year = year;
  config.quarter = quarter;
  config.seed = seed;
  config.n_reports = 400;
  config.n_drugs = 300;
  config.n_adrs = 150;
  faers::SyntheticGenerator generator(config);
  auto dataset = generator.Generate();
  EXPECT_TRUE(dataset.ok());
  return *std::move(dataset);
}

class MultiQuarterPipelineTest : public ::testing::Test {
 protected:
  // Writes clean 2041Q1 and 2041Q2 extracts into a per-test subdirectory of
  // TempDir. Tests in this fixture run as separate ctest entries and may run
  // concurrently under `ctest -j`; writing the same filenames into the shared
  // TempDir root would let one test truncate a quarter another is reading.
  // The year 2041 is still unique to this suite across test binaries.
  static std::string WriteCleanQuarters(const std::string& tag) {
    std::string dir = ::testing::TempDir() + "/mq41_" + tag;
    std::filesystem::create_directories(dir);
    EXPECT_TRUE(
        faers::WriteAsciiQuarterToDir(GenerateRaw(2041, 1, 101), dir).ok());
    EXPECT_TRUE(
        faers::WriteAsciiQuarterToDir(GenerateRaw(2041, 2, 202), dir).ok());
    return dir;
  }

  static MultiQuarterOptions Lenient(faers::IngestPolicy policy) {
    MultiQuarterOptions options;
    options.ingest.policy = policy;
    options.ingest.max_bad_row_fraction = 0.5;
    return options;
  }
};

TEST_F(MultiQuarterPipelineTest, StrictRunLoadsAllCleanQuarters) {
  std::string dir = WriteCleanQuarters("strict_loads");
  MultiQuarterPipeline pipeline{MultiQuarterOptions{}};
  auto run = pipeline.RunFromDirs({{dir, 2041, 1}, {dir, 2041, 2}});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->quarters_loaded, 2u);
  ASSERT_EQ(run->outcomes.size(), 2u);
  EXPECT_EQ(run->outcomes[0].label, "2041Q1");
  EXPECT_TRUE(run->outcomes[0].loaded);
  EXPECT_TRUE(run->outcomes[1].loaded);
  EXPECT_EQ(run->ingest.rows_rejected, 0u);
  EXPECT_GT(run->merged.transactions.size(), 0u);
}

TEST_F(MultiQuarterPipelineTest, StrictRunFailsNamingTheBrokenQuarter) {
  std::string dir = WriteCleanQuarters("strict_fails");
  MultiQuarterPipeline pipeline{MultiQuarterOptions{}};
  auto run =
      pipeline.RunFromDirs({{dir, 2041, 1}, {dir, 2041, 3}});  // no 2041Q3
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("quarter 2041Q3"),
            std::string::npos)
      << run.status().ToString();
}

TEST_F(MultiQuarterPipelineTest, PermissiveRunSkipsUnreadableQuarter) {
  std::string dir = WriteCleanQuarters("permissive_skips");
  MultiQuarterPipeline pipeline{Lenient(faers::IngestPolicy::kPermissive)};
  auto run = pipeline.RunFromDirs(
      {{dir, 2041, 1}, {dir, 2041, 3}, {dir, 2041, 2}});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->quarters_loaded, 2u);
  ASSERT_EQ(run->outcomes.size(), 3u);
  EXPECT_FALSE(run->outcomes[1].loaded);
  EXPECT_FALSE(run->outcomes[1].status.ok());
  bool skip_warning = false;
  for (const std::string& warning : run->ingest.warnings) {
    skip_warning = skip_warning ||
                   warning.find("skipping quarter 2041Q3") != std::string::npos;
  }
  EXPECT_TRUE(skip_warning);
  // The degraded corpus still analyzes, and the analyzer surfaces the skip.
  AnalyzerOptions options;
  options.mining.min_support = 6;
  auto analysis = MarasAnalyzer(options).Analyze(run->merged, run->ingest);
  ASSERT_TRUE(analysis.ok());
  EXPECT_FALSE(analysis->ingest_warnings.empty());
}

TEST_F(MultiQuarterPipelineTest, AllQuartersFailingIsAnError) {
  MultiQuarterPipeline pipeline{Lenient(faers::IngestPolicy::kPermissive)};
  auto run = pipeline.RunFromDirs(
      {{"/nonexistent/faers", 2019, 1}, {"/nonexistent/faers", 2019, 2}});
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsCorruption());
  EXPECT_NE(run.status().message().find("all 2 quarters"), std::string::npos);
}

TEST_F(MultiQuarterPipelineTest, EmptySourceListRejected) {
  MultiQuarterPipeline pipeline{MultiQuarterOptions{}};
  EXPECT_TRUE(pipeline.RunFromDirs({}).status().IsInvalidArgument());
  EXPECT_TRUE(pipeline.Run({}).status().IsInvalidArgument());
}

TEST_F(MultiQuarterPipelineTest, InMemoryRunMergesQuarters) {
  std::vector<faers::QuarterDataset> quarters;
  quarters.push_back(GenerateRaw(2014, 1, 101));
  quarters.push_back(GenerateRaw(2014, 2, 202));
  MultiQuarterPipeline pipeline{MultiQuarterOptions{}};
  auto run = pipeline.Run(quarters);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->quarters_loaded, 2u);
  EXPECT_GT(run->merged.stats.reports_kept, 0u);
}

TEST_F(MultiQuarterPipelineTest, QuarantineRunAccountsForInjectedFaults) {
  std::string dir = ::testing::TempDir();
  ASSERT_TRUE(
      faers::WriteAsciiQuarterToDir(GenerateRaw(2045, 3, 303), dir).ok());
  faers::QuarterDataset damaged_src = GenerateRaw(2045, 4, 404);
  auto clean = faers::WriteAsciiQuarter(damaged_src);
  ASSERT_TRUE(clean.ok());
  faers::CorruptorConfig corruption;
  corruption.seed = 9;
  corruption.faults = faers::AllRowFaults(1);
  auto corrupted = faers::Corruptor(corruption).Corrupt(*clean, 2045, 4);
  ASSERT_TRUE(corrupted.ok());
  ASSERT_TRUE(
      faers::WriteCorruptedQuarterToDir(*corrupted, dir, 2045, 4).ok());

  MultiQuarterPipeline pipeline{Lenient(faers::IngestPolicy::kQuarantine)};
  auto run = pipeline.RunFromDirs({{dir, 2045, 3}, {dir, 2045, 4}});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->quarters_loaded, 2u);
  EXPECT_EQ(run->ingest.FaultCount(), corrupted->RowFaultCount());
  EXPECT_EQ(run->outcomes[0].ingest.rows_rejected, 0u);
  EXPECT_EQ(run->outcomes[1].ingest.FaultCount(), corrupted->RowFaultCount());
  EXPECT_FALSE(run->ingest.quarantined.empty());
}

// --- Governed ingest ----------------------------------------------------------
// Dedup and preprocessing poll the run context, so a stopped run ends
// mid-quarter with its own Status — never recorded as a skippable quarter
// failure, whatever the ingest policy.

TEST(GovernedIngestTest, PreprocessStopsOnCancelledContext) {
  const faers::QuarterDataset dataset = GenerateRaw(2041, 3, 303);
  CancellationToken cancel;
  cancel.Cancel();
  RunContext ctx;
  ctx.cancel = &cancel;
  faers::IngestReport report;
  auto result = faers::Preprocessor(faers::PreprocessOptions{})
                    .Process(dataset, &report, {}, ctx);
  ASSERT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  EXPECT_EQ(result.status().message(), "preprocess: run cancelled");
  EXPECT_TRUE(report.warnings.empty());
}

TEST(GovernedIngestTest, ProcessQuarterReturnsEveryStopWithTheQuarterLabel) {
  const faers::QuarterDataset dataset = GenerateRaw(2041, 3, 303);
  CancellationToken cancel;
  cancel.Cancel();
  MemoryBudget budget(64);
  ASSERT_TRUE(budget.TryCharge(64));
  RunContext cancelled, expired, exhausted;
  cancelled.cancel = &cancel;
  expired.deadline = Deadline::AfterMillis(0);
  exhausted.budget = &budget;
  struct Case {
    const RunContext* ctx;
    Status::Code code;
  };
  for (const Case& c : {Case{&cancelled, Status::Code::kCancelled},
                        Case{&expired, Status::Code::kDeadlineExceeded},
                        Case{&exhausted, Status::Code::kResourceExhausted}}) {
    for (bool dedup : {false, true}) {
      MultiQuarterOptions options;
      options.ingest.policy = faers::IngestPolicy::kPermissive;
      options.remove_duplicates = dedup;
      options.context = c.ctx;
      QuarterCheckpoint slot;
      const Status status =
          MultiQuarterPipeline(options).ProcessQuarter(dataset, &slot);
      EXPECT_EQ(status.code(), c.code) << status.ToString();
      EXPECT_EQ(status.message().rfind(
                    dedup ? "quarter 2041Q3: dedup: " : "quarter 2041Q3: "
                                                        "preprocess: ",
                    0),
                0u)
          << status.ToString();
      EXPECT_FALSE(slot.result.has_value());
    }
  }
}

TEST(GovernedIngestTest, UngovernedProcessQuarterLoads) {
  MultiQuarterOptions options;
  options.remove_duplicates = true;
  QuarterCheckpoint slot;
  ASSERT_TRUE(MultiQuarterPipeline(options)
                  .ProcessQuarter(GenerateRaw(2041, 3, 303), &slot)
                  .ok());
  EXPECT_TRUE(slot.outcome.loaded);
  ASSERT_TRUE(slot.result.has_value());
  EXPECT_GT(slot.result->stats.reports_kept, 0u);
}

// ---------------------------------------------------------------------------
// Execution-mode oracle: the in-memory analyzer and a one-quarter
// checkpointed pipeline run are two entry points onto one stage sequence,
// so they must agree byte-for-byte on the ranked MCACs and field-for-field
// on the rule-space statistics, over the whole option grid that steers the
// stages (itemset cap, database verification, threads). The lattice axis:
// the pipeline's ranking must also equal the MCAC stage run on its rules
// without the lattice — the lattice-free enumeration reference.
// ---------------------------------------------------------------------------

class PipelineModeDifferentialOracleTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineModeDifferentialOracleTest,
       AnalyzeMatchesOneQuarterRunAnalyzed) {
  faers::GeneratorConfig config;
  config.year = 2047;
  config.quarter = 1;
  config.n_reports = 500;
  config.n_drugs = 150;
  config.n_adrs = 80;
  config.seed = GetParam();
  auto dataset = faers::SyntheticGenerator(config).Generate();
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  auto pre = faers::Preprocessor(faers::PreprocessOptions{}).Process(*dataset);
  ASSERT_TRUE(pre.ok()) << pre.status().ToString();
  const std::vector<faers::QuarterDataset> quarters = {*dataset};
  const RankingMethod method = RankingMethod::kExclusivenessConfidence;
  const RunContext ungoverned;
  size_t mcacs_at_cap3[2] = {0, 0};  // indexed by verify_closed_in_db
  for (size_t cap : {size_t{0}, size_t{8}, size_t{3}}) {
    for (bool verify : {false, true}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE("cap=" + std::to_string(cap) +
                     " verify=" + std::to_string(verify) +
                     " threads=" + std::to_string(threads));
        AnalyzerOptions options;
        options.mining.min_support = 5;
        options.mining.max_itemset_size = cap;
        options.mining.num_threads = threads;
        options.verify_closed_in_db = verify;
        auto analyzed = MarasAnalyzer(options).Analyze(*pre);
        ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
        auto run = MultiQuarterPipeline(MultiQuarterOptions{})
                       .RunAnalyzed(quarters, options, method);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        ASSERT_GT(run->ranked.size(), 0u)
            << "corpus must produce MCACs or the oracle is vacuous";
        if (cap == 3) mcacs_at_cap3[verify ? 1 : 0] = run->ranked.size();
        const std::string ranked = EncodeRankedMcacs(run->ranked);
        EXPECT_EQ(EncodeRankedMcacs(RankMcacs(analyzed->mcacs, method,
                                              options.exclusiveness)),
                  ranked);
        auto enumerated = BuildRankedStage(
            run->rules, run->run.merged.items, run->run.merged.transactions,
            method, options, ungoverned, /*lattice=*/nullptr);
        ASSERT_TRUE(enumerated.ok()) << enumerated.status().ToString();
        EXPECT_EQ(EncodeRankedMcacs(*enumerated), ranked);
        EXPECT_EQ(analyzed->stats.total_rules, run->stats.total_rules);
        EXPECT_EQ(analyzed->stats.filtered_rules, run->stats.filtered_rules);
        EXPECT_EQ(analyzed->stats.closed_mixed, run->stats.closed_mixed);
        EXPECT_EQ(analyzed->stats.mcac_count, run->stats.mcac_count);
      }
    }
  }
  // Under a cap the database verification drops targets the capped family
  // wrongly calls closed; if it dropped none, the verify axis tested nothing.
  EXPECT_GT(mcacs_at_cap3[0], mcacs_at_cap3[1]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineModeDifferentialOracleTest,
                         ::testing::Values(101, 202));

TEST(ClassifyTrendTest, NamesComplete) {
  EXPECT_STREQ(TrendVerdictName(TrendVerdict::kEmerging), "emerging");
  EXPECT_STREQ(TrendVerdictName(TrendVerdict::kStable), "stable");
  EXPECT_STREQ(TrendVerdictName(TrendVerdict::kFading), "fading");
  EXPECT_STREQ(TrendVerdictName(TrendVerdict::kInsufficient),
               "insufficient");
}

}  // namespace
}  // namespace maras::core
