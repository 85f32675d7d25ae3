// Generates a complete quarterly surveillance report — the artifact a
// drug-safety evaluator would circulate: top interaction signals with
// context, severity/novelty triage, disproportionality panels,
// quarter-over-quarter trends for watched combinations, a JSON export for
// the visual front end, and trend/glyph SVGs.
//
//   $ ./examples/surveillance_report <output-dir> [reports=12000] [seed=20140101]
//       [--deadline-ms=N] [--memory-budget-mb=N]
//       [--checkpoint-dir=DIR] [--resume] [--workers=N]
//
// Writes: report.md, analysis.json, trend_*.svg, top_glyph.svg. The output
// directory (and any missing parent) is created before the analysis runs;
// if it cannot be created, or an artifact cannot be written, the Status is
// printed and the exit code is 1.
//
// The governance flags run the analysis through the resource-governed,
// checkpointed MultiQuarterPipeline: a deadline or memory budget stops a
// runaway run cooperatively (exit code 3) instead of hanging or OOMing,
// --checkpoint-dir snapshots each completed stage atomically, and --resume
// replays validated snapshots so an interrupted run picks up where it died.
//
// --workers=N (requires --checkpoint-dir) runs the crash-tolerant
// multi-process path instead: the shard supervisor spawns this same binary
// as worker processes (one per quarter, then N item-range mine shards; the
// --shard= flag marks a worker invocation), retries crashed or hung
// workers with deterministic backoff, and merges the checkpointed partials
// into the byte-identical single-process result.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include "core/analyzer.h"
#include "core/disproportionality.h"
#include "core/export.h"
#include "core/knowledge_base.h"
#include "core/multi_quarter.h"
#include "core/report_generator.h"
#include "core/severity.h"
#include "core/shard_supervisor.h"
#include "faers/generator.h"
#include "faers/preprocess.h"
#include "util/delimited.h"
#include "util/logging.h"
#include "util/run_context.h"
#include "util/string_util.h"
#include "util/subprocess.h"
#include "viz/glyph.h"
#include "viz/linechart.h"

using namespace maras;

namespace {

// Reports a failed artifact write on stderr; true when `status` is OK.
bool Written(const maras::Status& status, const std::string& path) {
  if (status.ok()) return true;
  std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
               status.ToString().c_str());
  return false;
}

faers::GeneratorConfig QuarterConfig(int quarter, size_t reports,
                                     uint64_t seed) {
  faers::GeneratorConfig config;
  config.quarter = quarter;
  config.n_reports = reports;
  config.seed = seed;
  return config;
}

faers::PreprocessResult PrepareQuarter(int quarter, size_t reports,
                                       uint64_t seed) {
  faers::SyntheticGenerator generator(QuarterConfig(quarter, reports, seed));
  auto dataset = generator.Generate();
  MARAS_CHECK(dataset.ok()) << dataset.status().ToString();
  faers::Preprocessor preprocessor{faers::PreprocessOptions{}};
  auto pre = preprocessor.Process(*dataset);
  MARAS_CHECK(pre.ok()) << pre.status().ToString();
  return *std::move(pre);
}

struct CliFlags {
  int64_t deadline_ms = 0;       // 0 = no deadline
  size_t memory_budget_mb = 0;   // 0 = no budget
  std::string checkpoint_dir;
  bool resume = false;
  size_t workers = 1;            // > 1 = multi-process shard supervisor
  std::string shard;             // non-empty = this process is a worker
  std::string chaos_exit;        // worker fault injection (tests)
  std::string chaos_hang;

  bool governed() const {
    return deadline_ms > 0 || memory_budget_mb > 0 ||
           !checkpoint_dir.empty() || workers > 1;
  }
};

bool ParseFlag(const std::string& arg, CliFlags* flags) {
  if (arg.rfind("--deadline-ms=", 0) == 0) {
    flags->deadline_ms = std::atoll(arg.c_str() + 14);
    return true;
  }
  if (arg.rfind("--memory-budget-mb=", 0) == 0) {
    flags->memory_budget_mb =
        static_cast<size_t>(std::atoll(arg.c_str() + 19));
    return true;
  }
  if (arg.rfind("--checkpoint-dir=", 0) == 0) {
    flags->checkpoint_dir = arg.substr(17);
    return true;
  }
  if (arg == "--resume") {
    flags->resume = true;
    return true;
  }
  if (arg.rfind("--workers=", 0) == 0) {
    flags->workers = static_cast<size_t>(std::atoll(arg.c_str() + 10));
    return true;
  }
  if (arg.rfind("--shard=", 0) == 0) {
    flags->shard = arg.substr(8);
    return true;
  }
  if (arg.rfind("--chaos-exit=", 0) == 0) {
    flags->chaos_exit = arg.substr(13);
    return true;
  }
  if (arg.rfind("--chaos-hang=", 0) == 0) {
    flags->chaos_hang = arg.substr(13);
    return true;
  }
  return false;
}

// The year's four synthetic quarters — workers rebuild exactly this corpus
// from the same (reports, seed) coordinates, so parent and child agree on
// every input byte without shipping data over a pipe.
std::vector<faers::QuarterDataset> BuildYear(size_t reports, uint64_t seed) {
  std::vector<faers::QuarterDataset> quarters;
  for (int q = 1; q <= 4; ++q) {
    faers::SyntheticGenerator generator(QuarterConfig(q, reports, seed));
    auto dataset = generator.Generate();
    MARAS_CHECK(dataset.ok()) << dataset.status().ToString();
    quarters.push_back(*std::move(dataset));
  }
  return quarters;
}

// Analyzer knobs shared by the single-process, supervisor, and worker
// paths; any drift here would break cross-mode byte-identity.
core::AnalyzerOptions MakeAnalyzerOptions(size_t reports, bool budgeted) {
  core::AnalyzerOptions analyzer;
  analyzer.mining.min_support = std::max<size_t>(6, reports / 4000);
  analyzer.mining.max_itemset_size = 7;
  // Under a budget, degrade (raise min_support, tag truncated) rather
  // than fail: a coarser report beats no report for a safety evaluator.
  analyzer.degradation.enabled = budgeted;
  return analyzer;
}

// A --shard= worker invocation: execute one shard, publish its checkpoint,
// exit. Spawned by the supervisor with this binary's own path.
int RunWorker(size_t reports, uint64_t seed, const CliFlags& flags) {
  auto spec = core::ParseShardArg(flags.shard);
  if (!spec.ok() || flags.checkpoint_dir.empty()) {
    std::fprintf(stderr, "bad worker invocation: %s\n",
                 spec.ok() ? "--checkpoint-dir is required"
                           : spec.status().ToString().c_str());
    return 2;
  }
  std::vector<faers::QuarterDataset> quarters = BuildYear(reports, seed);
  core::ShardWorkerConfig config;
  config.spec = *std::move(spec);
  config.checkpoint_dir = flags.checkpoint_dir;
  config.quarters = &quarters;
  config.analyzer = MakeAnalyzerOptions(reports, /*budgeted=*/false);
  config.chaos.exit_at = flags.chaos_exit;
  config.chaos.hang_at = flags.chaos_hang;
  maras::Status status = core::RunShardWorker(config);
  if (!status.ok()) {
    std::fprintf(stderr, "shard worker failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}

// The governed path: pooled multi-quarter analysis through the
// checkpointed, resource-governed pipeline — in-process by default, via
// the multi-process shard supervisor with --workers=N. Returns the
// process exit code.
int RunGoverned(const std::string& argv0, const std::string& out_dir,
                size_t reports, uint64_t seed, const CliFlags& flags) {
  std::vector<faers::QuarterDataset> quarters = BuildYear(reports, seed);

  CancellationToken cancel;
  MemoryBudget budget(flags.memory_budget_mb << 20);
  RunContext ctx;
  ctx.cancel = &cancel;
  if (flags.deadline_ms > 0) {
    ctx.deadline = Deadline::AfterMillis(flags.deadline_ms);
  }
  if (flags.memory_budget_mb > 0) ctx.budget = &budget;

  core::MultiQuarterOptions pipeline_options;
  pipeline_options.context = &ctx;
  pipeline_options.checkpoint_dir = flags.checkpoint_dir;
  pipeline_options.resume = flags.resume;

  core::AnalyzerOptions analyzer =
      MakeAnalyzerOptions(reports, ctx.budget != nullptr);

  core::ShardRunReport shard_report;
  auto analysis = [&]() -> maras::StatusOr<core::SurveillanceAnalysis> {
    if (flags.workers <= 1) {
      core::MultiQuarterPipeline pipeline(pipeline_options);
      return pipeline.RunAnalyzed(quarters, analyzer);
    }
    if (flags.checkpoint_dir.empty()) {
      return maras::Status::InvalidArgument(
          "--workers requires --checkpoint-dir (checkpoints are the "
          "worker/supervisor channel)");
    }
    core::ShardSupervisorOptions supervisor_options;
    supervisor_options.workers = flags.workers;
    supervisor_options.worker_command = {
        CurrentExecutablePath(argv0), out_dir, std::to_string(reports),
        std::to_string(seed), "--checkpoint-dir=" + flags.checkpoint_dir};
    core::ShardSupervisor supervisor(supervisor_options);
    return supervisor.RunAnalyzed(quarters, pipeline_options, analyzer,
                                  core::RankingMethod::kExclusivenessConfidence,
                                  &shard_report);
  }();
  if (!analysis.ok()) {
    const maras::Status& status = analysis.status();
    std::fprintf(stderr, "surveillance run stopped: %s\n",
                 status.ToString().c_str());
    return status.IsDeadlineExceeded() || status.IsResourceExhausted() ||
                   status.IsCancelled()
               ? 3
               : 1;
  }

  std::printf("pooled %zu/%zu quarters: %zu reports, %zu rules, "
              "%zu ranked MCACs (min_support=%zu%s)\n",
              analysis->run.quarters_loaded, quarters.size(),
              analysis->run.merged.transactions.size(),
              analysis->rules.size(), analysis->ranked.size(),
              analysis->min_support_used,
              analysis->truncated ? ", truncated" : "");
  if (analysis->stages_resumed > 0) {
    std::printf("resumed %zu stage(s) from %s\n", analysis->stages_resumed,
                flags.checkpoint_dir.c_str());
  }
  if (flags.workers > 1) {
    std::printf("sharded across %zu workers: %zu shards, %zu attempts, "
                "%zu retries, %zu quarantined\n",
                flags.workers, shard_report.shards, shard_report.attempts,
                shard_report.retries, shard_report.quarantined);
    for (const std::string& note : shard_report.notes) {
      std::printf("shard note: %s\n", note.c_str());
    }
  }
  for (const std::string& note : analysis->notes) {
    std::printf("note: %s\n", note.c_str());
  }
  if (ctx.budget != nullptr) {
    std::printf("memory budget: peak %.1f MiB of %.1f MiB\n",
                static_cast<double>(ctx.budget->peak()) / (1 << 20),
                static_cast<double>(ctx.budget->limit()) / (1 << 20));
  }

  core::AnalysisResult exportable;
  exportable.stats = analysis->stats;
  exportable.truncated = analysis->truncated;
  for (const auto& ranked : analysis->ranked) {
    exportable.mcacs.push_back(ranked.mcac);
  }
  core::ExportOptions export_options;
  export_options.max_clusters = 50;
  std::string json_text = core::ExportAnalysisToJson(
      exportable, analysis->run.merged.items,
      core::RankingMethod::kExclusivenessConfidence,
      core::ExclusivenessOptions{}, export_options);
  const std::string json_path = out_dir + "/analysis.json";
  if (!Written(AtomicWriteStringToFile(json_path, json_text), json_path)) {
    return 1;
  }
  std::printf("wrote analysis.json to %s\n", out_dir.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A worker whose supervisor died mid-read must see EPIPE as a Status,
  // not die on SIGPIPE — and vice versa for the supervisor's pipe writes.
  IgnoreSigpipeProcessWide();
  CliFlags flags;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!ParseFlag(arg, &flags)) positional.push_back(std::move(arg));
  }
  if (positional.empty()) {
    std::fprintf(stderr,
                 "usage: %s <output-dir> [reports] [seed] [--deadline-ms=N] "
                 "[--memory-budget-mb=N] [--checkpoint-dir=DIR] [--resume] "
                 "[--workers=N]\n",
                 argv[0]);
    return 2;
  }
  const std::string out_dir = positional[0];
  const size_t reports =
      positional.size() > 1
          ? static_cast<size_t>(std::atoll(positional[1].c_str()))
          : 12000;
  const uint64_t seed =
      positional.size() > 2
          ? std::strtoull(positional[2].c_str(), nullptr, 10)
          : 20140101;

  if (!flags.shard.empty()) return RunWorker(reports, seed, flags);
  // Create the output directory before hours of analysis, not after.
  std::error_code mkdir_error;
  std::filesystem::create_directories(out_dir, mkdir_error);
  if (mkdir_error) {
    std::fprintf(stderr, "cannot create output directory %s: %s\n",
                 out_dir.c_str(), mkdir_error.message().c_str());
    return 1;
  }
  if (flags.governed()) {
    return RunGoverned(argv[0], out_dir, reports, seed, flags);
  }

  // Load the year; the report focuses on the latest quarter (Q4).
  std::vector<faers::PreprocessResult> year;
  std::vector<const faers::PreprocessResult*> year_ptrs;
  std::vector<std::string> labels;
  for (int q = 1; q <= 4; ++q) {
    year.push_back(PrepareQuarter(q, reports, seed));
    labels.push_back("2014Q" + std::to_string(q));
  }
  for (const auto& quarter : year) year_ptrs.push_back(&quarter);
  const faers::PreprocessResult& current = year.back();

  core::AnalyzerOptions options;
  options.mining.min_support = std::max<size_t>(6, reports / 4000);
  core::MarasAnalyzer analyzer(options);
  auto analysis = analyzer.Analyze(current);
  MARAS_CHECK(analysis.ok()) << analysis.status().ToString();
  core::ExclusivenessOptions scoring;
  auto ranked = core::RankMcacs(
      analysis->mcacs, core::RankingMethod::kExclusivenessConfidence,
      scoring);
  core::KnowledgeBase kb = core::CuratedKnowledgeBase();

  // ---- report.md -----------------------------------------------------
  core::ReportInputs report_inputs;
  report_inputs.title = "MARAS quarterly surveillance report — 2014 Q4";
  report_inputs.current = &current;
  report_inputs.analysis = &*analysis;
  report_inputs.ranked = &ranked;
  report_inputs.knowledge_base = &kb;
  std::vector<viz::LineChartRenderer::Series> all_series;
  for (const auto& known : faers::KnownInteractions()) {
    core::WatchlistEntry entry;
    entry.label = Join(known.drugs, std::string_view(" + "));
    entry.trend = core::TrackSignal(year_ptrs, labels, known.drugs,
                                    known.adrs);
    if (all_series.size() < 4) {
      viz::LineChartRenderer::Series series;
      series.name = known.drugs[0];
      for (const auto& row : entry.trend) {
        series.values.push_back(row.confidence);
      }
      all_series.push_back(std::move(series));
    }
    report_inputs.watchlist.push_back(std::move(entry));
  }
  auto md = core::GenerateMarkdownReport(report_inputs);
  MARAS_CHECK(md.ok()) << md.status().ToString();

  // ---- artifacts ------------------------------------------------------
  const std::string md_path = out_dir + "/report.md";
  if (!Written(AtomicWriteStringToFile(md_path, *md), md_path)) return 1;

  core::ExportOptions export_options;
  export_options.max_clusters = 50;
  std::string json_text = core::ExportAnalysisToJson(
      *analysis, current.items,
      core::RankingMethod::kExclusivenessConfidence, scoring,
      export_options);
  const std::string json_path = out_dir + "/analysis.json";
  if (!Written(AtomicWriteStringToFile(json_path, json_text), json_path)) {
    return 1;
  }

  viz::LineChartRenderer lines(viz::LineChartOptions{
      .y_min = 0.0, .y_max = 1.0, .y_label = "confidence"});
  const std::string trend_path = out_dir + "/trend_watchlist.svg";
  if (!Written(lines.Render(labels, all_series,
                            "Watched combinations, 2014 trend")
                   .WriteFile(trend_path),
               trend_path)) {
    return 1;
  }

  if (!ranked.empty()) {
    viz::ContextualGlyphRenderer glyph;
    viz::GlyphSpec spec =
        viz::GlyphSpecFromMcac(ranked[0].mcac, current.items);
    const std::string glyph_path = out_dir + "/top_glyph.svg";
    if (!Written(glyph.RenderZoom(spec).WriteFile(glyph_path), glyph_path)) {
      return 1;
    }
  }

  std::printf("wrote report.md, analysis.json, trend_watchlist.svg, "
              "top_glyph.svg to %s\n",
              out_dir.c_str());
  std::printf("clusters: %zu ranked; top signal: %s\n", ranked.size(),
              ranked.empty()
                  ? "(none)"
                  : core::RuleToString(ranked[0].mcac.target, current.items)
                        .c_str());
  return 0;
}
