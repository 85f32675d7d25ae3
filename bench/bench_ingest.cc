// Micro-benchmarks for the resilient ingestion layer: the cost of the
// policy-aware ASCII reader on clean data (strict vs quarantine), recovery
// from a corrupted quarter, and the corruption harness itself. Strict-mode
// parsing of clean data is the hot path — the lenient policies must not tax
// it.
//
// `--smoke` is the Release-mode result-hash gate (bench-smoke ctest label):
// read -> dedup -> preprocess on a tiny corrupted fixture under each
// policy, hashing the parsed dataset, the IngestReport and the
// PreprocessResult against committed values.

#include <bit>
#include <cstdio>
#include <cstring>
#include <string>

#include <benchmark/benchmark.h>

#include "core/checkpoint.h"
#include "core/multi_quarter.h"
#include "faers/ascii_format.h"
#include "faers/corruptor.h"
#include "faers/generator.h"
#include "util/binary_io.h"

namespace {

using namespace maras;

faers::AsciiQuarterFiles CleanQuarter(size_t reports) {
  faers::GeneratorConfig config;
  config.seed = 20140101;
  config.n_reports = reports;
  config.n_drugs = 1000;
  config.n_adrs = 400;
  faers::SyntheticGenerator generator(config);
  auto dataset = generator.Generate();
  auto files = faers::WriteAsciiQuarter(*dataset);
  return *files;
}

faers::IngestOptions PolicyOptions(faers::IngestPolicy policy) {
  faers::IngestOptions options;
  options.policy = policy;
  options.max_bad_row_fraction = 0.5;
  return options;
}

void BM_IngestCleanStrict(benchmark::State& state) {
  faers::AsciiQuarterFiles files =
      CleanQuarter(static_cast<size_t>(state.range(0)));
  size_t reports = 0;
  for (auto _ : state) {
    auto parsed = faers::ReadAsciiQuarter(files, 2014, 1);
    benchmark::DoNotOptimize(reports = parsed->reports.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(reports));
}
BENCHMARK(BM_IngestCleanStrict)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_IngestCleanQuarantine(benchmark::State& state) {
  faers::AsciiQuarterFiles files =
      CleanQuarter(static_cast<size_t>(state.range(0)));
  faers::IngestOptions options =
      PolicyOptions(faers::IngestPolicy::kQuarantine);
  size_t reports = 0;
  for (auto _ : state) {
    faers::IngestReport report;
    auto parsed = faers::ReadAsciiQuarter(files, 2014, 1, options, &report);
    benchmark::DoNotOptimize(reports = parsed->reports.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(reports));
}
BENCHMARK(BM_IngestCleanQuarantine)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_IngestCorruptedQuarantine(benchmark::State& state) {
  faers::AsciiQuarterFiles clean =
      CleanQuarter(static_cast<size_t>(state.range(0)));
  faers::CorruptorConfig config;
  config.seed = 7;
  config.faults = faers::AllRowFaults(8);
  auto corrupted = faers::Corruptor(config).Corrupt(clean, 2014, 1);
  faers::IngestOptions options =
      PolicyOptions(faers::IngestPolicy::kQuarantine);
  size_t rejected = 0;
  for (auto _ : state) {
    faers::IngestReport report;
    auto parsed =
        faers::ReadAsciiQuarter(corrupted->files, 2014, 1, options, &report);
    benchmark::DoNotOptimize(parsed->reports.size());
    rejected = report.rows_rejected;
  }
  state.counters["rows_rejected"] = static_cast<double>(rejected);
}
BENCHMARK(BM_IngestCorruptedQuarantine)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_CorruptQuarter(benchmark::State& state) {
  faers::AsciiQuarterFiles clean = CleanQuarter(4000);
  faers::CorruptorConfig config;
  config.seed = 7;
  config.faults = faers::AllRowFaults(static_cast<size_t>(state.range(0)));
  faers::Corruptor corruptor(config);
  for (auto _ : state) {
    auto corrupted = corruptor.Corrupt(clean, 2014, 1);
    benchmark::DoNotOptimize(corrupted->faults.size());
  }
}
BENCHMARK(BM_CorruptQuarter)->Arg(4)->Arg(32)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// --smoke
// ---------------------------------------------------------------------------

std::string EncodeDataset(const faers::QuarterDataset& dataset) {
  BinaryWriter w;
  w.U64(dataset.reports.size());
  for (const faers::Report& r : dataset.reports) {
    w.U64(r.case_id);
    w.U32(r.case_version);
    w.U8(static_cast<uint8_t>(r.type));
    w.U8(static_cast<uint8_t>(r.sex));
    w.U64(std::bit_cast<uint64_t>(r.age));
    w.Str(r.country);
    w.U64(r.drugs.size());
    for (const std::string& name : r.drugs) w.Str(name);
    w.U64(r.reactions.size());
    for (const std::string& pt : r.reactions) w.Str(pt);
  }
  return std::move(w.Take());
}

// Reads `files` under `policy`, then validates, dedups and preprocesses the
// quarter exactly as MultiQuarterPipeline does, and hashes every output:
// the read Status, the dataset, and the quarter slot (IngestReport +
// PreprocessResult).
uint64_t IngestHash(const faers::AsciiQuarterFiles& files,
                    faers::IngestPolicy policy) {
  core::MultiQuarterOptions options;
  options.ingest.policy = policy;
  options.ingest.max_bad_row_fraction = 0.5;
  options.ingest.max_quarantined_rows = 3;
  options.remove_duplicates = true;
  const core::MultiQuarterPipeline pipeline(options);
  core::QuarterCheckpoint slot;
  auto dataset = faers::ReadAsciiQuarter(files, 2014, 1, options.ingest,
                                         &slot.outcome.ingest);
  std::string bytes = dataset.status().ToString();
  if (dataset.ok()) {
    bytes += EncodeDataset(*dataset);
    const Status processed = pipeline.ProcessQuarter(*dataset, &slot);
    if (!processed.ok()) bytes += processed.ToString();
  }
  bytes += core::EncodeQuarterCheckpoint(slot);
  return core::Fnv1a64(bytes);
}

bool RunSmoke() {
  faers::GeneratorConfig config;
  config.seed = 20140101;
  config.n_reports = 400;
  config.n_drugs = 20;
  config.n_adrs = 10;
  config.mean_extra_drugs_per_report = 0.3;
  config.mean_extra_adrs_per_report = 0.2;
  config.misspelling_rate = 0.1;
  config.alias_rate = 0.3;
  auto generated = faers::SyntheticGenerator(config).Generate();
  auto clean = faers::WriteAsciiQuarter(*generated);
  faers::CorruptorConfig corrupt;
  corrupt.seed = 7;
  corrupt.faults = faers::AllRowFaults(2);
  auto corrupted = faers::Corruptor(corrupt).Corrupt(*clean, 2014, 1);

  struct Case {
    const char* name;
    const faers::AsciiQuarterFiles* files;
    faers::IngestPolicy policy;
    uint64_t want;
  };
  const Case cases[] = {
      {"clean/strict", &*clean, faers::IngestPolicy::kStrict,
       0xf74477c8ea4f0250ull},
      {"corrupt/strict", &corrupted->files, faers::IngestPolicy::kStrict,
       0x18874db9bf7569bdull},
      {"corrupt/permissive", &corrupted->files,
       faers::IngestPolicy::kPermissive, 0x19a28c7c8339313full},
      {"corrupt/quarantine", &corrupted->files,
       faers::IngestPolicy::kQuarantine, 0x3e280f3c3ad56657ull},
  };
  bool ok = true;
  for (const Case& c : cases) {
    const uint64_t got = IngestHash(*c.files, c.policy);
    std::printf("smoke: %-20s result-hash %016llx\n", c.name,
                static_cast<unsigned long long>(got));
    if (got != c.want) {
      std::fprintf(stderr, "smoke: %s: want %016llx\n", c.name,
                   static_cast<unsigned long long>(c.want));
      ok = false;
    }
  }
  if (!ok) std::fprintf(stderr, "smoke: RESULT HASH MISMATCH\n");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) return RunSmoke() ? 0 : 1;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
