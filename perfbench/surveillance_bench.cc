// End-to-end benchmark of the MARAS surveillance product path:
//
//   FAERS ASCII quarter files on disk -> read/validate/preprocess -> mine ->
//   closed filter -> rules -> concept lattice -> MCAC rank -> snapshot
//   publish -> drill-down queries on the published generation.
//
// One process plays one role and prints one JSON object on stdout:
//
//   surveillance_bench workloads
//       Lists the workloads with their worker threads and the thread count
//       of the gate pass that must publish the same snapshot bytes.
//
//   surveillance_bench setup --workload W --seed S --dir D
//       Generates the workload's four synthetic quarters and writes them to
//       D as FAERS ASCII files, corrupted on workloads that inject row
//       faults, and reports the time taken and a digest of the files. This
//       is benchmark set-up; the product never pays for it.
//
//   surveillance_bench pass --workload W --seed S --dir D --store DIR
//                           [--threads N] [--traced] [--requests N]
//       Runs the production path over the files in D once, publishing into
//       the snapshot store DIR (emptied first).
//       Untraced, it times the path exactly as the product runs it:
//       ReadAsciiQuarterFromDir x4, MultiQuarterPipeline::RunAnalyzed,
//       SnapshotStore::Publish, Acquire, QueryEngine::Create.
//       Traced, it calls each stage's public function in turn, with the
//       options RunAnalyzed gets, and records one span per call plus the
//       counts each layer produced; then, with N > 0, it times batches of N
//       calls of each query call alone.
//       Both modes finish with correctness checks outside the timed region
//       and report digests of the ranked signals and of the snapshot file,
//       so the caller can compare passes.
//
//   surveillance_bench query --workload W --seed S --store DIR --requests N
//       A reader process, as maras-query is one: opens the committed
//       generation of DIR and drives the closed-loop drill-down query phase
//       of N requests against it, reporting every request's latency and the
//       digest of the generation file it served.
//
// run.py orchestrates these processes; README.md describes the metrics.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/analysis_stages.h"
#include "core/analyzer.h"
#include "core/checkpoint.h"
#include "core/multi_quarter.h"
#include "faers/ascii_format.h"
#include "faers/corruptor.h"
#include "faers/generator.h"
#include "serve/query_engine.h"
#include "serve/snapshot_store.h"
#include "serve/snapshot_writer.h"
#include "util/json.h"
#include "util/random.h"
#include "util/run_context.h"

namespace maras::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr int kYear = 2014;
constexpr int kQuarters = 4;

// Every knob that shapes one workload. The corpus depends only on the
// generator fields and the seed; `threads` changes execution, never bytes.
struct Workload {
  std::string name;
  size_t reports_per_quarter = 0;
  size_t n_drugs = 0;
  size_t n_adrs = 0;
  double extra_drugs_mean = 0.0;
  double misspelling_rate = 0.0;
  double alias_rate = 0.0;
  size_t faults_per_kind = 0;  // corruptor row faults of each kind, per quarter
  size_t min_support = 0;
  size_t max_itemset_size = 0;
  size_t threads = 1;
  // Another thread count at which the caller runs the same corpus once per
  // run; its snapshot must be byte-identical to this one's. 0 when none.
  size_t partner_threads = 0;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = [] {
    // Large, dirty quarters mined at a high support: ingest dominates.
    Workload ingest{.name = "ingest_heavy",
                    .reports_per_quarter = 60000,
                    .n_drugs = 2500,
                    .n_adrs = 900,
                    .extra_drugs_mean = 2.2,
                    .misspelling_rate = 0.06,
                    .alias_rate = 0.30,
                    .faults_per_kind = 1,
                    .min_support = 300,
                    .max_itemset_size = 7,
                    .threads = 2};
    // Smaller quarters of long drug lists mined at a low support: rules,
    // lattice, MCAC ranking and the snapshot dominate. The 1-thread partner
    // pass shows the thread pool's share (util) and checks determinism.
    Workload dense{.name = "dense_signals",
                   .reports_per_quarter = 12000,
                   .n_drugs = 2500,
                   .n_adrs = 900,
                   .extra_drugs_mean = 3.2,
                   .misspelling_rate = 0.015,
                   .alias_rate = 0.10,
                   .faults_per_kind = 0,
                   .min_support = 6,
                   .max_itemset_size = 7,
                   .threads = 2,
                   .partner_threads = 1};
    return std::vector<Workload>{ingest, dense};
  }();
  return kWorkloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& workload : Workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

faers::GeneratorConfig QuarterConfig(const Workload& workload, uint64_t seed,
                                     int quarter) {
  faers::GeneratorConfig config;
  config.seed = seed;
  config.year = kYear;
  config.quarter = quarter;
  config.n_reports = workload.reports_per_quarter;
  config.n_drugs = workload.n_drugs;
  config.n_adrs = workload.n_adrs;
  config.mean_extra_drugs_per_report = workload.extra_drugs_mean;
  config.misspelling_rate = workload.misspelling_rate;
  config.alias_rate = workload.alias_rate;
  return config;
}

faers::IngestOptions IngestConfig() {
  faers::IngestOptions ingest;
  ingest.policy = faers::IngestPolicy::kQuarantine;
  return ingest;
}

core::MultiQuarterOptions PipelineConfig(size_t threads) {
  core::MultiQuarterOptions options;
  options.ingest = IngestConfig();
  options.num_threads = threads;
  return options;
}

core::AnalyzerOptions AnalyzerConfig(const Workload& workload,
                                     size_t threads) {
  core::AnalyzerOptions analyzer;
  analyzer.mining.min_support = workload.min_support;
  analyzer.mining.max_itemset_size = workload.max_itemset_size;
  analyzer.mining.num_threads = threads;
  return analyzer;
}

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// High-water mark of this process's resident set, from VmHWM. Unlike
// getrusage's ru_maxrss, it starts afresh at exec, so the size of the
// process that spawned this one does not leak into it.
size_t PeakRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;  // kB
    }
  }
  return 0;
}

// FNV-1a-64 as a hex string: a digest for comparing bytes across processes.
std::string Digest(std::string_view bytes) {
  uint64_t hash = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

// Check failures collected during a pass; any entry fails the pass.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  void ExpectOk(const Status& status, const std::string& what) {
    if (!status.ok()) failures_.push_back(what + ": " + status.ToString());
  }
  json::Value ToJson() const {
    json::Value::Array out;
    for (const std::string& failure : failures_) out.emplace_back(failure);
    return out;
  }

 private:
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// setup
// ---------------------------------------------------------------------------

// Generates one quarter and writes it to `dir`, through the corruptor on
// workloads that inject row faults; adds the faults injected to *row_faults.
Status WriteQuarter(const Workload& workload, uint64_t seed, int quarter,
                    const std::string& dir, size_t* row_faults) {
  faers::SyntheticGenerator generator(QuarterConfig(workload, seed, quarter));
  MARAS_ASSIGN_OR_RETURN(faers::QuarterDataset dataset, generator.Generate());
  if (workload.faults_per_kind == 0) {
    return faers::WriteAsciiQuarterToDir(dataset, dir);
  }
  MARAS_ASSIGN_OR_RETURN(faers::AsciiQuarterFiles clean,
                         faers::WriteAsciiQuarter(dataset));
  faers::Corruptor corruptor(faers::CorruptorConfig{
      .seed = seed * kQuarters + static_cast<uint64_t>(quarter),
      .faults = faers::AllRowFaults(workload.faults_per_kind)});
  MARAS_ASSIGN_OR_RETURN(faers::CorruptionResult corrupted,
                         corruptor.Corrupt(clean, kYear, quarter));
  *row_faults += corrupted.RowFaultCount();
  return faers::WriteCorruptedQuarterToDir(corrupted, dir, kYear, quarter);
}

int Setup(const Workload& workload, uint64_t seed, const std::string& dir) {
  // Clearing the previous corpus is not part of set-up time.
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  const Clock::time_point start = Clock::now();
  size_t row_faults = 0;
  for (int quarter = 1; quarter <= kQuarters; ++quarter) {
    Status status = WriteQuarter(workload, seed, quarter, dir, &row_faults);
    if (!status.ok()) {
      std::fprintf(stderr, "setup quarter %d: %s\n", quarter,
                   status.ToString().c_str());
      return 1;
    }
  }
  const double setup_s = Seconds(start, Clock::now());

  // Digest of every file written, by name, so set-ups can be compared.
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  uint64_t input_bytes = 0;
  std::string digests;
  for (const fs::path& file : files) {
    StatusOr<std::string> bytes = ReadFile(file.string());
    if (!bytes.ok()) {
      std::fprintf(stderr, "%s\n", bytes.status().ToString().c_str());
      return 1;
    }
    input_bytes += bytes->size();
    digests += file.filename().string() + " " + Digest(*bytes) + "\n";
    // Flushed outside the timed region, so that no write-back of this
    // corpus lands in the pass that runs next.
    const int fd = ::open(file.c_str(), O_RDONLY);
    const bool synced = fd >= 0 && ::fsync(fd) == 0;
    if (fd >= 0) ::close(fd);
    if (!synced) {
      std::fprintf(stderr, "cannot flush %s\n", file.c_str());
      return 1;
    }
  }
  json::Value::Object out;
  out["setup_s"] = setup_s;
  out["row_faults"] = row_faults;
  out["input_bytes"] = static_cast<double>(input_bytes);
  out["corpus_digest"] = Digest(digests);
  std::printf("%s\n", json::Serialize(json::Value(std::move(out))).c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// pass: shared pieces
// ---------------------------------------------------------------------------

// Spans are kept in memory and printed with the pass result. Times are
// seconds from the start of the pass; parent is an index into the list, -1
// for the root.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

class Trace {
 public:
  explicit Trace(Clock::time_point origin) : origin_(origin) {}

  int Begin(std::string name, int parent) {
    spans_.push_back(
        Span{std::move(name), Seconds(origin_, Clock::now()), 0.0, parent});
    return static_cast<int>(spans_.size() - 1);
  }
  // Closes `span` and returns its duration.
  double End(int span) {
    Span& s = spans_[static_cast<size_t>(span)];
    s.end = Seconds(origin_, Clock::now());
    return s.end - s.start;
  }
  json::Value ToJson() const {
    json::Value::Array out;
    for (const Span& span : spans_) {
      json::Value::Object entry;
      entry["name"] = span.name;
      entry["start_s"] = span.start;
      entry["end_s"] = span.end;
      entry["parent"] = span.parent;
      out.emplace_back(std::move(entry));
    }
    return out;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

serve::SnapshotInputs MakeSnapshotInputs(
    const faers::PreprocessResult& merged,
    const std::vector<core::RankedMcac>& ranked,
    const core::RuleSpaceStats& stats) {
  serve::SnapshotInputs inputs;
  inputs.items = &merged.items;
  inputs.signals = &ranked;
  inputs.stats = stats;
  inputs.db = &merged.transactions;
  inputs.primary_ids = &merged.primary_ids;
  return inputs;
}

serve::SnapshotStore::Options StoreConfig(const std::string& dir) {
  serve::SnapshotStore::Options options;
  options.dir = dir;
  return options;
}

// Share of the generator's injected signals recovered: some ranked target
// holds all of the signal's drugs and at least one of its ADRs.
double GroundTruthRecall(const Workload& workload, uint64_t seed,
                         const mining::ItemDictionary& items,
                         const std::vector<core::RankedMcac>& ranked) {
  const faers::GroundTruth truth =
      faers::SyntheticGenerator(QuarterConfig(workload, seed, 1))
          .ground_truth();
  if (truth.signals.empty()) return 0.0;
  size_t found = 0;
  for (const faers::SignalSpec& signal : truth.signals) {
    mining::Itemset drugs;
    bool known = true;
    for (const std::string& name : signal.drugs) {
      StatusOr<mining::ItemId> id = items.Lookup(name);
      if (!id.ok()) {
        known = false;
        break;
      }
      drugs.push_back(*id);
    }
    if (!known) continue;
    drugs = mining::MakeItemset(std::move(drugs));
    std::set<mining::ItemId> adrs;
    for (const std::string& name : signal.adrs) {
      StatusOr<mining::ItemId> id = items.Lookup(name);
      if (id.ok()) adrs.insert(*id);
    }
    for (const core::RankedMcac& signal_out : ranked) {
      const core::DrugAdrRule& target = signal_out.mcac.target;
      if (!mining::IsSubset(drugs, target.drugs)) continue;
      bool adr_hit = false;
      for (mining::ItemId id : target.adrs) adr_hit |= adrs.count(id) > 0;
      if (adr_hit) {
        ++found;
        break;
      }
    }
  }
  return static_cast<double>(found) /
         static_cast<double>(truth.signals.size());
}

// The analyst-facing query mix, drawn from the served snapshot by the seed.
// Drill-down names are the drugs that have signals, most-signalled first,
// sampled Zipf-skewed (s = kNameZipf, flat enough that the mix covers many
// names, so its cost varies little from seed to seed); dashboard sizes are
// Zipf-skewed over 1..kMaxTopK.
constexpr double kNameZipf = 0.5;
constexpr uint32_t kMaxTopK = 50;
constexpr uint64_t kDashboardEvery = 10;  // about one request in ten

struct QueryMix {
  std::vector<std::string> names;      // drill-down name per drug rank
  std::vector<uint32_t> name_items;    // its item id
  std::vector<uint32_t> first_hits;    // its best-ranked signal
  // Request i is a dashboard TopK(k[i]) when dashboard[i], otherwise a
  // drill-down on names[drug[i]]. Every request draws both, so the per-call
  // batches can use either for any i.
  std::vector<bool> dashboard;
  std::vector<uint32_t> k;
  std::vector<uint32_t> drug;
};

StatusOr<QueryMix> MakeQueryMix(const serve::QueryEngine& engine,
                                uint64_t seed, size_t requests) {
  const serve::SignalSnapshot& snapshot = engine.snapshot();
  struct Candidate {
    size_t signals;
    uint32_t item;
    std::string name;
    uint32_t first_hit;
  };
  std::vector<Candidate> candidates;
  std::vector<uint32_t> postings;
  for (uint32_t item = 0; item < snapshot.counts().items; ++item) {
    mining::ItemDomain domain;
    MARAS_RETURN_IF_ERROR(snapshot.Domain(item, &domain));
    if (domain != mining::ItemDomain::kDrug) continue;
    MARAS_RETURN_IF_ERROR(
        snapshot.Postings(mining::ItemDomain::kDrug, item, &postings));
    if (postings.empty()) continue;
    std::string_view name;
    MARAS_RETURN_IF_ERROR(snapshot.ItemName(item, &name));
    candidates.push_back(
        Candidate{postings.size(), item, std::string(name), postings.front()});
  }
  if (candidates.empty()) {
    return Status::FailedPrecondition("snapshot has no drug with signals");
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.signals != b.signals ? a.signals > b.signals
                                            : a.item < b.item;
            });
  QueryMix mix;
  for (Candidate& candidate : candidates) {
    mix.names.push_back(std::move(candidate.name));
    mix.name_items.push_back(candidate.item);
    mix.first_hits.push_back(candidate.first_hit);
  }
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  ZipfTable name_zipf(mix.names.size(), kNameZipf);
  ZipfTable k_zipf(kMaxTopK, 1.0);
  for (size_t i = 0; i < requests; ++i) {
    mix.dashboard.push_back(rng.Uniform(kDashboardEvery) == 0);
    mix.k.push_back(static_cast<uint32_t>(k_zipf.Sample(&rng)) + 1);
    mix.drug.push_back(static_cast<uint32_t>(name_zipf.Sample(&rng)));
  }
  return mix;
}

// One request. A drill-down is SignalsForDrug -> Materialize the first hit
// -> SupportingReportIds -> Generalize + Specialize; a dashboard is TopK(k)
// with every row materialized. Returns a non-OK status when a call fails or
// its answer is inconsistent. `sink` absorbs answer sizes so no call can be
// optimized away.
Status RunRequest(const serve::QueryEngine& engine, const QueryMix& mix,
                  size_t i, uint64_t* sink) {
  if (mix.dashboard[i]) {
    const uint32_t k = mix.k[i];
    std::vector<uint32_t> top = engine.TopK(k);
    if (top.size() != std::min<size_t>(k, engine.snapshot().counts().signals)) {
      return Status::Internal("TopK returned " + std::to_string(top.size()));
    }
    for (uint32_t signal : top) {
      MARAS_ASSIGN_OR_RETURN(core::RankedMcac row, engine.Materialize(signal));
      *sink += row.mcac.levels.size();
    }
    return Status::OK();
  }
  const uint32_t d = mix.drug[i];
  MARAS_ASSIGN_OR_RETURN(std::vector<uint32_t> hits,
                         engine.SignalsForDrug(mix.names[d]));
  if (hits.empty()) return Status::Internal("no signals for " + mix.names[d]);
  const uint32_t first = hits.front();
  MARAS_ASSIGN_OR_RETURN(core::RankedMcac signal, engine.Materialize(first));
  const core::DrugAdrRule& target = signal.mcac.target;
  if (!std::binary_search(target.drugs.begin(), target.drugs.end(),
                          mix.name_items[d])) {
    return Status::Internal("signal does not mention " + mix.names[d]);
  }
  MARAS_ASSIGN_OR_RETURN(std::vector<uint64_t> reports,
                         engine.SupportingReportIds(first));
  if (reports.size() != target.support) {
    return Status::Internal("report ids disagree with support");
  }
  *sink += hits.size() + reports.size();
  if (engine.HasLatticeNav()) {
    MARAS_ASSIGN_OR_RETURN(std::vector<uint32_t> up, engine.Generalize(first));
    MARAS_ASSIGN_OR_RETURN(std::vector<uint32_t> down,
                           engine.Specialize(first));
    *sink += up.size() + down.size();
  }
  return Status::OK();
}

// Closed loop, one caller: each request starts when the previous returns.
json::Value RunQueryPhase(const serve::QueryEngine& engine,
                          const QueryMix& mix, size_t requests) {
  std::vector<double> latency_ns;
  latency_ns.reserve(requests);
  size_t failed = 0;
  uint64_t sink = 0;
  std::string first_error;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < requests; ++i) {
    const Clock::time_point t0 = Clock::now();
    Status status = RunRequest(engine, mix, i, &sink);
    const Clock::time_point t1 = Clock::now();
    latency_ns.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count()));
    if (!status.ok()) {
      if (failed == 0) first_error = status.ToString();
      ++failed;
    }
  }
  const double elapsed_s = Seconds(start, Clock::now());
  json::Value::Array latencies;
  latencies.reserve(latency_ns.size());
  for (double ns : latency_ns) latencies.emplace_back(ns);
  json::Value::Object out;
  out["requests"] = requests;
  out["failed"] = failed;
  out["first_error"] = first_error;
  out["elapsed_s"] = elapsed_s;
  out["latency_ns"] = std::move(latencies);
  out["sink"] = static_cast<double>(sink % 1000003);
  return out;
}

// Per-call mean of one query call, over a timed batch of that call alone.
template <typename Call>
double TimeBatchUs(size_t calls, Call&& call) {
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < calls; ++i) call(i);
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
             .count() /
         static_cast<double>(calls);
}

json::Value TimeQueryCalls(const serve::QueryEngine& engine,
                           const QueryMix& mix, size_t calls, uint64_t* sink,
                           Checks* checks) {
  size_t errors = 0;
  auto hit = [&](size_t i) { return mix.first_hits[mix.drug[i]]; };
  json::Value::Object out;
  out["serve.topk_us"] = TimeBatchUs(calls, [&](size_t i) {
    *sink += engine.TopK(mix.k[i]).size();
  });
  out["serve.drug_lookup_us"] = TimeBatchUs(calls, [&](size_t i) {
    auto hits = engine.SignalsForDrug(mix.names[mix.drug[i]]);
    if (hits.ok()) *sink += hits->size(); else ++errors;
  });
  out["serve.materialize_us"] = TimeBatchUs(calls, [&](size_t i) {
    auto signal = engine.Materialize(hit(i));
    if (signal.ok()) *sink += signal->mcac.levels.size(); else ++errors;
  });
  out["serve.report_ids_us"] = TimeBatchUs(calls, [&](size_t i) {
    auto reports = engine.SupportingReportIds(hit(i));
    if (reports.ok()) *sink += reports->size(); else ++errors;
  });
  if (engine.HasLatticeNav()) {
    out["serve.navigate_us"] = TimeBatchUs(calls, [&](size_t i) {
      auto nav = (i % 2 == 0) ? engine.Generalize(hit(i))
                              : engine.Specialize(hit(i));
      if (nav.ok()) *sink += nav->size(); else ++errors;
    });
  }
  checks->Expect(errors == 0, "query call batches: " +
                                  std::to_string(errors) + " calls failed");
  return out;
}

// Checks that hold for every pass once the snapshot is served.
void CheckServed(const serve::QueryEngine& engine,
                 const std::vector<core::RankedMcac>& ranked, uint64_t seed,
                 Checks* checks) {
  checks->Expect(engine.snapshot().counts().signals == ranked.size(),
                 "snapshot signal count differs from the ranked list");
  if (ranked.empty()) {
    checks->Expect(false, "the pipeline ranked no signals");
    return;
  }
  // QueryEngine::Materialize(i) must equal the in-memory ranked[i].
  Rng rng(seed + 99);
  const size_t samples = std::min<size_t>(64, ranked.size());
  for (size_t s = 0; s < samples; ++s) {
    const auto i = static_cast<uint32_t>(s == 0 ? 0 : rng.Uniform(ranked.size()));
    StatusOr<core::RankedMcac> served = engine.Materialize(i);
    if (!served.ok()) {
      checks->ExpectOk(served.status(), "Materialize(" + std::to_string(i) + ")");
      continue;
    }
    checks->Expect(core::EncodeRankedMcacs({*served}) ==
                       core::EncodeRankedMcacs({ranked[i]}),
                   "Materialize(" + std::to_string(i) + ") != ranked[" +
                       std::to_string(i) + "]");
  }
}

struct PassArgs {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  std::string dir;
  std::string store;
  size_t threads = 0;
  bool traced = false;
  size_t requests = 0;
};

// Committed generation file of the store, for the size and digest.
StatusOr<std::string> CommittedGenerationBytes(serve::SnapshotStore& store,
                                               const std::string& dir) {
  return ReadFile(dir + "/" +
                  serve::SnapshotStore::GenerationFileName(
                      store.current_generation()));
}

// Result fields every pass reports, computed after the timed region.
void Summarize(const PassArgs& args, const faers::PreprocessResult& merged,
               const std::vector<core::RankedMcac>& ranked,
               serve::SnapshotStore& store, const serve::QueryEngine& engine,
               size_t row_faults, Checks* checks, json::Value::Object* out) {
  (*out)["ranked_digest"] = Digest(core::EncodeRankedMcacs(ranked));
  StatusOr<std::string> snapshot = CommittedGenerationBytes(store, args.store);
  checks->ExpectOk(snapshot.status(), "reading the committed generation");
  if (snapshot.ok()) {
    (*out)["snapshot_digest"] = Digest(*snapshot);
    (*out)["snapshot_bytes"] = snapshot->size();
  }
  (*out)["signals"] = ranked.size();
  (*out)["rows_quarantined"] = row_faults;
  (*out)["recall"] =
      GroundTruthRecall(*args.workload, args.seed, merged.items, ranked);
  CheckServed(engine, ranked, args.seed, checks);
}

// ---------------------------------------------------------------------------
// pass: untraced — the product path as RunAnalyzed runs it
// ---------------------------------------------------------------------------

Status UntracedPass(const PassArgs& args, json::Value::Object* out,
                    Checks* checks) {
  const core::MultiQuarterPipeline pipeline(PipelineConfig(args.threads));
  const core::AnalyzerOptions analyzer =
      AnalyzerConfig(*args.workload, args.threads);
  serve::SnapshotStore store(StoreConfig(args.store));

  const Clock::time_point start = Clock::now();
  std::vector<faers::QuarterDataset> quarters;
  faers::IngestReport read_report;
  for (int quarter = 1; quarter <= kQuarters; ++quarter) {
    MARAS_ASSIGN_OR_RETURN(
        faers::QuarterDataset dataset,
        faers::ReadAsciiQuarterFromDir(args.dir, kYear, quarter,
                                       pipeline.options().ingest,
                                       &read_report));
    quarters.push_back(std::move(dataset));
  }
  MARAS_ASSIGN_OR_RETURN(core::SurveillanceAnalysis analysis,
                         pipeline.RunAnalyzed(quarters, analyzer));
  quarters.clear();
  MARAS_RETURN_IF_ERROR(store.Publish(MakeSnapshotInputs(
      analysis.run.merged, analysis.ranked, analysis.stats)));
  MARAS_ASSIGN_OR_RETURN(std::shared_ptr<const serve::SignalSnapshot> snapshot,
                         store.Acquire());
  MARAS_ASSIGN_OR_RETURN(serve::QueryEngine engine,
                         serve::QueryEngine::Create(std::move(snapshot)));
  (*out)["pipeline_s"] = Seconds(start, Clock::now());
  (*out)["peak_rss_bytes"] = PeakRssBytes();

  const size_t row_faults =
      read_report.FaultCount() + analysis.run.ingest.FaultCount();
  Summarize(args, analysis.run.merged, analysis.ranked, store, engine,
            row_faults, checks, out);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// pass: traced — one span per public stage call
// ---------------------------------------------------------------------------

Status TracedPass(const PassArgs& args, json::Value::Object* out,
                  Checks* checks) {
  const core::MultiQuarterPipeline pipeline(PipelineConfig(args.threads));
  const core::AnalyzerOptions analyzer =
      AnalyzerConfig(*args.workload, args.threads);
  serve::SnapshotStore store(StoreConfig(args.store));
  const RunContext ctx;  // RunAnalyzed's ungoverned context
  json::Value::Object counts;
  json::Value::Object layers;

  Trace trace(Clock::now());
  const int root = trace.Begin("pipeline", -1);

  // faers: the four reads.
  std::vector<faers::QuarterDataset> quarters;
  faers::IngestReport read_report;
  int span = trace.Begin("faers.read_s", root);
  for (int quarter = 1; quarter <= kQuarters; ++quarter) {
    const int child = trace.Begin(
        "faers.read." + std::to_string(kYear) + "Q" + std::to_string(quarter),
        span);
    MARAS_ASSIGN_OR_RETURN(
        faers::QuarterDataset dataset,
        faers::ReadAsciiQuarterFromDir(args.dir, kYear, quarter,
                                       pipeline.options().ingest,
                                       &read_report));
    trace.End(child);
    quarters.push_back(std::move(dataset));
  }
  layers["faers.read_s"] = trace.End(span);

  // core: validate + preprocess fan-out + MergeQuarters.
  span = trace.Begin("core.ingest_s", root);
  MARAS_ASSIGN_OR_RETURN(core::MultiQuarterRun run, pipeline.Run(quarters));
  layers["core.ingest_s"] = trace.End(span);
  quarters.clear();
  const faers::PreprocessResult& merged = run.merged;
  const mining::ItemDictionary& items = merged.items;
  const mining::TransactionDatabase& db = merged.transactions;

  // mining: FP-Growth under the degradation ladder, then the closed filter.
  mining::MiningOptions mining_options = analyzer.mining;
  mining_options.context = pipeline.options().context;
  span = trace.Begin("mining.mine_s", root);
  MARAS_ASSIGN_OR_RETURN(
      core::GovernedMineResult mined,
      core::MineWithDegradation(db, mining_options, analyzer.degradation));
  layers["mining.mine_s"] = trace.End(span);
  const size_t frequent = mined.frequent.size();
  counts["mining.frequent_itemsets"] = frequent;
  counts["mining.min_support_used"] = mined.min_support_used;
  span = trace.Begin("mining.closed_s", root);
  MARAS_ASSIGN_OR_RETURN(
      core::ClosedCheckpoint closed,
      core::BuildClosedStage(std::move(mined), items, analyzer, ctx));
  layers["mining.closed_s"] = trace.End(span);

  span = trace.Begin("core.rules_s", root);
  MARAS_ASSIGN_OR_RETURN(
      std::vector<core::DrugAdrRule> rules,
      core::BuildRulesStage(closed.closed, items, db, analyzer, ctx));
  layers["core.rules_s"] = trace.End(span);

  mining::ConceptLattice lattice_storage;
  const mining::ConceptLattice* lattice = nullptr;
  span = trace.Begin("mining.lattice_s", root);
  if (core::LatticeMcacEligible(analyzer)) {
    MARAS_ASSIGN_OR_RETURN(
        lattice_storage,
        core::BuildLatticeStage(closed.closed, analyzer, ctx));
    lattice = &lattice_storage;
  }
  layers["mining.lattice_s"] = trace.End(span);

  span = trace.Begin("core.ranked_s", root);
  MARAS_ASSIGN_OR_RETURN(
      std::vector<core::RankedMcac> ranked,
      core::BuildRankedStage(rules, items, db,
                             core::RankingMethod::kExclusivenessConfidence,
                             analyzer, ctx, lattice));
  layers["core.ranked_s"] = trace.End(span);
  core::RuleSpaceStats stats = closed.stats;
  stats.mcac_count = ranked.size();
  const serve::SnapshotInputs inputs = MakeSnapshotInputs(merged, ranked, stats);

  // serve: the encode probe is an extra call the product does not make
  // (Publish encodes internally), so its time is subtracted from the traced
  // total; publish_io_s = publish - encode.
  span = trace.Begin("serve.encode_s", root);
  MARAS_ASSIGN_OR_RETURN(std::string encoded,
                         serve::EncodeSignalSnapshot(inputs));
  const double encode_s = trace.End(span);
  layers["serve.encode_s"] = encode_s;
  span = trace.Begin("serve.publish_s", root);
  MARAS_RETURN_IF_ERROR(store.Publish(inputs));
  const double publish_s = trace.End(span);
  layers["serve.publish_s"] = publish_s;
  layers["serve.publish_io_s"] = publish_s - encode_s;
  span = trace.Begin("serve.open_s", root);
  MARAS_ASSIGN_OR_RETURN(std::shared_ptr<const serve::SignalSnapshot> snapshot,
                         store.Acquire());
  MARAS_ASSIGN_OR_RETURN(serve::QueryEngine engine,
                         serve::QueryEngine::Create(std::move(snapshot)));
  layers["serve.open_s"] = trace.End(span);
  const double traced_total_s = trace.End(root) - encode_s;
  double spans_s = 0.0;
  for (const auto& [name, value] : layers) {
    if (name != "serve.publish_io_s" && name != "serve.encode_s") {
      spans_s += value.as_number();
    }
  }
  (*out)["traced_total_s"] = traced_total_s;
  (*out)["other_s"] = traced_total_s - spans_s;

  const size_t row_faults = read_report.FaultCount() + run.ingest.FaultCount();
  counts["faers.rows_seen"] = read_report.rows_seen;
  counts["faers.rows_quarantined"] = row_faults;
  counts["faers.reports_kept"] = merged.stats.reports_kept;
  counts["faers.fuzzy_corrections"] = merged.stats.fuzzy_corrections;
  counts["faers.alias_resolutions"] = merged.stats.alias_resolutions;
  counts["faers.distinct_drugs"] = merged.stats.distinct_drugs;
  counts["mining.closed_itemsets"] = closed.closed.size();
  counts["mining.closed_ratio"] =
      frequent == 0 ? 0.0
                    : static_cast<double>(closed.closed.size()) /
                          static_cast<double>(frequent);
  counts["core.rules"] = rules.size();
  counts["mining.lattice_nodes"] = lattice ? lattice->node_count() : 0;
  counts["mining.lattice_edges"] = lattice ? lattice->edge_count() : 0;
  counts["core.ranked_signals"] = ranked.size();
  counts["serve.snapshot_bytes"] = encoded.size();

  Summarize(args, merged, ranked, store, engine, row_faults, checks, out);
  StatusOr<std::string> committed = CommittedGenerationBytes(store, args.store);
  checks->Expect(committed.ok() && *committed == encoded,
                 "EncodeSignalSnapshot bytes differ from the published file");
  if (args.requests > 0) {
    MARAS_ASSIGN_OR_RETURN(QueryMix mix,
                           MakeQueryMix(engine, args.seed, args.requests));
    uint64_t sink = 0;
    json::Value calls =
        TimeQueryCalls(engine, mix, args.requests, &sink, checks);
    for (const auto& [name, value] : calls.as_object()) layers[name] = value;
    (*out)["query_sink"] = static_cast<double>(sink % 1000003);
  }
  (*out)["layers"] = std::move(layers);
  (*out)["counts"] = std::move(counts);
  (*out)["spans"] = trace.ToJson();
  return Status::OK();
}

int Pass(const PassArgs& args) {
  std::error_code ec;
  fs::remove_all(args.store, ec);
  json::Value::Object out;
  Checks checks;
  const char* mode = args.traced ? "traced" : "untraced";
  const Status status = args.traced ? TracedPass(args, &out, &checks)
                                    : UntracedPass(args, &out, &checks);
  checks.ExpectOk(status, std::string(mode) + " pass");
  out["mode"] = mode;
  out["threads"] = args.threads;
  out["ok"] = status.ok();
  out["check_failures"] = checks.ToJson();
  std::printf("%s\n", json::Serialize(json::Value(std::move(out))).c_str());
  return status.ok() ? 0 : 1;
}

// A reader process, as maras-query is one: opens the store's committed
// generation and runs the closed-loop query phase against it. The digest of
// the generation file lets the caller check it serves what a pass published.
int Query(const PassArgs& args) {
  serve::SnapshotStore store(StoreConfig(args.store));
  json::Value::Object out;
  Checks checks;
  Status status = [&]() -> Status {
    MARAS_ASSIGN_OR_RETURN(std::shared_ptr<const serve::SignalSnapshot> snapshot,
                           store.Acquire());
    MARAS_ASSIGN_OR_RETURN(serve::QueryEngine engine,
                           serve::QueryEngine::Create(std::move(snapshot)));
    MARAS_ASSIGN_OR_RETURN(std::string bytes,
                           CommittedGenerationBytes(store, args.store));
    out["snapshot_digest"] = Digest(bytes);
    MARAS_ASSIGN_OR_RETURN(QueryMix mix,
                           MakeQueryMix(engine, args.seed, args.requests));
    out["query"] = RunQueryPhase(engine, mix, args.requests);
    return Status::OK();
  }();
  checks.ExpectOk(status, "query process");
  out["ok"] = status.ok();
  out["check_failures"] = checks.ToJson();
  std::printf("%s\n", json::Serialize(json::Value(std::move(out))).c_str());
  return status.ok() ? 0 : 1;
}

// The workload table, for the caller: thread counts of each.
int ListWorkloads() {
  json::Value::Object out;
  for (const Workload& workload : Workloads()) {
    json::Value::Object entry;
    entry["threads"] = workload.threads;
    entry["partner_threads"] = workload.partner_threads;
    out[workload.name] = std::move(entry);
  }
  std::printf("%s\n", json::Serialize(json::Value(std::move(out))).c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: surveillance_bench workloads\n"
               "       surveillance_bench setup --workload W --seed S --dir D\n"
               "       surveillance_bench pass --workload W --seed S --dir D "
               "--store DIR [--threads N] [--traced] [--requests N]\n"
               "       surveillance_bench query --workload W --seed S "
               "--store DIR --requests N\n");
  return 2;
}

}  // namespace
}  // namespace maras::perfbench

int main(int argc, char** argv) {
  using namespace maras::perfbench;
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "workloads" && argc == 2) return ListWorkloads();
  std::string workload_name;
  PassArgs args;
  bool seed_given = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    if (flag == "--workload") {
      workload_name = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
      seed_given = true;
    } else if (flag == "--dir") {
      args.dir = value();
    } else if (flag == "--store") {
      args.store = value();
    } else if (flag == "--threads") {
      args.threads = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--requests") {
      args.requests = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--traced") {
      args.traced = true;
    } else {
      return Usage();
    }
  }
  args.workload = FindWorkload(workload_name);
  if (args.workload == nullptr || !seed_given) return Usage();
  if (args.threads == 0) args.threads = args.workload->threads;
  if (command == "setup" && !args.dir.empty()) {
    return Setup(*args.workload, args.seed, args.dir);
  }
  if (command == "pass" && !args.dir.empty() && !args.store.empty()) {
    return Pass(args);
  }
  if (command == "query" && !args.store.empty() && args.requests > 0) {
    return Query(args);
  }
  return Usage();
}
