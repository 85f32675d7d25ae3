// Fuzz harness for the FAERS quarterly ASCII parser — the outermost
// untrusted-input surface: real extracts arrive from the FDA as flat files
// and PR 1's corruption study showed how many ways they rot in transit.
//
// Input layout: the blob is split on 0x1F (unit separator, never valid in
// the tables) into DEMO / DRUG / REAC file contents. The harness is
// differential: under every IngestPolicy the production reader must agree
// with the table-based reference reader (tests/ingest_reference.h) on the
// Status text, the parsed dataset and every IngestReport field. Any Status
// outcome is acceptable; a disagreement, a crash or a sanitizer report is
// not.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "faers/ascii_format.h"
#include "faers/ingest.h"
#include "fuzz/fuzz_target.h"
#include "tests/ingest_reference.h"

namespace {

maras::faers::AsciiQuarterFiles SplitInput(std::string_view blob) {
  maras::faers::AsciiQuarterFiles files;
  const size_t first = blob.find('\x1f');
  if (first == std::string_view::npos) {
    files.demo = std::string(blob);
    return files;
  }
  files.demo = std::string(blob.substr(0, first));
  const size_t second = blob.find('\x1f', first + 1);
  if (second == std::string_view::npos) {
    files.drug = std::string(blob.substr(first + 1));
    return files;
  }
  files.drug = std::string(blob.substr(first + 1, second - first - 1));
  files.reac = std::string(blob.substr(second + 1));
  return files;
}

// Everything one read produced, as comparable text.
std::string Outcome(
    const maras::StatusOr<maras::faers::QuarterDataset>& dataset,
    const maras::faers::IngestReport& report) {
  std::string out = dataset.status().ToString() + "\n";
  if (dataset.ok()) out += maras::reference::DumpDataset(*dataset);
  return out + maras::reference::DumpIngestReport(report);
}

void CheckAgainstReference(const maras::faers::AsciiQuarterFiles& files,
                           const maras::faers::IngestOptions& options) {
  maras::faers::IngestReport want_report, got_report;
  const std::string want = Outcome(
      maras::reference::ReadAsciiQuarter(files, 2014, 1, options,
                                         &want_report),
      want_report);
  const std::string got = Outcome(
      maras::faers::ReadAsciiQuarter(files, 2014, 1, options, &got_report),
      got_report);
  if (got != want) {
    std::fprintf(stderr,
                 "fuzz_ascii_quarter: reader disagrees with the reference "
                 "under %s\n--- reference\n%s--- reader\n%s",
                 maras::faers::IngestPolicyName(options.policy), want.c_str(),
                 got.c_str());
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view blob(reinterpret_cast<const char*>(data), size);
  const maras::faers::AsciiQuarterFiles files = SplitInput(blob);

  auto strict = maras::faers::ReadAsciiQuarter(files, 2014, 1);
  if (strict.ok()) {
    // A parse that succeeded strictly must also round-trip through the
    // writer without crashing.
    auto rewritten = maras::faers::WriteAsciiQuarter(*strict);
    MARAS_IGNORE_STATUS(rewritten);  // outcome irrelevant, only no-crash
  }

  for (maras::faers::IngestPolicy policy :
       {maras::faers::IngestPolicy::kStrict,
        maras::faers::IngestPolicy::kPermissive,
        maras::faers::IngestPolicy::kQuarantine}) {
    maras::faers::IngestOptions options;
    options.policy = policy;
    options.max_bad_row_fraction = 1.0;  // never abort: walk every row
    options.max_quarantined_rows = 64;   // bound capture memory
    CheckAgainstReference(files, options);
  }
  return 0;
}
