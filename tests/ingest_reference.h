#ifndef MARAS_TESTS_INGEST_REFERENCE_H_
#define MARAS_TESTS_INGEST_REFERENCE_H_

// Reference implementations of the FAERS ingest path, kept verbatim from the
// table-based reader and the copying dedup they replaced: every line is
// split into a DelimitedTable of owned strings, each row is re-joined for
// its diagnostics, and dedup fingerprints each report into a fresh string
// and copies every kept report. They are slow and simple on purpose — the
// differential oracles (faers_ingest_oracle_test, fuzz_ascii_quarter) hold
// the production reader and dedup to their output byte for byte.

#include <string>
#include <vector>

#include "faers/ascii_format.h"
#include "faers/dedup.h"
#include "faers/ingest.h"
#include "faers/report.h"
#include "util/status.h"
#include "util/statusor.h"

namespace maras::reference {

// A parsed delimited-text table: a header row plus data rows.
struct DelimitedTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  // 1-based source line of rows[i].
  std::vector<size_t> row_lines;

  // Index of `column` in the header, or -1 when absent.
  int ColumnIndex(const std::string& column) const;
};

// One row the permissive parser rejected.
struct DelimitedRowIssue {
  size_t line = 0;      // 1-based line number in the source buffer
  std::string reason;   // e.g. "5 fields, expected 7"
  std::string content;  // the rejected line, verbatim
};

class DelimitedReader {
 public:
  explicit DelimitedReader(char delim) : delim_(delim) {}

  // Every row must have the same number of fields as the header; a
  // short/long row yields Corruption.
  StatusOr<DelimitedTable> ParseString(const std::string& content) const;

  // Permissive variant: a row whose field count disagrees with the header is
  // recorded in `issues` and skipped. A missing header is still Corruption.
  StatusOr<DelimitedTable> ParseString(
      const std::string& content, std::vector<DelimitedRowIssue>* issues) const;

  StatusOr<DelimitedTable> ReadFile(const std::string& path) const;

 private:
  char delim_;
};

// The table-based policy-aware quarter reader.
StatusOr<faers::QuarterDataset> ReadAsciiQuarter(
    const faers::AsciiQuarterFiles& files, int year, int quarter,
    const faers::IngestOptions& options, faers::IngestReport* report = nullptr);

// The string-key duplicate finder and the copying duplicate removal.
std::vector<faers::DuplicateCluster> FindDuplicateCases(
    const faers::QuarterDataset& dataset, faers::DedupStats* stats = nullptr);

faers::QuarterDataset RemoveDuplicateCases(const faers::QuarterDataset& dataset,
                                           const faers::IngestOptions& options,
                                           faers::IngestReport* report,
                                           faers::DedupStats* stats = nullptr);

// Canonical text dumps for diffing two ingest outcomes: every field of
// every report (ages by bit pattern, so NaN compares equal to itself) and
// every IngestReport field, quarantined rows and warnings in order.
std::string DumpDataset(const faers::QuarterDataset& dataset);
std::string DumpIngestReport(const faers::IngestReport& report);

}  // namespace maras::reference

#endif  // MARAS_TESTS_INGEST_REFERENCE_H_
