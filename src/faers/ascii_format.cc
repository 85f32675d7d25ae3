#include "faers/ascii_format.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "util/delimited.h"
#include "util/string_util.h"

namespace maras::faers {

namespace {

constexpr char kDelim = '$';

std::string FileSuffix(int year, int quarter) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%02dQ%d", year % 100, quarter);
  return buf;
}

std::string FormatAge(double age) {
  if (age < 0) return "";
  return maras::FormatDouble(age, 0);
}

// ---------------------------------------------------------------------------
// Validated numeric parsing. strtoull("12ab", ...) silently stops at 'a' and
// strtoull("garbage", ...) coerces to 0; FAERS identifiers are plain decimal,
// so anything else is a row-level fault that must surface as a diagnostic,
// not a primaryid of 0.
// ---------------------------------------------------------------------------

// Digits only (leading zeros allowed), and the value must fit in 64 bits.
bool ParseUint64Field(std::string_view field, uint64_t* out) {
  if (field.empty()) return false;
  uint64_t value = 0;
  for (char c : field) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

bool ParseUint32Field(std::string_view field, uint32_t* out) {
  uint64_t wide = 0;
  if (!ParseUint64Field(field, &wide) || wide > 0xFFFFFFFFull) return false;
  *out = static_cast<uint32_t>(wide);
  return true;
}

// strtod's grammar (signs, exponents, "nan", hex floats), which needs a
// NUL-terminated copy of the field; the whole field must parse, in range.
bool ParseAgeField(std::string_view field, double* out) {
  char small[64];
  std::string large;
  const char* text = small;
  if (field.size() < sizeof(small)) {
    std::memcpy(small, field.data(), field.size());
    small[field.size()] = '\0';
  } else {
    large.assign(field);
    text = large.c_str();
  }
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(text, &end);
  if (errno == ERANGE || end != text + field.size()) return false;
  *out = value;
  return true;
}

// Best-effort primaryid of a malformed line: its first '$'-field, when that
// still parses. Lets permissive mode classify the row's DRUG/REAC children
// as collateral of the rejected DEMO row rather than as orphans.
bool PrimaryIdPrefix(std::string_view line, uint64_t* out) {
  return ParseUint64Field(line.substr(0, line.find(kDelim)), out);
}

// Splits `line` on '$' into views of it, keeping empty fields.
void SplitFields(std::string_view line, std::vector<std::string_view>* fields) {
  fields->clear();
  for (size_t start = 0;;) {
    const size_t end = line.find(kDelim, start);
    if (end == std::string_view::npos) {
      fields->push_back(line.substr(start));
      return;
    }
    fields->push_back(line.substr(start, end - start));
    start = end + 1;
  }
}

std::string WidthReason(size_t line, size_t fields, size_t width) {
  return "row " + std::to_string(line) + " has " + std::to_string(fields) +
         " fields, expected " + std::to_string(width);
}

// The lines of one table buffer: '\n'-terminated (the last terminator
// optional), one trailing '\r' dropped. Blank lines are skipped but
// counted, so `line` is the 1-based line number in the file.
class LineCursor {
 public:
  LineCursor(std::string_view content, size_t pos, size_t line)
      : content_(content), pos_(pos), line_(line) {}

  // Advances to the next non-blank line; false at the end of the buffer.
  bool Next(std::string_view* text, size_t* line) {
    while (pos_ < content_.size()) {
      const size_t eol = std::min(content_.find('\n', pos_), content_.size());
      std::string_view current = content_.substr(pos_, eol - pos_);
      pos_ = eol + 1;
      ++line_;
      if (!current.empty() && current.back() == '\r') current.remove_suffix(1);
      if (current.empty()) continue;
      *text = current;
      *line = line_;
      return true;
    }
    return false;
  }

 private:
  std::string_view content_;
  size_t pos_;
  size_t line_;
};

// One of a quarter's three tables, read in place from its buffer. Line 1 is
// the header; a blank line 1 leaves the table without one.
struct Table {
  Table(std::string file_name, std::string_view text)
      : file(std::move(file_name)), content(text) {
    const size_t eol = std::min(content.find('\n'), content.size());
    std::string_view first = content.substr(0, eol);
    if (!first.empty() && first.back() == '\r') first.remove_suffix(1);
    if (!first.empty()) {
      SplitFields(first, &header);
      body = eol + 1;
    }
  }

  // The data rows, from the line after the header.
  LineCursor Rows() const {
    return LineCursor(content, body, header.empty() ? 0 : 1);
  }

  // Index of the first header field named `name`, or -1 when absent.
  int Column(std::string_view name) const {
    auto it = std::find(header.begin(), header.end(), name);
    return it == header.end() ? -1 : static_cast<int>(it - header.begin());
  }

  std::string file;  // e.g. "DEMO14Q1.txt"
  std::string_view content;
  std::vector<std::string_view> header;
  size_t body = 0;  // offset of the line after the header
};

// Strict mode's structural check: the first row from `rows` on whose field
// count differs from the header's, or "missing header row" for a table
// without one and without rows. OK when the rest of the table is well
// formed.
maras::Status FirstWidthError(const Table& table, LineCursor rows) {
  std::string_view text;
  size_t line = 0;
  while (rows.Next(&text, &line)) {
    const size_t fields =
        static_cast<size_t>(std::count(text.begin(), text.end(), kDelim)) + 1;
    if (fields != table.header.size()) {
      return maras::WithContext(
          maras::Status::Corruption(
              WidthReason(line, fields, table.header.size())),
          table.file);
    }
  }
  if (table.header.empty()) {
    return maras::WithContext(maras::Status::Corruption("missing header row"),
                              table.file);
  }
  return maras::Status::OK();
}

// One pass over a quarter's three buffers, DEMO first so DRUG and REAC rows
// can join against its primaryid index. Each table is walked once on
// string_views into its buffer; a row's text is copied only when the row is
// rejected.
//
// The order of the outcome is part of the reader's contract (pinned by the
// differential oracles against tests/ingest_reference.h):
//   - Strict mode reports a row whose field count is wrong before any
//     other fault: a DEMO row with a bad numeric field loses to a malformed
//     DRUG row. So a strict failure first checks the rest of the current
//     table and the later tables for such a row (StrictFailure).
//   - Within a table, malformed rows are quarantined before the row-level
//     rejects (bad numerics, codes, duplicates, orphans), which wait in
//     `pending_` until the table is done.
class QuarterReader {
 public:
  QuarterReader(const AsciiQuarterFiles& files, int year, int quarter,
                const IngestOptions& options)
      : options_(options),
        strict_(options.policy == IngestPolicy::kStrict),
        tables_{Table("DEMO" + FileSuffix(year, quarter) + ".txt", files.demo),
                Table("DRUG" + FileSuffix(year, quarter) + ".txt", files.drug),
                Table("REAC" + FileSuffix(year, quarter) + ".txt",
                      files.reac)} {
    dataset_.year = year;
    dataset_.quarter = quarter;
  }

  maras::StatusOr<QuarterDataset> Read(IngestReport* report);

 private:
  enum TableId : size_t { kDemo = 0, kDrug = 1, kReac = 2 };

  // Corruption for a table lacking a column it needs; OK otherwise.
  maras::Status ColumnsError(TableId id) const;
  // Strict mode: `error` at table `id`, unless a malformed row from `rest`
  // on, or in a later table, takes precedence.
  maras::Status StrictFailure(TableId id, LineCursor rest,
                              maras::Status error) const;
  // A malformed row: the strict-mode error, or recorded.
  maras::Status RejectMalformed(const Table& table, RowFault fault,
                                size_t line, size_t fields,
                                std::string_view text);
  // A row-level fault: the strict-mode error, or recorded (deferred).
  maras::Status RejectRow(TableId id, const LineCursor& rest, RowFault fault,
                          size_t line, std::string_view column,
                          std::string reason, std::string_view text);
  // Counts a row a lenient read rejected; under kQuarantine its diagnostics
  // go into the report now, or into pending_ when `defer`.
  void Record(const Table& table, RowFault fault, size_t line,
              std::string_view column, std::string reason,
              std::string_view text, bool defer);
  void FlushPending();

  maras::Status ReadDemo();
  maras::Status ReadChild(TableId id, const char* payload_column,
                          std::vector<std::string> Report::*field);

  const IngestOptions& options_;
  const bool strict_;
  std::array<Table, 3> tables_;
  IngestReport local_;
  QuarterDataset dataset_;
  // primaryid -> index into dataset_.reports.
  std::unordered_map<uint64_t, size_t> by_primary_;
  // Primaryids of DEMO rows rejected here — their DRUG/REAC rows are
  // collateral damage of the root fault, not independent orphans.
  std::unordered_set<uint64_t> rejected_primary_;
  std::vector<QuarantinedRow> pending_;
  std::vector<std::string_view> fields_;  // the current row, reused
};

constexpr const char* kTableKind[] = {"DEMO", "DRUG", "REAC"};

maras::Status QuarterReader::ColumnsError(TableId id) const {
  const Table& table = tables_[id];
  bool present = table.Column("primaryid") >= 0;
  if (id == kDemo) {
    present = present && table.Column("caseid") >= 0 &&
              table.Column("caseversion") >= 0 &&
              table.Column("rept_cod") >= 0;
  } else {
    present = present && table.Column(id == kDrug ? "drugname" : "pt") >= 0;
  }
  if (present) return maras::Status::OK();
  return maras::WithContext(
      maras::Status::Corruption(std::string(kTableKind[id]) +
                                " table missing required columns"),
      table.file);
}

maras::Status QuarterReader::StrictFailure(TableId id, LineCursor rest,
                                           maras::Status error) const {
  MARAS_RETURN_IF_ERROR(FirstWidthError(tables_[id], rest));
  for (size_t later = id + 1; later < tables_.size(); ++later) {
    MARAS_RETURN_IF_ERROR(FirstWidthError(tables_[later], tables_[later].Rows()));
  }
  return error;
}

maras::Status QuarterReader::RejectMalformed(const Table& table,
                                             RowFault fault, size_t line,
                                             size_t fields,
                                             std::string_view text) {
  std::string reason = WidthReason(line, fields, table.header.size());
  if (strict_) {
    return maras::WithContext(maras::Status::Corruption(reason), table.file);
  }
  Record(table, fault, line, "", std::move(reason), text, /*defer=*/false);
  return maras::Status::OK();
}

maras::Status QuarterReader::RejectRow(TableId id, const LineCursor& rest,
                                       RowFault fault, size_t line,
                                       std::string_view column,
                                       std::string reason,
                                       std::string_view text) {
  const Table& table = tables_[id];
  if (strict_) {
    return StrictFailure(
        id, rest,
        maras::WithContext(
            maras::Status::Corruption(reason),
            table.file + ":" + std::to_string(line) +
                (column.empty() ? "" : " (" + std::string(column) + ")")));
  }
  Record(table, fault, line, column, std::move(reason), text, /*defer=*/true);
  return maras::Status::OK();
}

void QuarterReader::Record(const Table& table, RowFault fault, size_t line,
                           std::string_view column, std::string reason,
                           std::string_view text, bool defer) {
  ++local_.rows_rejected;
  if (fault == RowFault::kCollateral) ++local_.collateral_rows;
  if (options_.policy != IngestPolicy::kQuarantine) return;
  QuarantinedRow row{fault, table.file, line, std::string(column),
                     std::move(reason), std::string(text)};
  if (defer) {
    pending_.push_back(std::move(row));
  } else {
    local_.Quarantine(options_, std::move(row));
  }
}

void QuarterReader::FlushPending() {
  for (QuarantinedRow& row : pending_) {
    local_.Quarantine(options_, std::move(row));
  }
  pending_.clear();
}

maras::Status QuarterReader::ReadDemo() {
  const Table& table = tables_[kDemo];
  if (maras::Status missing = ColumnsError(kDemo); !missing.ok()) {
    return StrictFailure(kDemo, table.Rows(), std::move(missing));
  }
  const auto c_primary = static_cast<size_t>(table.Column("primaryid"));
  const auto c_caseid = static_cast<size_t>(table.Column("caseid"));
  const auto c_version = static_cast<size_t>(table.Column("caseversion"));
  const auto c_rept = static_cast<size_t>(table.Column("rept_cod"));
  const int c_age = table.Column("age");
  const int c_sex = table.Column("sex");
  const int c_country = table.Column("occr_country");

  LineCursor rows = table.Rows();
  std::string_view text;
  size_t line = 0;
  while (rows.Next(&text, &line)) {
    ++local_.rows_seen;
    SplitFields(text, &fields_);
    if (fields_.size() != table.header.size()) {
      MARAS_RETURN_IF_ERROR(RejectMalformed(table, RowFault::kMalformedRow,
                                            line, fields_.size(), text));
      uint64_t primary = 0;
      if (PrimaryIdPrefix(text, &primary)) rejected_primary_.insert(primary);
      continue;
    }
    const std::string_view primary_text = fields_[c_primary];
    uint64_t primary = 0;
    if (!ParseUint64Field(primary_text, &primary)) {
      MARAS_RETURN_IF_ERROR(RejectRow(
          kDemo, rows, RowFault::kBadNumeric, line, "primaryid",
          "unparseable primaryid '" + std::string(primary_text) + "'", text));
      continue;
    }
    // Faults past the primaryid also mark it rejected, so the row's
    // DRUG/REAC children are classified collateral.
    auto reject = [&](RowFault fault, std::string_view column,
                      std::string reason) -> maras::Status {
      maras::Status st =
          RejectRow(kDemo, rows, fault, line, column, std::move(reason), text);
      if (st.ok()) rejected_primary_.insert(primary);
      return st;
    };
    auto quoted = [](std::string_view field) {
      return "'" + std::string(field) + "'";
    };
    Report r;
    if (!ParseUint64Field(fields_[c_caseid], &r.case_id)) {
      MARAS_RETURN_IF_ERROR(reject(RowFault::kBadNumeric, "caseid",
                                   "unparseable caseid " +
                                       quoted(fields_[c_caseid])));
      continue;
    }
    if (!ParseUint32Field(fields_[c_version], &r.case_version)) {
      MARAS_RETURN_IF_ERROR(reject(RowFault::kBadNumeric, "caseversion",
                                   "unparseable caseversion " +
                                       quoted(fields_[c_version])));
      continue;
    }
    if (!ParseReportType(fields_[c_rept], &r.type)) {
      MARAS_RETURN_IF_ERROR(reject(RowFault::kBadCode, "rept_cod",
                                   "bad rept_cod: " +
                                       std::string(fields_[c_rept])));
      continue;
    }
    if (c_age >= 0 && !fields_[c_age].empty() &&
        !ParseAgeField(fields_[c_age], &r.age)) {
      MARAS_RETURN_IF_ERROR(reject(RowFault::kBadNumeric, "age",
                                   "unparseable age " +
                                       quoted(fields_[c_age])));
      continue;
    }
    if (c_sex >= 0 && !ParseSex(fields_[c_sex], &r.sex)) {
      MARAS_RETURN_IF_ERROR(reject(RowFault::kBadCode, "sex",
                                   "bad sex code: " +
                                       std::string(fields_[c_sex])));
      continue;
    }
    if (c_country >= 0) r.country = fields_[c_country];
    if (!by_primary_.emplace(primary, dataset_.reports.size()).second) {
      MARAS_RETURN_IF_ERROR(RejectRow(
          kDemo, rows, RowFault::kDuplicatePrimaryId, line, "primaryid",
          "duplicate primaryid " + std::string(primary_text), text));
      continue;
    }
    dataset_.reports.push_back(std::move(r));
  }
  FlushPending();
  return maras::Status::OK();
}

// DRUG and REAC rows join against the DEMO index identically; only the
// payload column differs.
maras::Status QuarterReader::ReadChild(
    TableId id, const char* payload_column,
    std::vector<std::string> Report::*field) {
  const Table& table = tables_[id];
  if (maras::Status missing = ColumnsError(id); !missing.ok()) {
    return StrictFailure(id, table.Rows(), std::move(missing));
  }
  const auto c_primary = static_cast<size_t>(table.Column("primaryid"));
  const auto c_payload = static_cast<size_t>(table.Column(payload_column));

  LineCursor rows = table.Rows();
  std::string_view text;
  size_t line = 0;
  while (rows.Next(&text, &line)) {
    ++local_.rows_seen;
    SplitFields(text, &fields_);
    if (fields_.size() != table.header.size()) {
      uint64_t primary = 0;
      const bool collateral = PrimaryIdPrefix(text, &primary) &&
                              rejected_primary_.count(primary) > 0;
      MARAS_RETURN_IF_ERROR(RejectMalformed(
          table, collateral ? RowFault::kCollateral : RowFault::kMalformedRow,
          line, fields_.size(), text));
      continue;
    }
    const std::string_view primary_text = fields_[c_primary];
    uint64_t primary = 0;
    if (!ParseUint64Field(primary_text, &primary)) {
      MARAS_RETURN_IF_ERROR(RejectRow(
          id, rows, RowFault::kBadNumeric, line, "primaryid",
          "unparseable primaryid '" + std::string(primary_text) + "'", text));
      continue;
    }
    auto it = by_primary_.find(primary);
    if (it == by_primary_.end()) {
      const bool collateral = rejected_primary_.count(primary) > 0;
      MARAS_RETURN_IF_ERROR(RejectRow(
          id, rows, collateral ? RowFault::kCollateral : RowFault::kOrphanRow,
          line, "primaryid",
          std::string(kTableKind[id]) + " row with unknown primaryid " +
              std::string(primary_text),
          text));
      continue;
    }
    (dataset_.reports[it->second].*field).emplace_back(fields_[c_payload]);
  }
  FlushPending();
  return maras::Status::OK();
}

maras::StatusOr<QuarterDataset> QuarterReader::Read(IngestReport* report) {
  if (!strict_) {
    // A lenient read fails outright only for a table it cannot interpret —
    // no header, or no required columns — and then records nothing.
    for (const Table& table : tables_) {
      if (table.header.empty()) {
        return maras::WithContext(
            maras::Status::Corruption("missing header row"), table.file);
      }
    }
    for (TableId id : {kDemo, kDrug, kReac}) {
      MARAS_RETURN_IF_ERROR(ColumnsError(id));
    }
  }
  MARAS_RETURN_IF_ERROR(ReadDemo());
  MARAS_RETURN_IF_ERROR(ReadChild(kDrug, "drugname", &Report::drugs));
  MARAS_RETURN_IF_ERROR(ReadChild(kReac, "pt", &Report::reactions));

  local_.reports_ingested += dataset_.reports.size();
  // Deliver the accounting even when the budget check below fails the read —
  // the diagnostics explain *why* the quarter was declared unusable.
  if (report != nullptr) report->Merge(local_);
  if (!strict_ && local_.rows_rejected > 0 &&
      local_.rejected_fraction() > options_.max_bad_row_fraction) {
    char frac[32];
    std::snprintf(frac, sizeof(frac), "%.1f%%",
                  100.0 * local_.rejected_fraction());
    return maras::WithContext(
        maras::Status::Corruption(
            std::to_string(local_.rows_rejected) + " of " +
            std::to_string(local_.rows_seen) + " rows rejected (" + frac +
            ") exceeds the error budget of " +
            std::to_string(options_.max_bad_row_fraction)),
        "quarter " + dataset_.Label());
  }
  return std::move(dataset_);
}

}  // namespace

maras::StatusOr<AsciiQuarterFiles> WriteAsciiQuarter(
    const QuarterDataset& dataset) {
  maras::DelimitedTable demo;
  demo.header = {"primaryid", "caseid",      "caseversion", "rept_cod",
                 "age",       "sex",         "occr_country"};
  maras::DelimitedTable drug;
  drug.header = {"primaryid", "caseid", "drug_seq", "role_cod", "drugname"};
  maras::DelimitedTable reac;
  reac.header = {"primaryid", "caseid", "pt"};

  for (const Report& r : dataset.reports) {
    std::string primary = std::to_string(r.primary_id());
    std::string caseid = std::to_string(r.case_id);
    demo.rows.push_back({primary, caseid, std::to_string(r.case_version),
                         ReportTypeCode(r.type), FormatAge(r.age),
                         SexCode(r.sex), r.country});
    int seq = 1;
    for (const std::string& name : r.drugs) {
      // role_cod: PS (primary suspect) for the first drug, SS thereafter —
      // matching FAERS conventions; MARAS treats all roles equally.
      drug.rows.push_back({primary, caseid, std::to_string(seq),
                           seq == 1 ? "PS" : "SS", name});
      ++seq;
    }
    for (const std::string& pt : r.reactions) {
      reac.rows.push_back({primary, caseid, pt});
    }
  }

  maras::DelimitedWriter writer(kDelim);
  AsciiQuarterFiles files;
  MARAS_ASSIGN_OR_RETURN(files.demo, writer.ToString(demo));
  MARAS_ASSIGN_OR_RETURN(files.drug, writer.ToString(drug));
  MARAS_ASSIGN_OR_RETURN(files.reac, writer.ToString(reac));
  return files;
}

maras::Status WriteAsciiQuarterToDir(const QuarterDataset& dataset,
                                     const std::string& directory) {
  MARAS_ASSIGN_OR_RETURN(AsciiQuarterFiles files, WriteAsciiQuarter(dataset));
  std::string suffix = FileSuffix(dataset.year, dataset.quarter);
  std::string demo_path = directory + "/DEMO" + suffix + ".txt";
  std::string drug_path = directory + "/DRUG" + suffix + ".txt";
  std::string reac_path = directory + "/REAC" + suffix + ".txt";
  MARAS_RETURN_IF_ERROR_CTX(maras::AtomicWriteStringToFile(demo_path, files.demo),
                            demo_path);
  MARAS_RETURN_IF_ERROR_CTX(maras::AtomicWriteStringToFile(drug_path, files.drug),
                            drug_path);
  MARAS_RETURN_IF_ERROR_CTX(maras::AtomicWriteStringToFile(reac_path, files.reac),
                            reac_path);
  return maras::Status::OK();
}

maras::StatusOr<QuarterDataset> ReadAsciiQuarter(
    const AsciiQuarterFiles& files, int year, int quarter) {
  return ReadAsciiQuarter(files, year, quarter, IngestOptions{});
}

maras::StatusOr<QuarterDataset> ReadAsciiQuarter(
    const AsciiQuarterFiles& files, int year, int quarter,
    const IngestOptions& options, IngestReport* report) {
  return QuarterReader(files, year, quarter, options).Read(report);
}

maras::StatusOr<QuarterDataset> ReadAsciiQuarterFromDir(
    const std::string& directory, int year, int quarter) {
  return ReadAsciiQuarterFromDir(directory, year, quarter, IngestOptions{});
}

maras::StatusOr<QuarterDataset> ReadAsciiQuarterFromDir(
    const std::string& directory, int year, int quarter,
    const IngestOptions& options, IngestReport* report) {
  std::string suffix = FileSuffix(year, quarter);
  AsciiQuarterFiles files;
  struct Source {
    const char* prefix;
    std::string* dest;
  };
  for (const Source& source : {Source{"DEMO", &files.demo},
                               Source{"DRUG", &files.drug},
                               Source{"REAC", &files.reac}}) {
    std::string path = directory + "/" + source.prefix + suffix + ".txt";
    auto content = maras::ReadFileToString(path);
    if (!content.ok()) {
      return maras::WithContext(content.status(),
                                std::string(source.prefix) + " file");
    }
    *source.dest = *std::move(content);
  }
  return ReadAsciiQuarter(files, year, quarter, options, report);
}

}  // namespace maras::faers
