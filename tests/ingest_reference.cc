#include "tests/ingest_reference.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "util/delimited.h"
#include "util/string_util.h"

namespace maras::reference {

// ---------------------------------------------------------------------------
// Delimited tables
// ---------------------------------------------------------------------------

int DelimitedTable::ColumnIndex(const std::string& column) const {
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == column) return static_cast<int>(i);
  }
  return -1;
}

StatusOr<DelimitedTable> DelimitedReader::ParseString(
    const std::string& content) const {
  return ParseString(content, nullptr);
}

StatusOr<DelimitedTable> DelimitedReader::ParseString(
    const std::string& content, std::vector<DelimitedRowIssue>* issues) const {
  DelimitedTable table;
  size_t pos = 0;
  size_t line_no = 0;
  while (pos <= content.size()) {
    size_t eol = content.find('\n', pos);
    std::string_view line;
    if (eol == std::string::npos) {
      if (pos == content.size()) break;
      line = std::string_view(content).substr(pos);
      pos = content.size() + 1;
    } else {
      line = std::string_view(content).substr(pos, eol - pos);
      pos = eol + 1;
    }
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    ++line_no;
    if (line.empty()) continue;  // skip blank lines
    std::vector<std::string> fields = Split(line, delim_);
    if (line_no == 1) {
      table.header = std::move(fields);
    } else {
      if (fields.size() != table.header.size()) {
        std::string reason = "row " + std::to_string(line_no) + " has " +
                             std::to_string(fields.size()) +
                             " fields, expected " +
                             std::to_string(table.header.size());
        if (issues == nullptr) return Status::Corruption(reason);
        issues->push_back(
            DelimitedRowIssue{line_no, std::move(reason), std::string(line)});
        continue;
      }
      table.rows.push_back(std::move(fields));
      table.row_lines.push_back(line_no);
    }
  }
  if (table.header.empty()) {
    return Status::Corruption("missing header row");
  }
  return table;
}

StatusOr<DelimitedTable> DelimitedReader::ReadFile(
    const std::string& path) const {
  MARAS_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  return ParseString(content);
}

// ---------------------------------------------------------------------------
// Quarter reader
// ---------------------------------------------------------------------------

namespace {

using faers::IngestOptions;
using faers::IngestPolicy;
using faers::IngestReport;
using faers::QuarantinedRow;
using faers::QuarterDataset;
using faers::Report;
using faers::RowFault;

constexpr char kDelim = '$';

std::string FileSuffix(int year, int quarter) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%02dQ%d", year % 100, quarter);
  return buf;
}

bool ParseUint64Field(const std::string& field, uint64_t* out) {
  if (field.empty()) return false;
  for (char c : field) {
    if (c < '0' || c > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  uint64_t value = std::strtoull(field.c_str(), &end, 10);
  if (errno == ERANGE || end != field.c_str() + field.size()) return false;
  *out = value;
  return true;
}

bool ParseUint32Field(const std::string& field, uint32_t* out) {
  uint64_t wide = 0;
  if (!ParseUint64Field(field, &wide) || wide > 0xFFFFFFFFull) return false;
  *out = static_cast<uint32_t>(wide);
  return true;
}

bool ParseAgeField(const std::string& field, double* out) {
  errno = 0;
  char* end = nullptr;
  double value = std::strtod(field.c_str(), &end);
  if (errno == ERANGE || end != field.c_str() + field.size()) return false;
  *out = value;
  return true;
}

bool PrimaryIdPrefix(const std::string& line, uint64_t* out) {
  return ParseUint64Field(line.substr(0, line.find(kDelim)), out);
}

struct TableIngest {
  const IngestOptions* options;
  IngestReport* report;
  std::string file;
  bool strict;

  bool quarantining() const {
    return options->policy == IngestPolicy::kQuarantine;
  }

  Status Reject(RowFault fault, size_t line, const std::string& column,
                const std::string& reason, const std::string& content) {
    if (strict) {
      return WithContext(Status::Corruption(reason),
                         file + ":" + std::to_string(line) +
                             (column.empty() ? "" : " (" + column + ")"));
    }
    ++report->rows_rejected;
    if (fault == RowFault::kCollateral) ++report->collateral_rows;
    if (quarantining()) {
      report->Quarantine(*options, QuarantinedRow{fault, file, line, column,
                                                  reason, content});
    }
    return Status::OK();
  }
};

}  // namespace

StatusOr<QuarterDataset> ReadAsciiQuarter(const faers::AsciiQuarterFiles& files,
                                          int year, int quarter,
                                          const IngestOptions& options,
                                          IngestReport* report) {
  const bool strict = options.policy == IngestPolicy::kStrict;
  IngestReport local;
  IngestReport* acc = &local;

  std::string suffix = FileSuffix(year, quarter);
  std::string demo_file = "DEMO" + suffix + ".txt";
  std::string drug_file = "DRUG" + suffix + ".txt";
  std::string reac_file = "REAC" + suffix + ".txt";

  DelimitedReader reader(kDelim);
  std::vector<DelimitedRowIssue> demo_issues, drug_issues, reac_issues;
  auto parse_table = [&](const std::string& content, const std::string& file,
                         std::vector<DelimitedRowIssue>* issues)
      -> StatusOr<DelimitedTable> {
    auto table = strict ? reader.ParseString(content)
                        : reader.ParseString(content, issues);
    if (!table.ok()) return WithContext(table.status(), file);
    return table;
  };
  MARAS_ASSIGN_OR_RETURN(DelimitedTable demo,
                         parse_table(files.demo, demo_file, &demo_issues));
  MARAS_ASSIGN_OR_RETURN(DelimitedTable drug,
                         parse_table(files.drug, drug_file, &drug_issues));
  MARAS_ASSIGN_OR_RETURN(DelimitedTable reac,
                         parse_table(files.reac, reac_file, &reac_issues));

  int d_primary = demo.ColumnIndex("primaryid");
  int d_caseid = demo.ColumnIndex("caseid");
  int d_version = demo.ColumnIndex("caseversion");
  int d_rept = demo.ColumnIndex("rept_cod");
  int d_age = demo.ColumnIndex("age");
  int d_sex = demo.ColumnIndex("sex");
  int d_country = demo.ColumnIndex("occr_country");
  if (d_primary < 0 || d_caseid < 0 || d_version < 0 || d_rept < 0) {
    return WithContext(
        Status::Corruption("DEMO table missing required columns"), demo_file);
  }

  QuarterDataset dataset;
  dataset.year = year;
  dataset.quarter = quarter;
  std::map<uint64_t, size_t> by_primary;
  std::set<uint64_t> rejected_primary;

  TableIngest demo_ctx{&options, acc, demo_file, strict};
  acc->rows_seen += demo.rows.size() + demo_issues.size();
  for (const DelimitedRowIssue& issue : demo_issues) {
    MARAS_RETURN_IF_ERROR(demo_ctx.Reject(RowFault::kMalformedRow, issue.line,
                                          "", issue.reason, issue.content));
    uint64_t primary = 0;
    if (PrimaryIdPrefix(issue.content, &primary)) {
      rejected_primary.insert(primary);
    }
  }
  for (size_t i = 0; i < demo.rows.size(); ++i) {
    const auto& row = demo.rows[i];
    const size_t line = demo.row_lines[i];
    std::string content = Join(row, kDelim);
    uint64_t primary = 0;
    if (!ParseUint64Field(row[d_primary], &primary)) {
      MARAS_RETURN_IF_ERROR(demo_ctx.Reject(
          RowFault::kBadNumeric, line, "primaryid",
          "unparseable primaryid '" + row[d_primary] + "'", content));
      continue;
    }
    auto reject = [&](RowFault fault, const std::string& column,
                      const std::string& reason) -> Status {
      Status st = demo_ctx.Reject(fault, line, column, reason, content);
      if (st.ok()) rejected_primary.insert(primary);
      return st;
    };
    Report r;
    if (!ParseUint64Field(row[d_caseid], &r.case_id)) {
      MARAS_RETURN_IF_ERROR(reject(RowFault::kBadNumeric, "caseid",
                                   "unparseable caseid '" + row[d_caseid] +
                                       "'"));
      continue;
    }
    if (!ParseUint32Field(row[d_version], &r.case_version)) {
      MARAS_RETURN_IF_ERROR(reject(RowFault::kBadNumeric, "caseversion",
                                   "unparseable caseversion '" +
                                       row[d_version] + "'"));
      continue;
    }
    if (!faers::ParseReportType(row[d_rept], &r.type)) {
      MARAS_RETURN_IF_ERROR(reject(RowFault::kBadCode, "rept_cod",
                                   "bad rept_cod: " + row[d_rept]));
      continue;
    }
    if (d_age >= 0 && !row[d_age].empty() &&
        !ParseAgeField(row[d_age], &r.age)) {
      MARAS_RETURN_IF_ERROR(reject(RowFault::kBadNumeric, "age",
                                   "unparseable age '" + row[d_age] + "'"));
      continue;
    }
    if (d_sex >= 0 && !faers::ParseSex(row[d_sex], &r.sex)) {
      MARAS_RETURN_IF_ERROR(reject(RowFault::kBadCode, "sex",
                                   "bad sex code: " + row[d_sex]));
      continue;
    }
    if (d_country >= 0) r.country = row[d_country];
    if (by_primary.count(primary) > 0) {
      MARAS_RETURN_IF_ERROR(demo_ctx.Reject(
          RowFault::kDuplicatePrimaryId, line, "primaryid",
          "duplicate primaryid " + row[d_primary], content));
      continue;
    }
    by_primary[primary] = dataset.reports.size();
    dataset.reports.push_back(std::move(r));
  }

  auto ingest_child_table =
      [&](const DelimitedTable& table,
          const std::vector<DelimitedRowIssue>& issues,
          const std::string& file, const char* required_column,
          const char* kind,
          std::vector<std::string> Report::*field) -> Status {
    int c_primary = table.ColumnIndex("primaryid");
    int c_payload = table.ColumnIndex(required_column);
    if (c_primary < 0 || c_payload < 0) {
      return WithContext(Status::Corruption(std::string(kind) +
                                            " table missing required columns"),
                         file);
    }
    TableIngest ctx{&options, acc, file, strict};
    acc->rows_seen += table.rows.size() + issues.size();
    for (const DelimitedRowIssue& issue : issues) {
      uint64_t primary = 0;
      bool collateral = PrimaryIdPrefix(issue.content, &primary) &&
                        rejected_primary.count(primary) > 0;
      MARAS_RETURN_IF_ERROR(
          ctx.Reject(collateral ? RowFault::kCollateral
                                : RowFault::kMalformedRow,
                     issue.line, "", issue.reason, issue.content));
    }
    for (size_t i = 0; i < table.rows.size(); ++i) {
      const auto& row = table.rows[i];
      const size_t line = table.row_lines[i];
      std::string content = Join(row, kDelim);
      uint64_t primary = 0;
      if (!ParseUint64Field(row[c_primary], &primary)) {
        MARAS_RETURN_IF_ERROR(ctx.Reject(
            RowFault::kBadNumeric, line, "primaryid",
            "unparseable primaryid '" + row[c_primary] + "'", content));
        continue;
      }
      auto it = by_primary.find(primary);
      if (it == by_primary.end()) {
        bool collateral = rejected_primary.count(primary) > 0;
        MARAS_RETURN_IF_ERROR(ctx.Reject(
            collateral ? RowFault::kCollateral : RowFault::kOrphanRow, line,
            "primaryid",
            std::string(kind) + " row with unknown primaryid " +
                row[c_primary],
            content));
        continue;
      }
      (dataset.reports[it->second].*field).push_back(row[c_payload]);
    }
    return Status::OK();
  };
  MARAS_RETURN_IF_ERROR(ingest_child_table(drug, drug_issues, drug_file,
                                           "drugname", "DRUG",
                                           &Report::drugs));
  MARAS_RETURN_IF_ERROR(ingest_child_table(reac, reac_issues, reac_file, "pt",
                                           "REAC", &Report::reactions));

  acc->reports_ingested += dataset.reports.size();
  if (report != nullptr) report->Merge(local);
  if (!strict && acc->rows_rejected > 0 &&
      acc->rejected_fraction() > options.max_bad_row_fraction) {
    char frac[32];
    std::snprintf(frac, sizeof(frac), "%.1f%%",
                  100.0 * acc->rejected_fraction());
    return WithContext(
        Status::Corruption(std::to_string(acc->rows_rejected) + " of " +
                           std::to_string(acc->rows_seen) +
                           " rows rejected (" + frac +
                           ") exceeds the error budget of " +
                           std::to_string(options.max_bad_row_fraction)),
        "quarter " + std::to_string(year) + "Q" + std::to_string(quarter));
  }
  return dataset;
}

// ---------------------------------------------------------------------------
// Dedup
// ---------------------------------------------------------------------------

namespace {

int AgeBand(double age) {
  if (age < 0) return 0;
  if (age < 18) return 1;
  if (age < 65) return 2;
  return 3;
}

std::string Fingerprint(const Report& report) {
  std::vector<std::string> drugs = report.drugs;
  std::vector<std::string> reactions = report.reactions;
  std::sort(drugs.begin(), drugs.end());
  drugs.erase(std::unique(drugs.begin(), drugs.end()), drugs.end());
  std::sort(reactions.begin(), reactions.end());
  reactions.erase(std::unique(reactions.begin(), reactions.end()),
                  reactions.end());
  std::string key;
  for (const std::string& d : drugs) {
    key += d;
    key += '\x1f';
  }
  key += '\x1e';
  for (const std::string& r : reactions) {
    key += r;
    key += '\x1f';
  }
  key += '\x1e';
  key += faers::SexCode(report.sex);
  key += static_cast<char>('0' + AgeBand(report.age));
  return key;
}

}  // namespace

std::vector<faers::DuplicateCluster> FindDuplicateCases(
    const QuarterDataset& dataset, faers::DedupStats* stats) {
  faers::DedupStats local;
  local.reports_checked = dataset.reports.size();
  std::unordered_map<std::string, std::vector<size_t>> buckets;
  std::vector<std::string> ordered_keys;
  for (size_t i = 0; i < dataset.reports.size(); ++i) {
    const Report& report = dataset.reports[i];
    if (report.drugs.empty() || report.reactions.empty()) continue;
    std::string key = Fingerprint(report);
    auto [it, inserted] = buckets.emplace(key, std::vector<size_t>{});
    if (inserted) ordered_keys.push_back(key);
    it->second.push_back(i);
  }
  std::vector<faers::DuplicateCluster> clusters;
  for (const std::string& key : ordered_keys) {
    const std::vector<size_t>& indices = buckets[key];
    std::unordered_set<uint64_t> cases;
    for (size_t i : indices) cases.insert(dataset.reports[i].case_id);
    if (cases.size() < 2) continue;
    faers::DuplicateCluster cluster;
    for (size_t i : indices) {
      cluster.primary_ids.push_back(dataset.reports[i].primary_id());
    }
    local.redundant_reports += cluster.primary_ids.size() - 1;
    clusters.push_back(std::move(cluster));
  }
  local.clusters = clusters.size();
  if (stats != nullptr) *stats = local;
  return clusters;
}

namespace {

QuarterDataset CopyWithoutDuplicates(const QuarterDataset& dataset,
                                     faers::DedupStats* stats) {
  std::vector<faers::DuplicateCluster> clusters =
      reference::FindDuplicateCases(dataset, stats);
  std::unordered_set<uint64_t> drop;
  for (const faers::DuplicateCluster& cluster : clusters) {
    for (size_t i = 1; i < cluster.primary_ids.size(); ++i) {
      drop.insert(cluster.primary_ids[i]);
    }
  }
  QuarterDataset kept;
  kept.year = dataset.year;
  kept.quarter = dataset.quarter;
  for (const Report& report : dataset.reports) {
    if (drop.count(report.primary_id()) == 0) kept.reports.push_back(report);
  }
  return kept;
}

}  // namespace

QuarterDataset RemoveDuplicateCases(const QuarterDataset& dataset,
                                    const IngestOptions& options,
                                    IngestReport* report,
                                    faers::DedupStats* stats) {
  faers::DedupStats local;
  QuarterDataset kept = CopyWithoutDuplicates(dataset, &local);
  if (report != nullptr && local.redundant_reports > 0) {
    report->warnings.push_back(
        dataset.Label() + ": removed " +
        std::to_string(local.redundant_reports) +
        " suspected duplicate reports in " + std::to_string(local.clusters) +
        " clusters");
    if (options.policy == IngestPolicy::kQuarantine) {
      for (const faers::DuplicateCluster& cluster :
           reference::FindDuplicateCases(dataset)) {
        for (size_t i = 1; i < cluster.primary_ids.size(); ++i) {
          report->warnings.push_back(
              dataset.Label() + ": primaryid " +
              std::to_string(cluster.primary_ids[i]) +
              " removed as duplicate of primaryid " +
              std::to_string(cluster.primary_ids[0]));
        }
      }
    }
  }
  if (stats != nullptr) *stats = local;
  return kept;
}

// ---------------------------------------------------------------------------
// Dumps
// ---------------------------------------------------------------------------

std::string DumpDataset(const QuarterDataset& dataset) {
  std::string out = dataset.Label() + " " +
                    std::to_string(dataset.reports.size()) + " reports\n";
  for (const Report& r : dataset.reports) {
    out += std::to_string(r.case_id) + " v" + std::to_string(r.case_version) +
           " " + faers::ReportTypeCode(r.type) + " " + faers::SexCode(r.sex) +
           " age=" + std::to_string(std::bit_cast<uint64_t>(r.age)) + " [" +
           r.country + "] drugs=" + Join(r.drugs, '|') +
           " reactions=" + Join(r.reactions, '|') + "\n";
  }
  return out;
}

std::string DumpIngestReport(const IngestReport& report) {
  std::string out = "seen=" + std::to_string(report.rows_seen) +
                    " rejected=" + std::to_string(report.rows_rejected) +
                    " collateral=" + std::to_string(report.collateral_rows) +
                    " ingested=" + std::to_string(report.reports_ingested) +
                    " overflow=" +
                    std::to_string(report.quarantine_overflow ? 1 : 0) + "\n";
  for (const QuarantinedRow& row : report.quarantined) {
    out += "Q " + row.ToString() + " {" + row.content + "}\n";
  }
  for (const std::string& warning : report.warnings) {
    out += "W " + warning + "\n";
  }
  return out;
}

}  // namespace maras::reference
