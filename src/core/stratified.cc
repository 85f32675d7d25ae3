#include "core/stratified.h"

#include <algorithm>
#include <cmath>

#include "util/thread_pool.h"

namespace maras::core {

AgeBand AgeBandOf(double age_years) {
  if (age_years < 0) return AgeBand::kUnknown;
  if (age_years < 18) return AgeBand::kChild;
  if (age_years < 65) return AgeBand::kAdult;
  return AgeBand::kElderly;
}

const char* AgeBandName(AgeBand band) {
  switch (band) {
    case AgeBand::kUnknown:
      return "unknown-age";
    case AgeBand::kChild:
      return "<18";
    case AgeBand::kAdult:
      return "18-64";
    case AgeBand::kElderly:
      return "65+";
  }
  return "?";
}

std::string StratumTable::Label() const {
  return faers::SexCode(sex) + "/" + AgeBandName(age_band);
}

size_t StratifiedAnalyzer::StratumIndex(faers::Sex sex, AgeBand band) {
  return static_cast<size_t>(sex) * 4 + static_cast<size_t>(band);
}

StratifiedAnalyzer::StratifiedAnalyzer(
    const mining::TransactionDatabase* db,
    const std::vector<faers::CaseDemographics>* demographics)
    : db_(db), demographics_(demographics), stratum_tids_(kStrata) {
  for (size_t t = 0; t < db_->size(); ++t) {
    faers::CaseDemographics demo = t < demographics_->size()
                                       ? (*demographics_)[t]
                                       : faers::CaseDemographics{};
    stratum_tids_[StratumIndex(demo.sex, AgeBandOf(demo.age))].push_back(
        static_cast<mining::TransactionId>(t));
  }
  stratum_bitmaps_.reserve(kStrata);
  for (const std::vector<mining::TransactionId>& tids : stratum_tids_) {
    stratum_bitmaps_.push_back(mining::TidBitmap::FromTids(tids, db_->size()));
  }
}

namespace {

// |sorted ∩ sorted| without materializing.
size_t IntersectionSize(const std::vector<mining::TransactionId>& a,
                        const std::vector<mining::TransactionId>& b) {
  size_t count = 0, i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

}  // namespace

std::vector<StratumTable> StratifiedAnalyzer::Tables(
    const DrugAdrRule& rule) const {
  // The rule's report sets, encoded once as bitmaps; each stratum's cells
  // then cost two AND+popcounts and one fused AND3 — the joint cell never
  // materializes a "with both" list.
  const size_t universe = db_->size();
  const mining::TidBitmap drugs_bm = mining::TidBitmap::FromTids(
      db_->ContainingTransactions(rule.drugs), universe);
  const mining::TidBitmap adrs_bm = mining::TidBitmap::FromTids(
      db_->ContainingTransactions(rule.adrs), universe);

  std::vector<StratumTable> tables;
  for (int sex = 0; sex < 3; ++sex) {
    for (int band = 0; band < 4; ++band) {
      const size_t idx = StratumIndex(static_cast<faers::Sex>(sex),
                                      static_cast<AgeBand>(band));
      const size_t n = stratum_tids_[idx].size();
      if (n == 0) continue;
      const mining::TidBitmap& stratum_bm = stratum_bitmaps_[idx];
      StratumTable stratum;
      stratum.sex = static_cast<faers::Sex>(sex);
      stratum.age_band = static_cast<AgeBand>(band);
      const size_t drugs_here = mining::AndPopcount(stratum_bm, drugs_bm);
      const size_t adrs_here = mining::AndPopcount(stratum_bm, adrs_bm);
      stratum.table.a = mining::And3Popcount(stratum_bm, drugs_bm, adrs_bm);
      stratum.table.b = drugs_here - stratum.table.a;
      stratum.table.c = adrs_here - stratum.table.a;
      stratum.table.d = n - drugs_here - stratum.table.c;
      tables.push_back(std::move(stratum));
    }
  }
  return tables;
}

std::vector<StratumTable> StratifiedAnalyzer::TablesScalar(
    const DrugAdrRule& rule) const {
  // Global tid lists computed once, intersected with each stratum.
  std::vector<mining::TransactionId> with_drugs =
      db_->ContainingTransactions(rule.drugs);
  std::vector<mining::TransactionId> with_adrs =
      db_->ContainingTransactions(rule.adrs);
  std::vector<mining::TransactionId> with_both =
      db_->ContainingTransactions(mining::Union(rule.drugs, rule.adrs));

  std::vector<StratumTable> tables;
  for (int sex = 0; sex < 3; ++sex) {
    for (int band = 0; band < 4; ++band) {
      const auto& tids = stratum_tids_[StratumIndex(
          static_cast<faers::Sex>(sex), static_cast<AgeBand>(band))];
      if (tids.empty()) continue;
      StratumTable stratum;
      stratum.sex = static_cast<faers::Sex>(sex);
      stratum.age_band = static_cast<AgeBand>(band);
      const size_t n = tids.size();
      const size_t drugs_here = IntersectionSize(tids, with_drugs);
      const size_t adrs_here = IntersectionSize(tids, with_adrs);
      stratum.table.a = IntersectionSize(tids, with_both);
      stratum.table.b = drugs_here - stratum.table.a;
      stratum.table.c = adrs_here - stratum.table.a;
      stratum.table.d = n - drugs_here - stratum.table.c;
      tables.push_back(std::move(stratum));
    }
  }
  return tables;
}

double StratifiedAnalyzer::CrudeRor(const DrugAdrRule& rule) const {
  return Ror(MakeContingencyTable(*db_, rule.drugs, rule.adrs));
}

double StratifiedAnalyzer::MantelHaenszelRor(const DrugAdrRule& rule) const {
  double numerator = 0.0;
  double denominator = 0.0;
  for (const StratumTable& stratum : Tables(rule)) {
    const double n = static_cast<double>(stratum.table.n());
    if (n == 0.0) continue;
    numerator += static_cast<double>(stratum.table.a) *
                 static_cast<double>(stratum.table.d) / n;
    denominator += static_cast<double>(stratum.table.b) *
                   static_cast<double>(stratum.table.c) / n;
  }
  if (denominator == 0.0) {
    return numerator == 0.0 ? 0.0 : kDisproportionalityCap;
  }
  return std::min(numerator / denominator, kDisproportionalityCap);
}

std::vector<double> StratifiedAnalyzer::MantelHaenszelRors(
    const std::vector<DrugAdrRule>& rules, size_t num_threads) const {
  std::vector<double> rors(rules.size());
  // Ungoverned, and every index returns OK: the fan-out cannot fail.
  MARAS_IGNORE_STATUS(maras::TryParallelFor(
      num_threads, rules.size(), maras::RunContext(), [&](size_t i, size_t) {
        rors[i] = MantelHaenszelRor(rules[i]);
        return maras::Status::OK();
      }));
  return rors;
}

std::vector<bool> StratifiedAnalyzer::Confounded(
    const std::vector<DrugAdrRule>& rules, size_t num_threads,
    double threshold) const {
  // std::vector<bool> is bit-packed, so parallel writes into it would race;
  // collect into bytes and convert.
  std::vector<char> flags(rules.size());
  // Ungoverned, and every index returns OK: the fan-out cannot fail.
  MARAS_IGNORE_STATUS(maras::TryParallelFor(
      num_threads, rules.size(), maras::RunContext(), [&](size_t i, size_t) {
        flags[i] = IsConfounded(rules[i], threshold) ? 1 : 0;
        return maras::Status::OK();
      }));
  return std::vector<bool>(flags.begin(), flags.end());
}

bool StratifiedAnalyzer::IsConfounded(const DrugAdrRule& rule,
                                      double threshold) const {
  double crude = CrudeRor(rule);
  double pooled = MantelHaenszelRor(rule);
  if (crude <= 0.0 || pooled <= 0.0) return false;
  if (crude >= kDisproportionalityCap || pooled >= kDisproportionalityCap) {
    return false;  // degenerate tables carry no confounding evidence
  }
  double log_gap = std::abs(std::log(crude) - std::log(pooled));
  return log_gap > std::log(threshold);
}

}  // namespace maras::core
