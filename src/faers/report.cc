#include "faers/report.h"

namespace maras::faers {

std::string ReportTypeCode(ReportType type) {
  switch (type) {
    case ReportType::kExpedited:
      return "EXP";
    case ReportType::kPeriodic:
      return "PER";
    case ReportType::kDirect:
      return "DIR";
  }
  return "EXP";
}

bool ParseReportType(std::string_view code, ReportType* out) {
  if (code == "EXP") {
    *out = ReportType::kExpedited;
  } else if (code == "PER") {
    *out = ReportType::kPeriodic;
  } else if (code == "DIR") {
    *out = ReportType::kDirect;
  } else {
    return false;
  }
  return true;
}

std::string SexCode(Sex sex) {
  switch (sex) {
    case Sex::kFemale:
      return "F";
    case Sex::kMale:
      return "M";
    case Sex::kUnknown:
      return "UNK";
  }
  return "UNK";
}

bool ParseSex(std::string_view code, Sex* out) {
  if (code == "F") {
    *out = Sex::kFemale;
  } else if (code == "M") {
    *out = Sex::kMale;
  } else if (code == "UNK" || code.empty()) {
    *out = Sex::kUnknown;
  } else {
    return false;
  }
  return true;
}

}  // namespace maras::faers
