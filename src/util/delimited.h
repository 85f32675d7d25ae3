#ifndef MARAS_UTIL_DELIMITED_H_
#define MARAS_UTIL_DELIMITED_H_

#include <string>
#include <vector>

#include "util/status.h"
#include "util/statusor.h"

namespace maras {

// A delimited-text table to serialize: a header row plus data rows. FAERS
// quarterly extracts are '$'-delimited ASCII files with one header line
// (faers/ascii_format reads them in place, without building a table).
struct DelimitedTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
};

class DelimitedWriter {
 public:
  explicit DelimitedWriter(char delim) : delim_(delim) {}

  // Serializes the table; rows must match the header width.
  StatusOr<std::string> ToString(const DelimitedTable& table) const;

  Status WriteFile(const std::string& path,
                   const DelimitedTable& table) const;

 private:
  char delim_;
};

// Reads an entire file into memory.
StatusOr<std::string> ReadFileToString(const std::string& path);

// Writes `content` to `path`, replacing any existing file.
Status WriteStringToFile(const std::string& path, const std::string& content);

// Crash-safe replacement of `path`: writes to `path`.tmp in the same
// directory, fsyncs the data, then renames over `path`. A crash at any point
// leaves either the old complete file or the new complete file — never a
// torn mix — which checkpoint recovery (core/checkpoint.h) relies on. The
// leftover .tmp from a mid-write crash is simply overwritten next time.
Status AtomicWriteStringToFile(const std::string& path,
                               const std::string& content);

}  // namespace maras

#endif  // MARAS_UTIL_DELIMITED_H_
