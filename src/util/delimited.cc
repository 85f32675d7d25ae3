#include "util/delimited.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>

#include "util/string_util.h"

namespace maras {

StatusOr<std::string> DelimitedWriter::ToString(
    const DelimitedTable& table) const {
  if (table.header.empty()) {
    return Status::InvalidArgument("table has no header");
  }
  std::string out = Join(table.header, delim_);
  out += '\n';
  for (size_t i = 0; i < table.rows.size(); ++i) {
    if (table.rows[i].size() != table.header.size()) {
      return Status::InvalidArgument("row " + std::to_string(i) +
                                     " width mismatch");
    }
    out += Join(table.rows[i], delim_);
    out += '\n';
  }
  return out;
}

Status DelimitedWriter::WriteFile(const std::string& path,
                                  const DelimitedTable& table) const {
  MARAS_ASSIGN_OR_RETURN(std::string content, ToString(table));
  return AtomicWriteStringToFile(path, content);
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open for read: " + path);
  // Read straight into the result, sized from fstat. Reads past that size
  // go through `spill` and are appended, so a file that grew (or reports no
  // size) is still read to EOF. A directory fails the read (EISDIR).
  struct stat info {};
  std::string content;
  if (::fstat(fd, &info) == 0 && info.st_size > 0) {
    content.resize(static_cast<size_t>(info.st_size));
  }
  char spill[4096];
  size_t filled = 0;
  for (;;) {
    const bool direct = filled < content.size();
    char* dest = direct ? content.data() + filled : spill;
    const size_t room = direct ? content.size() - filled : sizeof(spill);
    const ssize_t n = ::read(fd, dest, room);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      return Status::IOError("read failed: " + path);
    }
    if (n == 0) break;
    if (!direct) content.append(spill, static_cast<size_t>(n));
    filled += static_cast<size_t>(n);
  }
  ::close(fd);
  content.resize(filled);
  return content;
}

Status WriteStringToFile(const std::string& path,
                         const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Status AtomicWriteStringToFile(const std::string& path,
                               const std::string& content) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError("cannot open for write: " + tmp);
  size_t written = 0;
  while (written < content.size()) {
    ssize_t n = ::write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IOError("write failed: " + tmp);
    }
    written += static_cast<size_t>(n);
  }
  // Data must be durable before the rename publishes it; otherwise a crash
  // after the rename could expose a file whose contents never hit disk.
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IOError("fsync failed: " + tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError("close failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError("rename failed: " + tmp + " -> " + path);
  }
  return Status::OK();
}

}  // namespace maras
