#include "util/fs.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace sadp::util {

namespace {

Status errno_status(const std::string& what, const std::string& path) {
  return Status::internal(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

Status atomic_write_file(const std::string& path, std::string_view content) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return errno_status("open", tmp);

  std::string_view rest = content;
  while (!rest.empty()) {
    const ssize_t wrote = ::write(fd, rest.data(), rest.size());
    if (wrote < 0) {
      if (errno == EINTR) continue;
      const Status status = errno_status("write", tmp);
      ::close(fd);
      ::unlink(tmp.c_str());
      return status;
    }
    rest.remove_prefix(static_cast<std::size_t>(wrote));
  }
  if (::fsync(fd) != 0) {
    const Status status = errno_status("fsync", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return status;
  }
  if (::close(fd) != 0) {
    const Status status = errno_status("close", tmp);
    ::unlink(tmp.c_str());
    return status;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const Status status = errno_status("rename", tmp + "' -> '" + path);
    ::unlink(tmp.c_str());
    return status;
  }
  return Status::ok();
}

bool read_file(const std::string& path, std::string* text) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *text = buffer.str();
  return true;
}

}  // namespace sadp::util
