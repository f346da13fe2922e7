// Filesystem helpers: whole-file reads, and the atomic write everything that
// persists flow outputs uses.
#pragma once

#include <string>
#include <string_view>

#include "util/status.hpp"

namespace sadp::util {

/// Write `content` to `path` atomically: write to `<path>.tmp.<pid>` in the
/// same directory, fsync it, then rename() over the destination.  Readers
/// never observe a half-written file — after a crash, `path` holds either
/// the complete old content or the complete new content.
[[nodiscard]] Status atomic_write_file(const std::string& path,
                                       std::string_view content);

/// Read the whole file at `path` into `*text`; false when it cannot be
/// opened.  Callers word their own error.
[[nodiscard]] bool read_file(const std::string& path, std::string* text);

}  // namespace sadp::util
