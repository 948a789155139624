// POSIX file plumbing shared by the durable storage layer (DESIGN.md §13):
// the one write(2) loop, whole-file reads, crash-atomic writes (temp file +
// fsync + rename + parent directory fsync), and directory listing. Kept
// apart from the format code so snapshot_file.cc and wal.cc stay about
// bytes, not syscalls.

#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace hops::storage {

/// \brief Writes all \p size bytes at \p data to \p fd, retrying short
/// writes and EINTR. Every storage write(2) goes through here; \p path only
/// names the file in the error.
Status WriteAll(int fd, const char* data, size_t size,
                const std::string& path);

/// \brief Reads the whole file at \p path. NotFound when absent; Internal
/// on any other I/O failure.
Result<std::string> ReadFileToString(const std::string& path);

/// \brief Writes \p bytes to `dir/filename` atomically: a hidden temp file
/// in \p dir is written, fsynced (when \p fsync_file), renamed over the
/// target, and the directory entry is fsynced. Readers see either the old
/// complete file or the new complete file, never a torn one.
Status WriteFileAtomic(const std::string& dir, const std::string& filename,
                       std::string_view bytes, bool fsync_file = true);

/// \brief fsyncs the directory itself, making renames/unlinks in it durable.
Status FsyncDir(const std::string& dir);

/// \brief Creates \p dir (one level) if absent.
Status EnsureDir(const std::string& dir);

/// \brief Regular-file names (not paths) in \p dir, unsorted.
Result<std::vector<std::string>> ListDir(const std::string& dir);

/// \brief Deletes `dir/filename` and fsyncs the directory. Missing file OK.
Status RemoveFileDurable(const std::string& dir, const std::string& filename);

}  // namespace hops::storage
