#include "storage/io.h"

#include <dirent.h>
#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstdio>

namespace hops::storage {

namespace {

std::string Errno(const std::string& what, const std::string& path) {
  return what + " " + path + ": " + ::strerror(errno);
}

}  // namespace

Status WriteAll(int fd, const char* data, size_t size,
                const std::string& path) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("write", path));
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Status::Internal(Errno("open", path));
  }
  std::string out;
  struct stat st;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    out.reserve(static_cast<size_t>(st.st_size));
  }
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = Status::Internal(Errno("read", path));
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

Status WriteFileAtomic(const std::string& dir, const std::string& filename,
                       std::string_view bytes, bool fsync_file) {
  const std::string tmp_name = ".tmp-" + filename;
  const std::string tmp_path = dir + "/" + tmp_name;
  const std::string final_path = dir + "/" + filename;
  const int fd = ::open(tmp_path.c_str(),
                        O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) return Status::Internal(Errno("open", tmp_path));
  Status status = WriteAll(fd, bytes.data(), bytes.size(), tmp_path);
  if (status.ok() && fsync_file && ::fsync(fd) != 0) {
    status = Status::Internal(Errno("fsync", tmp_path));
  }
  if (::close(fd) != 0 && status.ok()) {
    status = Status::Internal(Errno("close", tmp_path));
  }
  if (!status.ok()) {
    ::unlink(tmp_path.c_str());
    return status;
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    const Status rename_status = Status::Internal(Errno("rename", final_path));
    ::unlink(tmp_path.c_str());
    return rename_status;
  }
  return FsyncDir(dir);
}

Status FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Status::Internal(Errno("open dir", dir));
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::Internal(Errno("fsync dir", dir));
  return Status::OK();
}

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::OK();
  return Status::Internal(Errno("mkdir", dir));
}

Result<std::vector<std::string>> ListDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return Status::Internal(Errno("opendir", dir));
  std::vector<std::string> names;
  for (;;) {
    errno = 0;
    struct dirent* entry = ::readdir(d);
    if (entry == nullptr) {
      if (errno != 0) {
        const Status status = Status::Internal(Errno("readdir", dir));
        ::closedir(d);
        return status;
      }
      break;
    }
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    struct stat st;
    if (::stat((dir + "/" + name).c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      names.push_back(name);
    }
  }
  ::closedir(d);
  return names;
}

Status RemoveFileDurable(const std::string& dir, const std::string& filename) {
  const std::string path = dir + "/" + filename;
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::Internal(Errno("unlink", path));
  }
  return FsyncDir(dir);
}

}  // namespace hops::storage
