#include "io/serialize.h"

#include <cerrno>
#include <cstdio>

#ifdef __unix__
#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace cafe {
namespace io {
namespace {

/// Forces `f`'s written data to stable storage, then (POSIX) syncs the
/// directory holding `path` after a rename — without both, a crash can
/// make the rename durable before the data blocks, replacing the previous
/// good file with a torn one.
bool SyncFile(std::FILE* f) {
#ifdef __unix__
  return fsync(fileno(f)) == 0;
#else
  (void)f;
  return true;
#endif
}

void SyncParentDirectory(const std::string& path) {
#ifdef __unix__
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash + 1);
  const int fd = open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    fsync(fd);
    close(fd);
  }
#else
  (void)path;
#endif
}

}  // namespace

uint64_t Fingerprint(const void* data, size_t size) {
  return FingerprintExtend(kFingerprintBasis, data, size);
}

uint64_t FingerprintExtend(uint64_t state, const void* data, size_t size) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = state;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return h;
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open " + tmp + " for writing");
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool synced = flushed && SyncFile(f);
  const bool closed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed || !synced || !closed) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " to " + path);
  }
  SyncParentDirectory(path);
  return Status::OK();
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + path);
  }
  std::string bytes;
  char chunk[1 << 16];
  size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes.append(chunk, got);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    return Status::Internal("read error on " + path);
  }
  return bytes;
}

Status EnsureDirectory(const std::string& path) {
#ifdef __unix__
  if (mkdir(path.c_str(), 0755) == 0) return Status::OK();
  struct stat st;
  if (stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
    return Status::OK();
  }
  return Status::Internal("cannot create directory " + path);
#else
  return Status::Unimplemented("EnsureDirectory: " + path);
#endif
}

StatusOr<std::vector<std::string>> ListDirectory(const std::string& path) {
#ifdef __unix__
  DIR* dir = opendir(path.c_str());
  if (dir == nullptr) {
    return Status::NotFound("cannot open directory " + path);
  }
  std::vector<std::string> names;
  while (struct dirent* entry = readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    struct stat st;
    const std::string full = path + "/" + name;
    if (stat(full.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) continue;
    names.push_back(name);
  }
  closedir(dir);
  return names;
#else
  return Status::Unimplemented("ListDirectory: " + path);
#endif
}

Status RemoveFile(const std::string& path) {
  if (std::remove(path.c_str()) == 0) return Status::OK();
#ifdef __unix__
  if (errno == ENOENT) return Status::OK();
#endif
  // Distinguish "already gone" from a real failure portably: if the file
  // can no longer be opened, the caller's goal is met.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::OK();
  std::fclose(f);
  return Status::Internal("cannot remove " + path);
}

}  // namespace io
}  // namespace cafe
