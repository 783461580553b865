#ifndef EDGESHED_COMMON_MAPPED_FILE_H_
#define EDGESHED_COMMON_MAPPED_FILE_H_

#include <cstddef>
#include <memory>
#include <string>

#include "common/statusor.h"

namespace edgeshed {

/// Read-only memory-mapped file (POSIX mmap), the storage primitive behind
/// zero-copy snapshot loading (DESIGN.md §14).
///
/// The mapping is private-read (PROT_READ, MAP_SHARED): page-cache pages are
/// shared between every process that maps the same file, so several servers
/// on one box serve the same snapshot for one physical copy.
/// The file descriptor is closed immediately after mapping — the kernel
/// keeps the mapping alive — so a MappedFile never pins an fd.
///
/// Lifetime: consumers that hand out views into the mapping (for example a
/// mmap-backed Graph) hold the MappedFile via shared_ptr; the pages stay
/// valid until the last holder drops it. The destructor munmaps.
///
/// Mutating the underlying file while mapped is undefined in the usual mmap
/// way (writers in this codebase always write a temp file and rename, or
/// write-once into a shared directory), and truncating it can SIGBUS —
/// the snapshot workflow treats published files as immutable.
class MappedFile {
 public:
  /// Maps `path` read-only. IOError when the file cannot be opened, stat'd,
  /// or mapped. A zero-length file maps successfully with data()==nullptr.
  static StatusOr<std::shared_ptr<const MappedFile>> Open(
      const std::string& path);

  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const char* data() const { return static_cast<const char*>(data_); }
  size_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// Advises the kernel the whole mapping will be read sequentially soon
  /// (copy loads) — best-effort, errors ignored.
  void AdviseSequential() const;

 private:
  MappedFile(std::string path, void* data, size_t size)
      : path_(std::move(path)), data_(data), size_(size) {}

  std::string path_;
  void* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace edgeshed

#endif  // EDGESHED_COMMON_MAPPED_FILE_H_
