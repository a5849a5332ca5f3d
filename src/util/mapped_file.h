#ifndef LBR_UTIL_MAPPED_FILE_H_
#define LBR_UTIL_MAPPED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace lbr {

/// A read-only memory-mapped file (the substrate of the index, DESIGN.md
/// §11): a snapshot on disk, or the memfd image a built index writes. The
/// mapping lives for the lifetime of the object; consumers that hand out
/// pointers into the map (CompressedRow views over image extents) keep the
/// file alive through a shared_ptr.
///
/// Advise() forwards madvise hints so the index can implement
/// planner-driven readahead (kWillNeed before a predicate's extents are
/// probed) and cold-predicate spill (kDontNeed unmaps a spilled slice's
/// pages; they fault back in from the file on the next touch — the data
/// itself is never lost, because the mapping is file-backed).
class MappedFile {
 public:
  enum class Advice { kNormal, kSequential, kRandom, kWillNeed, kDontNeed };

  /// Maps `path` read-only. Throws std::runtime_error (with errno detail)
  /// when the file cannot be opened, stat'ed, or mapped. Zero-length files
  /// map to data() == nullptr, size() == 0. The descriptor is retained for
  /// the object's lifetime so ReadAt can pread past the mapping (the
  /// LBR_SNAPSHOT_PARANOID read path, DESIGN.md §12). Fault site:
  /// mapped_file.map.
  static std::shared_ptr<MappedFile> Open(const std::string& path);

  /// Maps the whole of the open descriptor `fd` read-only and takes
  /// ownership of it (it is closed on failure too); `name` is what path()
  /// reports. Open() is this over ::open(path). Fault site:
  /// mapped_file.map.
  static std::shared_ptr<MappedFile> Adopt(int fd, const std::string& name);

  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const uint8_t* data() const { return data_; }
  uint64_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// System page size the mapping is aligned to.
  static uint64_t PageSize();

  /// madvise hint over [offset, offset + length); the range is clamped to
  /// the file and expanded outward to page boundaries. Best-effort: advice
  /// failures are ignored (they are hints, not correctness), and the
  /// mapped_file.advise fault site drops the hint the same way.
  void Advise(uint64_t offset, uint64_t length, Advice advice) const;

  /// pread `length` bytes at `offset` into `dst`, bypassing the mapping —
  /// unreliable storage faults surface here as a clean error instead of a
  /// SIGBUS on a mapped access. Throws std::runtime_error (with errno
  /// detail) on I/O failure or short read past EOF.
  void ReadAt(uint64_t offset, uint64_t length, void* dst) const;

 private:
  MappedFile() = default;

  const uint8_t* data_ = nullptr;
  uint64_t size_ = 0;
  int fd_ = -1;
  std::string path_;
};

}  // namespace lbr

#endif  // LBR_UTIL_MAPPED_FILE_H_
