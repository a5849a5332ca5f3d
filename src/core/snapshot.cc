// Database's snapshot files: the crash-safe save of the index image and the
// open that maps a file back (DESIGN.md §11, §12).

#include "core/database.h"

#include <cerrno>
#include <cstring>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "util/fault_injection.h"
#include "util/mapped_file.h"

namespace lbr {

namespace {

/// RAII cleanup of the snapshot temp file: closes the descriptor and
/// unlinks the temp on every error path, so an aborted save never litters
/// the snapshot directory. Disarmed once the rename consumes the temp.
struct TempFileGuard {
  std::string path;
  int fd = -1;
  bool armed = true;
  ~TempFileGuard() {
    if (fd >= 0) ::close(fd);
    if (armed) ::unlink(path.c_str());
  }
};

[[noreturn]] void ThrowIo(const std::string& what, const std::string& path) {
  int err = errno;
  throw SnapshotError(SnapshotErrorCode::kIo,
                      what + " " + path + ": " + std::strerror(err));
}

/// Throws SnapshotError(kChecksum) when the dict section, or a row
/// directory or extent of some predicate, no longer matches its checksum.
void RequireCleanImage(const TripleIndex& index) {
  if (!index.DictChecksumMatches()) {
    throw SnapshotError(SnapshotErrorCode::kChecksum,
                        "dict section of " + index.image().path());
  }
  std::vector<uint32_t> corrupt;
  index.VerifySlices(&corrupt, nullptr);
  if (!corrupt.empty()) {
    throw SnapshotError(SnapshotErrorCode::kChecksum,
                        "row directory or extent of predicate " +
                            std::to_string(corrupt.front()) + " in " +
                            index.image().path());
  }
}

}  // namespace

void Database::SaveSnapshot(const std::string& path) const {
  // The image is saved as it is mapped, so its checksums are checked
  // first: a damaged image must not become a fresh, trusted-looking file.
  RequireCleanImage(*index_);
  const MappedFile& image = index_->image();

  // Crash-safe emission (DESIGN.md §12): the complete image is written to a
  // same-directory temp file, fsync'd, atomically renamed over `path`,
  // then the directory is fsync'd to make the rename durable. A crash or
  // error at any point leaves `path` pointing at a complete, openable
  // snapshot — the previous one until the rename lands, the new one after
  // — and the guard unlinks the temp on every error path.
  FaultRegistry& faults = FaultRegistry::Instance();
  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  int fd = -1;
  if (faults.ShouldInject(FaultSiteId::kSnapshotWriteCreate)) {
    errno = EIO;
  } else {
    fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  }
  if (fd < 0) ThrowIo("cannot create", tmp_path);
  TempFileGuard guard{tmp_path, fd};

  if (faults.ShouldInject(FaultSiteId::kSnapshotWriteWrite)) {
    errno = EIO;
    ThrowIo("cannot write", tmp_path);
  }
  const uint8_t* data = image.data();
  for (uint64_t left = image.size(); left > 0;) {
    ssize_t n = ::write(fd, data, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      ThrowIo("cannot write", tmp_path);
    }
    data += n;
    left -= static_cast<uint64_t>(n);
  }

  if (faults.ShouldInject(FaultSiteId::kSnapshotWriteFsync)) {
    errno = EIO;
    ThrowIo("cannot fsync", tmp_path);
  }
  if (::fsync(fd) != 0) ThrowIo("cannot fsync", tmp_path);
  guard.fd = -1;
  if (::close(fd) != 0) ThrowIo("cannot close", tmp_path);

  if (faults.ShouldInject(FaultSiteId::kSnapshotWriteRename)) {
    errno = EIO;
    ThrowIo("cannot rename over " + path + ":", tmp_path);
  }
  if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
    ThrowIo("cannot rename over " + path + ":", tmp_path);
  }
  guard.armed = false;  // the rename consumed the temp

  // Directory fsync: the rename is in the page cache until the directory
  // itself is durable. A failure here still leaves `path` a complete new
  // snapshot — only its crash-durability is in question — so the thrown
  // error reports that honestly.
  std::string dir_path = ".";
  size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) {
    dir_path = slash == 0 ? "/" : path.substr(0, slash);
  }
  int dfd = ::open(dir_path.c_str(), O_RDONLY);
  if (dfd < 0) ThrowIo("cannot open directory", dir_path);
  if (faults.ShouldInject(FaultSiteId::kSnapshotWriteDirSync)) {
    ::close(dfd);
    errno = EIO;
    ThrowIo("cannot fsync directory (snapshot written but rename may not "
            "be durable)",
            dir_path);
  }
  int sync_rc = ::fsync(dfd);
  ::close(dfd);
  if (sync_rc != 0) {
    ThrowIo("cannot fsync directory (snapshot written but rename may not "
            "be durable)",
            dir_path);
  }
}

Database Database::OpenSnapshot(const std::string& path, EngineOptions options,
                                SnapshotOptions snap) {
  if (FaultRegistry::Instance().ShouldInject(FaultSiteId::kSnapshotOpen)) {
    errno = EIO;
    ThrowIo("injected open fault:", path);
  }
  std::shared_ptr<MappedFile> file;
  try {
    file = MappedFile::Open(path);
  } catch (const std::runtime_error& e) {
    throw SnapshotError(SnapshotErrorCode::kIo, e.what());
  }
  Database db;
  db.index_ = std::make_unique<TripleIndex>(
      TripleIndex::Open(std::move(file), snap.paranoid));
  db.dict_ = std::make_unique<Dictionary>(db.index_->ImageDictionary());
  // Full-integrity open: one sequential pass over both sides of every
  // predicate (for operators validating a freshly copied snapshot).
  if (snap.verify_extents) RequireCleanImage(*db.index_);

  db.engine_ = std::make_unique<Engine>(db.index_.get(), db.dict_.get(),
                                        options);
  if (snap.memory_budget_bytes > 0) {
    // One meter, two tiers: materialized index slices and TP-cache entries
    // charge the same account; the index's spill pass drains cache entries
    // first (rebuildable from slices), then its own cold slices
    // (rebuildable from the map).
    db.store_meter_ = std::make_unique<QueryControl>();
    db.index_->SetMemoryBudget(snap.memory_budget_bytes,
                               db.store_meter_.get());
    std::shared_ptr<TpCache> cache = db.engine_->shared_tp_cache();
    cache->SetMemoryAccounting(db.store_meter_.get(),
                               snap.memory_budget_bytes);
    std::weak_ptr<TpCache> weak_cache = cache;
    db.index_->SetSpillHook([weak_cache]() -> uint64_t {
      std::shared_ptr<TpCache> c = weak_cache.lock();
      return c != nullptr ? c->SpillToFit() : 0;
    });
  }
  return db;
}

}  // namespace lbr
