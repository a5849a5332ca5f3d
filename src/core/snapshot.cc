#include "core/snapshot.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "util/fault_injection.h"
#include "util/mapped_file.h"

namespace lbr {

const char* SnapshotErrorCodeName(SnapshotErrorCode code) {
  switch (code) {
    case SnapshotErrorCode::kIo:
      return "io-error";
    case SnapshotErrorCode::kBadMagic:
      return "bad-magic";
    case SnapshotErrorCode::kBadVersion:
      return "bad-version";
    case SnapshotErrorCode::kTruncated:
      return "truncated";
    case SnapshotErrorCode::kChecksum:
      return "checksum-mismatch";
    case SnapshotErrorCode::kCorrupt:
      return "corrupt-metadata";
  }
  return "unknown";
}

namespace {

uint64_t AlignUp(uint64_t n, uint64_t align) {
  return (n + align - 1) / align * align;
}

void AppendPod(std::string* blob, const void* data, size_t len) {
  blob->append(static_cast<const char*>(data), len);
}

template <typename T>
void AppendValue(std::string* blob, T value) {
  AppendPod(blob, &value, sizeof(T));
}

/// Serializes one orientation's rows: fixed directory entries into *dir,
/// payload words into *extent. Returns the finished SnapSliceLocEntry with
/// section-relative offsets.
SnapSliceLocEntry EmitSlice(
    const std::vector<std::pair<uint32_t, CompressedRow>>& rows,
    uint64_t page_size, std::string* dir, std::string* extent) {
  SnapSliceLocEntry loc{};
  // Page-align the extent start so one slice's spill (madvise DONTNEED)
  // never drops a neighbor's pages. The extents section base is itself
  // page-aligned, so section-relative alignment is absolute alignment.
  extent->resize(AlignUp(extent->size(), page_size), '\0');
  loc.dir_off = dir->size();
  loc.dir_rows = static_cast<uint32_t>(rows.size());
  loc.extent_off = extent->size();
  uint64_t words = 0;
  for (const auto& [id, row] : rows) {
    SnapRowDirEntry e{};
    e.id = id;
    e.count = row.Count();
    e.payload_off_words = words;
    e.payload_words = static_cast<uint32_t>(row.psize());
    e.encoding = static_cast<uint8_t>(row.encoding());
    e.first_bit = row.first_bit() ? 1 : 0;
    AppendPod(dir, &e, sizeof(e));
    AppendPod(extent, row.pdata(), row.psize() * sizeof(uint32_t));
    words += row.psize();
  }
  loc.extent_words = words;
  loc.dir_checksum = Checksum64(dir->data() + loc.dir_off,
                                loc.dir_rows * sizeof(SnapRowDirEntry));
  loc.extent_checksum =
      Checksum64(extent->data() + loc.extent_off, loc.extent_words * 4);
  return loc;
}

/// Bounds-checked cursor over a mapped byte range; any overrun means the
/// writer and reader disagree about the meta layout — corrupt, fail closed.
class MetaReader {
 public:
  MetaReader(const uint8_t* data, uint64_t size) : data_(data), size_(size) {}

  template <typename T>
  T Read() {
    T out;
    std::memcpy(&out, ReadRaw(sizeof(T)), sizeof(T));
    return out;
  }

  // Overflow-safe: pos_ <= size_ is an invariant, so size_ - pos_ never
  // wraps and an attacker-controlled huge `len` fails cleanly.
  const uint8_t* ReadRaw(uint64_t len) {
    if (len > size_ - pos_) {
      throw SnapshotError(SnapshotErrorCode::kCorrupt,
                          "meta section overrun");
    }
    const uint8_t* out = data_ + pos_;
    pos_ += len;
    return out;
  }

 private:
  const uint8_t* data_;
  uint64_t size_;
  uint64_t pos_ = 0;
};

struct SectionSpan {
  uint64_t offset = 0;
  uint64_t size = 0;
  uint64_t checksum = 0;
};

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

}  // namespace

void SnapshotIO::Write(const Dictionary& dict, const TripleIndex& index,
                       const std::string& path) {
  const uint64_t page = MappedFile::PageSize();
  const uint32_t np = index.num_predicates();

  // The eager dict section serializes through the dictionary's writer.
  std::ostringstream dict_blob_s;
  dict.WriteTo(&dict_blob_s);
  const std::string dict_blob = dict_blob_s.str();

  // Walk every slice once, building the row directories, the page-aligned
  // extents, and the per-slice locators. Slice() pins work from either
  // backend, so re-snapshotting a mapped database materializes one side at
  // a time without holding the whole index resident.
  std::string rowdir_blob, extents_blob;
  std::vector<SnapSliceLocEntry> locs;
  locs.reserve(2 * static_cast<size_t>(np));
  for (uint32_t p = 0; p < np; ++p) {
    for (TripleIndex::Side side :
         {TripleIndex::Side::kSO, TripleIndex::Side::kOS}) {
      locs.push_back(EmitSlice(index.Slice(p, side)->rows, page,
                               &rowdir_blob, &extents_blob));
    }
  }

  // Meta: dims + counts + condensed bitvectors + slice locators.
  std::string meta_blob;
  AppendValue<uint32_t>(&meta_blob, index.num_subjects());
  AppendValue<uint32_t>(&meta_blob, np);
  AppendValue<uint32_t>(&meta_blob, index.num_objects());
  AppendValue<uint32_t>(&meta_blob, index.num_common());
  AppendValue<uint64_t>(&meta_blob, index.num_triples());
  for (uint32_t p = 0; p < np; ++p) {
    AppendValue<uint64_t>(&meta_blob, index.PredicateCardinality(p));
  }
  for (uint32_t p = 0; p < np; ++p) {
    const auto& sw = index.SubjectsOf(p).words();
    AppendValue<uint64_t>(&meta_blob, static_cast<uint64_t>(sw.size()));
    AppendPod(&meta_blob, sw.data(), sw.size() * 8);
    const auto& ow = index.ObjectsOf(p).words();
    AppendValue<uint64_t>(&meta_blob, static_cast<uint64_t>(ow.size()));
    AppendPod(&meta_blob, ow.data(), ow.size() * 8);
  }
  AppendPod(&meta_blob, locs.data(), locs.size() * sizeof(SnapSliceLocEntry));

  // File layout: header | dict | rowdir | meta | pad | extents.
  const uint64_t dict_off = kSnapHeaderBytes;
  const uint64_t rowdir_off = dict_off + dict_blob.size();
  const uint64_t meta_off = rowdir_off + rowdir_blob.size();
  const uint64_t extents_off = AlignUp(meta_off + meta_blob.size(), page);
  const uint64_t file_size = extents_off + extents_blob.size();

  SnapHeader hdr{};
  std::memcpy(hdr.magic, kSnapMagic, 8);
  hdr.version = kSnapVersion;
  hdr.page_size = static_cast<uint32_t>(page);
  hdr.file_size = file_size;
  hdr.num_sections = kSnapNumSections;

  SnapSectionEntry sections[kSnapNumSections] = {};
  auto set = [](SnapSectionEntry* e, SnapSectionKind kind, uint64_t off,
                uint64_t size, uint64_t checksum) {
    e->kind = kind;
    e->offset = off;
    e->size = size;
    e->checksum = checksum;
  };
  set(&sections[0], kSnapSectionDict, dict_off, dict_blob.size(),
      Checksum64(dict_blob.data(), dict_blob.size()));
  // Rowdir + extents carry checksum 0: their integrity is per slice
  // (dir_checksum / extent_checksum in the locators), verified lazily at
  // materialization.
  set(&sections[1], kSnapSectionRowDir, rowdir_off, rowdir_blob.size(), 0);
  set(&sections[2], kSnapSectionMeta, meta_off, meta_blob.size(),
      Checksum64(meta_blob.data(), meta_blob.size()));
  set(&sections[3], kSnapSectionExtents, extents_off, extents_blob.size(), 0);

  // The header block is the header, the section table and the checksum of
  // those two, laid out contiguously exactly as the reader sees them.
  uint8_t head[kSnapHeaderBytes];
  std::memcpy(head, &hdr, sizeof(hdr));
  std::memcpy(head + sizeof(hdr), sections, sizeof(sections));
  const uint64_t head_checksum = Checksum64(head, kSnapHeaderBytes - 8);
  std::memcpy(head + kSnapHeaderBytes - 8, &head_checksum, 8);

  // Crash-safe emission (DESIGN.md §12): the complete image is built in a
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

  auto write_all = [&](const void* data, uint64_t len) {
    if (faults.ShouldInject(FaultSiteId::kSnapshotWriteWrite)) {
      errno = EIO;
      ThrowIo("cannot write", tmp_path);
    }
    const uint8_t* p = static_cast<const uint8_t*>(data);
    while (len > 0) {
      ssize_t n = ::write(fd, p, len);
      if (n < 0) {
        if (errno == EINTR) continue;
        ThrowIo("cannot write", tmp_path);
      }
      p += n;
      len -= static_cast<uint64_t>(n);
    }
  };
  write_all(head, sizeof(head));
  write_all(dict_blob.data(), dict_blob.size());
  write_all(rowdir_blob.data(), rowdir_blob.size());
  write_all(meta_blob.data(), meta_blob.size());
  const std::string pad(extents_off - (meta_off + meta_blob.size()), '\0');
  write_all(pad.data(), pad.size());
  write_all(extents_blob.data(), extents_blob.size());

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

SnapshotIO::OpenResult SnapshotIO::Open(const std::string& path,
                                        const SnapshotOptions& options) {
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
  const uint8_t* base = file->data();
  const uint64_t fsize = file->size();

  if (fsize < 8) {
    throw SnapshotError(SnapshotErrorCode::kTruncated,
                        path + " is smaller than the magic");
  }
  if (std::memcmp(base, kSnapMagic, 8) != 0) {
    throw SnapshotError(SnapshotErrorCode::kBadMagic,
                        path + " is not a snapshot");
  }
  if (fsize < kSnapHeaderBytes) {
    throw SnapshotError(SnapshotErrorCode::kTruncated,
                        path + " is smaller than the header");
  }
  SnapHeader hdr = ReadPod<SnapHeader>(base, 0);
  if (hdr.version != kSnapVersion) {
    throw SnapshotError(SnapshotErrorCode::kBadVersion,
                        "version " + std::to_string(hdr.version) +
                            " (this build reads version " +
                            std::to_string(kSnapVersion) + ")");
  }
  if (hdr.num_sections != kSnapNumSections) {
    throw SnapshotError(SnapshotErrorCode::kCorrupt,
                        "unexpected section count");
  }
  if (hdr.file_size != fsize) {
    throw SnapshotError(SnapshotErrorCode::kTruncated,
                        path + ": header records " +
                            std::to_string(hdr.file_size) + " bytes, file has " +
                            std::to_string(fsize));
  }
  if (Checksum64(base, kSnapHeaderBytes - 8) !=
      ReadPod<uint64_t>(base, kSnapHeaderBytes - 8)) {
    throw SnapshotError(SnapshotErrorCode::kChecksum, "header of " + path);
  }

  SectionSpan spans[kSnapNumSections + 1];  // indexed by SnapSectionKind
  for (uint32_t i = 0; i < kSnapNumSections; ++i) {
    SnapSectionEntry e = ReadPod<SnapSectionEntry>(
        base, sizeof(SnapHeader) + i * sizeof(SnapSectionEntry));
    if (e.kind < 1 || e.kind > kSnapNumSections) {
      throw SnapshotError(SnapshotErrorCode::kCorrupt,
                          "unknown section kind");
    }
    if (e.offset > fsize || e.size > fsize - e.offset) {
      throw SnapshotError(SnapshotErrorCode::kTruncated,
                          "section extends past the end of " + path);
    }
    spans[e.kind] = {e.offset, e.size, e.checksum};
  }
  // Eager integrity: dict and meta are decoded now, so their checksums
  // are verified now. Rowdir/extents verify lazily per slice.
  for (uint32_t kind : {kSnapSectionDict, kSnapSectionMeta}) {
    const SectionSpan& s = spans[kind];
    if (Checksum64(base + s.offset, s.size) != s.checksum) {
      throw SnapshotError(SnapshotErrorCode::kChecksum,
                          "section " + std::to_string(kind) + " of " + path);
    }
  }

  OpenResult result;
  try {
    std::istringstream dict_in(std::string(
        reinterpret_cast<const char*>(base + spans[kSnapSectionDict].offset),
        spans[kSnapSectionDict].size));
    result.dict =
        std::make_unique<Dictionary>(Dictionary::ReadFrom(&dict_in));
  } catch (const SnapshotError&) {
    throw;
  } catch (const std::exception& e) {
    throw SnapshotError(SnapshotErrorCode::kCorrupt,
                        std::string("dict decode: ") + e.what());
  }

  const SectionSpan& meta = spans[kSnapSectionMeta];
  const SectionSpan& rowdir = spans[kSnapSectionRowDir];
  const SectionSpan& extents = spans[kSnapSectionExtents];
  MetaReader mr(base + meta.offset, meta.size);

  auto index = std::make_unique<TripleIndex>();
  index->num_subjects_ = mr.Read<uint32_t>();
  index->num_predicates_ = mr.Read<uint32_t>();
  index->num_objects_ = mr.Read<uint32_t>();
  index->num_common_ = mr.Read<uint32_t>();
  index->num_triples_ = mr.Read<uint64_t>();
  const uint32_t np = index->num_predicates_;
  // Each section checksums clean on its own; they must also describe the
  // same graph, or the engine would decode ids out of bounds on the first
  // query.
  const Dictionary& dict = *result.dict;
  if (dict.num_subjects() != index->num_subjects_ ||
      dict.num_predicates() != np ||
      dict.num_objects() != index->num_objects_ ||
      dict.num_common() != index->num_common_) {
    throw SnapshotError(SnapshotErrorCode::kCorrupt,
                        "dict and meta sections disagree on the index "
                        "dimensions in " + path);
  }
  index->pred_counts_.resize(np);
  for (uint32_t p = 0; p < np; ++p) {
    index->pred_counts_[p] = mr.Read<uint64_t>();
  }
  index->non_empty_s_.resize(np);
  index->non_empty_o_.resize(np);
  std::vector<uint64_t> tmp;
  auto read_bitvector = [&](Bitvector* bv, size_t nbits) {
    uint64_t nwords = mr.Read<uint64_t>();
    if (nwords > meta.size / 8) {
      throw SnapshotError(SnapshotErrorCode::kCorrupt,
                          "bitvector length overrun in " + path);
    }
    const uint8_t* words = mr.ReadRaw(nwords * 8);
    tmp.assign(nwords, 0);
    std::memcpy(tmp.data(), words, nwords * 8);
    bv->AssignWords(tmp.data(), nwords, nbits);
  };
  for (uint32_t p = 0; p < np; ++p) {
    read_bitvector(&index->non_empty_s_[p], index->num_subjects_);
    read_bitvector(&index->non_empty_o_[p], index->num_objects_);
  }

  const size_t num_slots = 2 * static_cast<size_t>(np);
  auto backing = std::make_unique<TripleIndex::Backing>();
  backing->file = file;
  backing->loc.resize(num_slots);
  for (TripleIndex::SliceLoc& loc : backing->loc) {
    SnapSliceLocEntry e = mr.Read<SnapSliceLocEntry>();
    uint64_t dir_bytes =
        static_cast<uint64_t>(e.dir_rows) * sizeof(SnapRowDirEntry);
    if (e.dir_off > rowdir.size || dir_bytes > rowdir.size - e.dir_off ||
        e.extent_off > extents.size ||
        e.extent_words > (extents.size - e.extent_off) / 4) {
      throw SnapshotError(SnapshotErrorCode::kCorrupt,
                          "slice locator out of bounds in " + path);
    }
    loc.dir_off = rowdir.offset + e.dir_off;
    loc.dir_rows = e.dir_rows;
    loc.extent_off = extents.offset + e.extent_off;
    loc.extent_words = e.extent_words;
    loc.dir_checksum = e.dir_checksum;
    loc.extent_checksum = e.extent_checksum;
  }
  backing->mu = std::make_unique<std::mutex[]>(num_slots);
  backing->last_touch = std::make_unique<std::atomic<uint64_t>[]>(num_slots);
  backing->resident = std::make_unique<std::atomic<uint8_t>[]>(num_slots);
  backing->quarantined = std::make_unique<std::atomic<uint8_t>[]>(np);
  for (size_t slot = 0; slot < num_slots; ++slot) {
    backing->last_touch[slot].store(0, std::memory_order_relaxed);
    backing->resident[slot].store(0, std::memory_order_relaxed);
  }
  for (uint32_t p = 0; p < np; ++p) {
    backing->quarantined[p].store(0, std::memory_order_relaxed);
  }
  backing->paranoid = options.paranoid;
  if (!backing->paranoid) {
    const char* env = std::getenv("LBR_SNAPSHOT_PARANOID");
    backing->paranoid =
        env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
  }
  index->slices_.assign(num_slots, nullptr);
  index->backing_ = std::move(backing);

  if (options.verify_extents) {
    // Full-integrity open: one sequential pass over both sides of every
    // predicate (the paranoid mode of the rejection tests and of operators
    // validating a freshly copied snapshot).
    std::vector<uint32_t> corrupt;
    if (!index->VerifySlices(&corrupt, nullptr)) {
      throw SnapshotError(SnapshotErrorCode::kChecksum,
                          "row directory or extent of predicate " +
                              std::to_string(corrupt.front()) + " in " +
                              path);
    }
  }
  result.index = std::move(index);
  return result;
}

}  // namespace lbr
