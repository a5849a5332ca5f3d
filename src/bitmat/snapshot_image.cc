// The v3 snapshot image (layout in bitmat/snapshot_format.h, DESIGN.md §11):
// TripleIndex::Build writes it, TripleIndex::Open reads it. Every index is
// an open image, whether it came from a graph or from a file.

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#include "bitmat/triple_index.h"

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

template <typename T>
void AppendValue(std::string* blob, const T& value) {
  blob->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

[[noreturn]] void ThrowImageIo(const char* what) {
  throw SnapshotError(SnapshotErrorCode::kIo,
                      std::string(what) + " the index image: " +
                          std::strerror(errno));
}

/// pwrite of the whole range, retried on EINTR and short writes.
void WriteAt(int fd, uint64_t offset, const void* data, uint64_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    ssize_t n = ::pwrite(fd, p, len, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      ThrowImageIo("cannot write");
    }
    p += n;
    offset += static_cast<uint64_t>(n);
    len -= static_cast<uint64_t>(n);
  }
}

/// Closes the image descriptor on every error path until MappedFile adopts
/// it.
struct FdGuard {
  int fd = -1;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
};

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

}  // namespace

TripleIndex TripleIndex::Build(const Graph& graph) {
  const Dictionary& dict = graph.dict();
  const uint32_t ns = dict.num_subjects();
  const uint32_t np = dict.num_predicates();
  const uint32_t no = dict.num_objects();
  const uint64_t page = MappedFile::PageSize();

  // Bucket (s, o) pairs by predicate. Input triples are (S,P,O)-sorted, so
  // each bucket is already (s, o)-sorted: the S-O side's row order.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> by_pred(np);
  for (const Triple& t : graph.triples()) by_pred[t.p].emplace_back(t.s, t.o);

  // Meta: dims, per-predicate counts and non-empty-row bitvectors, then the
  // fixed-size slice locators, filled in as the slices are written. The
  // bitvectors count the rows, which sizes the rowdir section, so every
  // section's offset is known before the first row is encoded.
  std::string meta;
  AppendValue(&meta, ns);
  AppendValue(&meta, np);
  AppendValue(&meta, no);
  AppendValue(&meta, dict.num_common());
  AppendValue(&meta, static_cast<uint64_t>(graph.num_triples()));
  for (const auto& pairs : by_pred) {
    AppendValue(&meta, static_cast<uint64_t>(pairs.size()));
  }
  uint64_t num_rows = 0;
  for (const auto& pairs : by_pred) {
    Bitvector subjects(ns), objects(no);
    for (const auto& [s, o] : pairs) {
      subjects.Set(s);
      objects.Set(o);
    }
    for (const Bitvector* bv : {&subjects, &objects}) {
      num_rows += bv->Count();
      const std::vector<uint64_t>& words = bv->words();
      AppendValue(&meta, static_cast<uint64_t>(words.size()));
      meta.append(reinterpret_cast<const char*>(words.data()),
                  words.size() * 8);
    }
  }
  const size_t locs_at = meta.size();
  meta.resize(locs_at + 2 * static_cast<size_t>(np) *
                            sizeof(SnapSliceLocEntry));

  // File layout: header | dict | rowdir | meta | pad | extents.
  const uint64_t dict_off = kSnapHeaderBytes;
  const uint64_t rowdir_off = dict_off + dict.size();
  const uint64_t meta_off = rowdir_off + num_rows * sizeof(SnapRowDirEntry);
  const uint64_t extents_off = AlignUp(meta_off + meta.size(), page);

  // A memfd, not anonymous memory: spilling a slice madvise(DONTNEED)s its
  // pages, which a file mapping faults back from the file and an anonymous
  // private mapping would refill with zeros.
  FdGuard guard{::memfd_create("lbr-index", MFD_CLOEXEC)};
  if (guard.fd < 0) ThrowImageIo("cannot create");

  // Each slice is encoded into reused buffers and written at its offset,
  // so the whole image is never held in the heap.
  std::vector<SnapRowDirEntry> dir;
  std::vector<uint32_t> extent, cols;
  uint64_t dir_pos = 0, extent_pos = 0;  // section-relative cursors
  auto emit = [&](const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
                  size_t slot) {
    dir.clear();
    extent.clear();
    for (size_t i = 0; i < pairs.size();) {
      SnapRowDirEntry e{};
      e.id = pairs[i].first;
      cols.clear();
      for (; i < pairs.size() && pairs[i].first == e.id; ++i) {
        cols.push_back(pairs[i].second);
      }
      const CompressedRow row = CompressedRow::FromPositions(cols);
      e.count = row.Count();
      e.payload_off_words = extent.size();
      e.payload_words = static_cast<uint32_t>(row.psize());
      e.encoding = static_cast<uint8_t>(row.encoding());
      e.first_bit = row.first_bit() ? 1 : 0;
      dir.push_back(e);
      extent.insert(extent.end(), row.pdata(), row.pdata() + row.psize());
    }
    // Page-align each extent so one slice's spill never drops a neighbor's
    // pages; the extents section base is page-aligned too.
    extent_pos = AlignUp(extent_pos, page);
    SnapSliceLocEntry loc{};
    loc.dir_off = dir_pos;
    loc.dir_rows = static_cast<uint32_t>(dir.size());
    loc.extent_off = extent_pos;
    loc.extent_words = extent.size();
    const uint64_t dir_bytes = dir.size() * sizeof(SnapRowDirEntry);
    loc.dir_checksum = Checksum64(dir.data(), dir_bytes);
    loc.extent_checksum = Checksum64(extent.data(), extent.size() * 4);
    WriteAt(guard.fd, rowdir_off + dir_pos, dir.data(), dir_bytes);
    WriteAt(guard.fd, extents_off + extent_pos, extent.data(),
            extent.size() * 4);
    dir_pos += dir_bytes;
    extent_pos += extent.size() * 4;
    std::memcpy(&meta[locs_at + slot * sizeof(SnapSliceLocEntry)], &loc,
                sizeof(loc));
  };
  for (uint32_t p = 0; p < np; ++p) {
    std::vector<std::pair<uint32_t, uint32_t>>& pairs = by_pred[p];
    emit(pairs, SlotOf(p, Side::kSO));
    for (auto& pair : pairs) std::swap(pair.first, pair.second);
    std::sort(pairs.begin(), pairs.end());
    emit(pairs, SlotOf(p, Side::kOS));
    std::vector<std::pair<uint32_t, uint32_t>>().swap(pairs);
  }

  SnapHeader hdr{};
  std::memcpy(hdr.magic, kSnapMagic, 8);
  hdr.version = kSnapVersion;
  hdr.page_size = static_cast<uint32_t>(page);
  hdr.file_size = extents_off + extent_pos;
  hdr.num_sections = kSnapNumSections;
  // Rowdir + extents carry checksum 0: their integrity is per slice
  // (dir_checksum / extent_checksum in the locators), verified at every
  // materialization.
  const SnapSectionEntry sections[kSnapNumSections] = {
      {kSnapSectionDict, 0, dict_off, dict.size(),
       Checksum64(dict.data(), dict.size())},
      {kSnapSectionRowDir, 0, rowdir_off, dir_pos, 0},
      {kSnapSectionMeta, 0, meta_off, meta.size(),
       Checksum64(meta.data(), meta.size())},
      {kSnapSectionExtents, 0, extents_off, extent_pos, 0},
  };
  // The header block is the header, the section table and the checksum of
  // those two, laid out contiguously exactly as the reader sees them.
  uint8_t head[kSnapHeaderBytes];
  std::memcpy(head, &hdr, sizeof(hdr));
  std::memcpy(head + sizeof(hdr), sections, sizeof(sections));
  const uint64_t head_checksum = Checksum64(head, kSnapHeaderBytes - 8);
  std::memcpy(head + kSnapHeaderBytes - 8, &head_checksum, 8);
  WriteAt(guard.fd, 0, head, sizeof(head));
  WriteAt(guard.fd, dict_off, dict.data(), dict.size());
  WriteAt(guard.fd, meta_off, meta.data(), meta.size());
  // Sets the exact size: the gaps the writes skipped read as zeros.
  if (::ftruncate(guard.fd, static_cast<off_t>(hdr.file_size)) != 0) {
    ThrowImageIo("cannot size");
  }

  std::shared_ptr<MappedFile> file;
  const int fd = guard.fd;
  guard.fd = -1;  // Adopt owns it from here, on failure too
  try {
    file = MappedFile::Adopt(fd, "memfd:lbr-index");
  } catch (const std::runtime_error& e) {
    throw SnapshotError(SnapshotErrorCode::kIo, e.what());
  }
  return Open(std::move(file), /*paranoid=*/false);
}

TripleIndex TripleIndex::Open(std::shared_ptr<MappedFile> file,
                              bool paranoid) {
  const std::string& path = file->path();
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

  SnapSectionEntry spans[kSnapNumSections + 1] = {};  // by SnapSectionKind
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
    spans[e.kind] = e;
  }
  // Eager integrity: the meta section is decoded now, so its checksum is
  // verified now. Rowdir/extents verify per slice at materialization, the
  // dict section in ImageDictionary.
  const SnapSectionEntry& meta = spans[kSnapSectionMeta];
  if (Checksum64(base + meta.offset, meta.size) != meta.checksum) {
    throw SnapshotError(SnapshotErrorCode::kChecksum,
                        "section " + std::to_string(kSnapSectionMeta) +
                            " of " + path);
  }

  const SnapSectionEntry& rowdir = spans[kSnapSectionRowDir];
  const SnapSectionEntry& extents = spans[kSnapSectionExtents];
  MetaReader mr(base + meta.offset, meta.size);

  TripleIndex index;
  index.num_subjects_ = mr.Read<uint32_t>();
  index.num_predicates_ = mr.Read<uint32_t>();
  index.num_objects_ = mr.Read<uint32_t>();
  index.num_common_ = mr.Read<uint32_t>();
  index.num_triples_ = mr.Read<uint64_t>();
  const uint32_t np = index.num_predicates_;
  index.pred_counts_.resize(np);
  for (uint32_t p = 0; p < np; ++p) {
    index.pred_counts_[p] = mr.Read<uint64_t>();
  }
  // The per-predicate non-empty-row bitvectors (subjects, then objects)
  // only size the rowdir at write time; nothing reads them, so skip them.
  for (uint32_t i = 0; i < 2 * np; ++i) {
    uint64_t nwords = mr.Read<uint64_t>();
    if (nwords > meta.size / 8) {
      throw SnapshotError(SnapshotErrorCode::kCorrupt,
                          "bitvector length overrun in " + path);
    }
    mr.ReadRaw(nwords * 8);
  }

  const size_t num_slots = 2 * static_cast<size_t>(np);
  auto backing = std::make_unique<Backing>();
  backing->loc.resize(num_slots);
  for (SliceLoc& loc : backing->loc) {
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
  backing->file = std::move(file);
  backing->dict = spans[kSnapSectionDict];
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
  const char* env = std::getenv("LBR_SNAPSHOT_PARANOID");
  backing->paranoid = paranoid || (env != nullptr && *env != '\0' &&
                                   std::strcmp(env, "0") != 0);
  index.slices_.assign(num_slots, nullptr);
  index.backing_ = std::move(backing);
  return index;
}

Dictionary TripleIndex::ImageDictionary() const {
  const Backing& b = *backing_;
  std::shared_ptr<const void> owner = b.file;
  const uint8_t* data = b.file->data() + b.dict.offset;
  if (b.paranoid) {
    auto copy = std::make_shared<std::vector<uint8_t>>(b.dict.size);
    b.file->ReadAt(b.dict.offset, b.dict.size, copy->data());
    data = copy->data();
    owner = std::move(copy);
  }
  if (Checksum64(data, b.dict.size) != b.dict.checksum) {
    throw SnapshotError(SnapshotErrorCode::kChecksum,
                        "dict section of " + b.file->path());
  }
  Dictionary dict(std::move(owner), data, b.dict.size);
  // Clean checksums are not enough: both sections must describe one graph,
  // or the first query would decode ids out of bounds.
  if (dict.num_subjects() != num_subjects_ ||
      dict.num_predicates() != num_predicates_ ||
      dict.num_objects() != num_objects_ ||
      dict.num_common() != num_common_) {
    throw SnapshotError(SnapshotErrorCode::kCorrupt,
                        "dict and meta sections disagree on the index "
                        "dimensions in " + b.file->path());
  }
  return dict;
}

}  // namespace lbr
