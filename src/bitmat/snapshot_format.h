#ifndef LBR_BITMAT_SNAPSHOT_FORMAT_H_
#define LBR_BITMAT_SNAPSHOT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include "util/checksum.h"

namespace lbr {

/// Structured failure taxonomy for snapshot open/materialize. Every
/// corrupted-input path throws SnapshotError with one of these codes and no
/// partially constructed Database escapes (fail-closed contract of
/// DESIGN.md §11).
enum class SnapshotErrorCode : uint32_t {
  kIo = 0,          ///< open/stat/mmap/write failure (errno detail in what()).
  kBadMagic = 1,    ///< Not a snapshot file.
  kBadVersion = 2,  ///< Snapshot format version unknown to this build.
  kTruncated = 3,   ///< A section or extent extends past the file end.
  kChecksum = 4,    ///< A section/directory/extent checksum mismatched.
  kCorrupt = 5,     ///< Structurally invalid metadata (bad offsets/sizes).
};

const char* SnapshotErrorCodeName(SnapshotErrorCode code);

class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(SnapshotErrorCode code, const std::string& msg)
      : std::runtime_error(std::string("snapshot: ") +
                           SnapshotErrorCodeName(code) + ": " + msg),
        code_(code) {}
  SnapshotErrorCode code() const { return code_; }

 private:
  SnapshotErrorCode code_;
};

/// On-disk snapshot layout (version 3, little-endian, DESIGN.md §11):
///
///   [SnapHeader | SectionEntry x num_sections | u64 header_checksum]
///   dict section     — the bytes a Dictionary views (rdf/dictionary.h),
///                      checked when a database reads them
///   rowdir section   — concatenated RowDirEntry arrays, one array per
///                      (predicate, orientation); each verified at every
///                      materialization of its slice
///   meta section     — index dims + per-predicate counts, non-empty-row
///                      bitvectors and SliceDir records (verified at open)
///   extents section  — page-aligned per-(predicate, orientation) payload
///                      word runs; each verified at every materialization
///
/// Every checksum is Checksum64 (util/checksum.h) with seed 0. The header
/// checksum covers the SnapHeader and the section table as one contiguous
/// byte range. Older versions are rejected as kBadVersion: version 1
/// checksummed with a byte-serial FNV-1a, and version 2 carried a
/// per-predicate statistics section between dict and rowdir.
///
/// Rows are stored as raw payload words in the extents plus a fixed-size
/// directory entry, so a materialized slice is a vector of zero-copy
/// CompressedRow *views* into the mapped extent — both kPositions and kRuns
/// payloads are position-independent 4-byte word arrays, usable in place.
inline constexpr char kSnapMagic[8] = {'L', 'B', 'R', 'S', 'N', 'P', '0', '1'};
inline constexpr uint32_t kSnapVersion = 3;

enum SnapSectionKind : uint32_t {
  kSnapSectionDict = 1,
  kSnapSectionRowDir = 2,
  kSnapSectionMeta = 3,
  kSnapSectionExtents = 4,
};
inline constexpr uint32_t kSnapNumSections = 4;

#pragma pack(push, 1)
struct SnapHeader {
  char magic[8];
  uint32_t version;
  uint32_t page_size;
  uint64_t file_size;
  uint32_t num_sections;
  uint32_t reserved;
};

struct SnapSectionEntry {
  uint32_t kind;
  uint32_t reserved;
  uint64_t offset;  ///< Absolute file offset.
  uint64_t size;    ///< Bytes.
  uint64_t checksum;  ///< Of the section bytes; 0 = verified per slice.
};

/// One non-empty row of a slice: fixed 24 bytes so a directory is readable
/// in place from the map at any index.
struct SnapRowDirEntry {
  uint32_t id;                 ///< Row id (subject or object).
  uint32_t count;              ///< Set bits (CompressedRow::Count()).
  uint64_t payload_off_words;  ///< Offset in words from the extent start.
  uint32_t payload_words;      ///< Payload length in words.
  uint8_t encoding;            ///< CompressedRow::Encoding.
  uint8_t first_bit;           ///< kRuns leading-run value.
  uint16_t reserved;
};

/// Meta-section record locating one (predicate, orientation) slice: its row
/// directory inside the rowdir section and its page-aligned payload extent
/// inside the extents section. Offsets are section-relative so the meta blob
/// can be built before the final file layout is known.
struct SnapSliceLocEntry {
  uint64_t dir_off;       ///< Bytes from the rowdir section start.
  uint32_t dir_rows;      ///< Directory entries (non-empty rows).
  uint32_t reserved;
  uint64_t extent_off;    ///< Bytes from the extents section start.
  uint64_t extent_words;  ///< Extent payload length in 4-byte words.
  uint64_t dir_checksum;     ///< Checksum64 of the directory bytes.
  uint64_t extent_checksum;  ///< Checksum64 of the extent payload bytes.
};
#pragma pack(pop)

static_assert(sizeof(SnapHeader) == 32, "SnapHeader layout");
static_assert(sizeof(SnapSectionEntry) == 32, "SnapSectionEntry layout");
static_assert(sizeof(SnapRowDirEntry) == 24, "SnapRowDirEntry layout");
static_assert(sizeof(SnapSliceLocEntry) == 48, "SnapSliceLocEntry layout");

inline constexpr uint64_t kSnapHeaderBytes =
    sizeof(SnapHeader) + kSnapNumSections * sizeof(SnapSectionEntry) + 8;

/// Reads a packed struct out of a byte buffer without alignment UB.
template <typename T>
inline T ReadPod(const uint8_t* base, uint64_t offset) {
  T out;
  std::memcpy(&out, base + offset, sizeof(T));
  return out;
}

}  // namespace lbr

#endif  // LBR_BITMAT_SNAPSHOT_FORMAT_H_
