#include "util/mapped_file.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/fault_injection.h"

namespace lbr {

namespace {

[[noreturn]] void ThrowErrno(const std::string& what, const std::string& path) {
  throw std::runtime_error("MappedFile: " + what + " " + path + ": " +
                           std::strerror(errno));
}

}  // namespace

std::shared_ptr<MappedFile> MappedFile::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) ThrowErrno("cannot open", path);
  return Adopt(fd, path);
}

std::shared_ptr<MappedFile> MappedFile::Adopt(int fd, const std::string& name) {
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    ThrowErrno("cannot stat", name);
  }
  auto file = std::shared_ptr<MappedFile>(new MappedFile());
  file->path_ = name;
  file->size_ = static_cast<uint64_t>(st.st_size);
  if (file->size_ > 0) {
    void* addr = nullptr;
    if (FaultRegistry::Instance().ShouldInject(FaultSiteId::kMappedFileMap)) {
      errno = EIO;  // simulate mmap failing on unreliable storage
      addr = MAP_FAILED;
    } else {
      addr = ::mmap(nullptr, file->size_, PROT_READ, MAP_PRIVATE, fd, 0);
    }
    if (addr == MAP_FAILED) {
      ::close(fd);
      ThrowErrno("cannot mmap", name);
    }
    file->data_ = static_cast<const uint8_t*>(addr);
  }
  // The descriptor is retained for ReadAt (paranoid pread path); the
  // mapping itself no longer needs it.
  file->fd_ = fd;
  return file;
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
  if (fd_ >= 0) ::close(fd_);
}

void MappedFile::ReadAt(uint64_t offset, uint64_t length, void* dst) const {
  uint8_t* out = static_cast<uint8_t*>(dst);
  while (length > 0) {
    ssize_t n = ::pread(fd_, out, length, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      ThrowErrno("cannot pread", path_);
    }
    if (n == 0) {
      errno = EIO;
      ThrowErrno("short pread past EOF in", path_);
    }
    out += n;
    offset += static_cast<uint64_t>(n);
    length -= static_cast<uint64_t>(n);
  }
}

uint64_t MappedFile::PageSize() {
  long ps = ::sysconf(_SC_PAGESIZE);
  return ps > 0 ? static_cast<uint64_t>(ps) : 4096;
}

void MappedFile::Advise(uint64_t offset, uint64_t length,
                        Advice advice) const {
  if (data_ == nullptr || offset >= size_) return;
  // Degraded mode: an injected advise fault drops the hint — the contract
  // is best-effort, so the system must behave identically without it.
  if (FaultRegistry::Instance().ShouldInject(FaultSiteId::kMappedFileAdvise)) {
    return;
  }
  length = std::min<uint64_t>(length, size_ - offset);
  // Expand outward to page boundaries: madvise requires a page-aligned
  // start, and partial trailing pages are covered by rounding up.
  uint64_t page = PageSize();
  uint64_t begin = offset & ~(page - 1);
  uint64_t end = offset + length;
  int adv = MADV_NORMAL;
  switch (advice) {
    case Advice::kNormal: adv = MADV_NORMAL; break;
    case Advice::kSequential: adv = MADV_SEQUENTIAL; break;
    case Advice::kRandom: adv = MADV_RANDOM; break;
    case Advice::kWillNeed: adv = MADV_WILLNEED; break;
    case Advice::kDontNeed: adv = MADV_DONTNEED; break;
  }
  // Best-effort by contract.
  (void)::madvise(const_cast<uint8_t*>(data_) + begin, end - begin, adv);
}

}  // namespace lbr
