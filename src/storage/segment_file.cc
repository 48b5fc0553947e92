#include "storage/segment_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <vector>

namespace pb::storage {

namespace {

// File header: magic + version. Little-endian throughout (the only
// platform this engine targets; the ADR records the assumption).
constexpr char kFileMagic[8] = {'P', 'B', 'S', 'E', 'G', '0', '0', '1'};
constexpr uint32_t kFormatVersion = 1;
constexpr uint32_t kBlockMagic = 0x424B4C50;  // "PLKB"

/// Fixed-size on-disk block header. Plain scalars only, packed manually
/// into a byte buffer (no struct-layout assumptions cross the file
/// boundary).
constexpr size_t kBlockHeaderBytes = 4 +  // magic
                                     1 +  // type
                                     3 +  // pad
                                     8 +  // count
                                     8 +  // null word count
                                     8 * 5 +  // zone map
                                     8;   // payload bytes
constexpr size_t kChecksumBytes = 8;

uint64_t Fnv1a(const uint8_t* data, size_t n,
               uint64_t seed = 1469598103934665603ull) {
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <typename T>
void PutScalar(std::vector<uint8_t>* buf, T v) {
  const size_t at = buf->size();
  buf->resize(at + sizeof(T));
  std::memcpy(buf->data() + at, &v, sizeof(T));
}

template <typename T>
T GetScalar(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

Status Pwrite(int fd, const uint8_t* data, size_t n, uint64_t offset) {
  size_t done = 0;
  while (done < n) {
    ssize_t w = ::pwrite(fd, data + done, n - done,
                         static_cast<off_t>(offset + done));
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("segment pwrite failed: ") +
                              std::strerror(errno));
    }
    done += static_cast<size_t>(w);
  }
  return Status::OK();
}

Status Pread(int fd, uint8_t* data, size_t n, uint64_t offset) {
  size_t done = 0;
  while (done < n) {
    ssize_t r = ::pread(fd, data + done, n - done,
                        static_cast<off_t>(offset + done));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("segment pread failed: ") +
                              std::strerror(errno));
    }
    if (r == 0) {
      return Status::Internal("segment pread hit EOF mid-record");
    }
    done += static_cast<size_t>(r);
  }
  return Status::OK();
}

std::atomic<uint64_t> g_next_segment_id{1};

}  // namespace

SegmentFile::SegmentFile(std::string path, int fd, bool unlink_on_close)
    : path_(std::move(path)),
      fd_(fd),
      unlink_on_close_(unlink_on_close),
      id_(g_next_segment_id.fetch_add(1, std::memory_order_relaxed)) {}

Result<std::shared_ptr<SegmentFile>> SegmentFile::Create(
    const std::string& path, bool unlink_on_close) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::InvalidArgument("cannot create segment file '" + path +
                                   "': " + std::strerror(errno));
  }
  auto file = std::shared_ptr<SegmentFile>(
      new SegmentFile(path, fd, unlink_on_close));
  std::vector<uint8_t> header(kFileMagic, kFileMagic + sizeof(kFileMagic));
  PutScalar<uint32_t>(&header, kFormatVersion);
  PutScalar<uint32_t>(&header, 0);  // flags, reserved
  PB_RETURN_IF_ERROR(Pwrite(fd, header.data(), header.size(), 0));
  {
    MutexLock lock(&file->write_mu_);
    file->next_offset_ = header.size();
  }
  return file;
}

Result<std::shared_ptr<SegmentFile>> SegmentFile::OpenForRead(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::InvalidArgument("cannot open segment file '" + path +
                                   "': " + std::strerror(errno));
  }
  auto file = std::shared_ptr<SegmentFile>(
      new SegmentFile(path, fd, /*unlink_on_close=*/false));
  uint8_t header[16];
  PB_RETURN_IF_ERROR(Pread(fd, header, sizeof(header), 0));
  if (std::memcmp(header, kFileMagic, sizeof(kFileMagic)) != 0) {
    return Status::ParseError("'" + path + "' is not a segment file "
                              "(bad magic)");
  }
  const uint32_t version = GetScalar<uint32_t>(header + sizeof(kFileMagic));
  if (version != kFormatVersion) {
    return Status::Unimplemented(
        "segment file '" + path + "' has format version " +
        std::to_string(version) + "; this build reads version " +
        std::to_string(kFormatVersion));
  }
  const off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    return Status::Internal(std::string("segment lseek failed: ") +
                            std::strerror(errno));
  }
  MutexLock lock(&file->write_mu_);
  file->next_offset_ = static_cast<uint64_t>(end);
  return file;
}

SegmentFile::~SegmentFile() {
  if (fd_ >= 0) ::close(fd_);
  if (unlink_on_close_) ::unlink(path_.c_str());
}

Result<BlockLocator> SegmentFile::WriteBlock(const NumericBlock& block) {
  std::vector<uint8_t> buf;
  buf.reserve(kBlockHeaderBytes + block.bytes() + kChecksumBytes);
  PutScalar<uint32_t>(&buf, kBlockMagic);
  PutScalar<uint8_t>(&buf, static_cast<uint8_t>(block.type));
  PutScalar<uint8_t>(&buf, 0);
  PutScalar<uint8_t>(&buf, 0);
  PutScalar<uint8_t>(&buf, 0);
  PutScalar<uint64_t>(&buf, block.count);
  PutScalar<uint64_t>(&buf, block.null_words.size());
  PutScalar<double>(&buf, block.zone.min);
  PutScalar<double>(&buf, block.zone.max);
  PutScalar<double>(&buf, block.zone.sum);
  PutScalar<int64_t>(&buf, block.zone.null_count);
  PutScalar<int64_t>(&buf, block.zone.non_null_count);

  const size_t value_bytes = block.count * 8;
  const size_t null_bytes = block.null_words.size() * 8;
  PutScalar<uint64_t>(&buf, value_bytes + null_bytes);
  const size_t payload_at = buf.size();
  buf.resize(payload_at + value_bytes + null_bytes);
  if (block.type == BlockType::kInt64) {
    std::memcpy(buf.data() + payload_at, block.ints.data(), value_bytes);
  } else {
    std::memcpy(buf.data() + payload_at, block.doubles.data(), value_bytes);
  }
  std::memcpy(buf.data() + payload_at + value_bytes, block.null_words.data(),
              null_bytes);
  PutScalar<uint64_t>(&buf, Fnv1a(buf.data() + payload_at,
                                  value_bytes + null_bytes));

  MutexLock lock(&write_mu_);
  BlockLocator loc{next_offset_, buf.size()};
  PB_RETURN_IF_ERROR(Pwrite(fd_, buf.data(), buf.size(), loc.offset));
  next_offset_ += buf.size();
  return loc;
}

Result<NumericBlock> SegmentFile::ReadBlock(const BlockLocator& loc) const {
  if (loc.length < kBlockHeaderBytes + kChecksumBytes) {
    return Status::Internal("segment block locator shorter than a header");
  }
  std::vector<uint8_t> buf(loc.length);
  PB_RETURN_IF_ERROR(Pread(fd_, buf.data(), buf.size(), loc.offset));

  const uint8_t* p = buf.data();
  if (GetScalar<uint32_t>(p) != kBlockMagic) {
    return Status::Internal("segment block magic mismatch (corrupt file or "
                            "stale locator)");
  }
  NumericBlock block;
  const uint8_t type = GetScalar<uint8_t>(p + 4);
  if (type != static_cast<uint8_t>(BlockType::kInt64) &&
      type != static_cast<uint8_t>(BlockType::kFloat64)) {
    return Status::Internal("segment block has unknown payload type");
  }
  block.type = static_cast<BlockType>(type);
  block.count = GetScalar<uint64_t>(p + 8);
  const uint64_t null_word_count = GetScalar<uint64_t>(p + 16);
  block.zone.min = GetScalar<double>(p + 24);
  block.zone.max = GetScalar<double>(p + 32);
  block.zone.sum = GetScalar<double>(p + 40);
  block.zone.null_count = GetScalar<int64_t>(p + 48);
  block.zone.non_null_count = GetScalar<int64_t>(p + 56);
  const uint64_t payload_bytes = GetScalar<uint64_t>(p + 64);

  // All three length fields come off disk, so every comparison must be
  // overflow-proof: derive the expected payload size from loc.length
  // (already known >= header + checksum) and bound each count before the
  // multiplications, or a corrupt count near 2^61 wraps `count * 8` into
  // agreement and the resize below dies instead of returning a Status.
  const uint64_t expected_payload =
      loc.length - kBlockHeaderBytes - kChecksumBytes;
  if (payload_bytes != expected_payload ||
      block.count > expected_payload / 8 ||
      null_word_count > expected_payload / 8 ||
      block.count * 8 + null_word_count * 8 != expected_payload) {
    return Status::Internal("segment block length fields are inconsistent");
  }
  const uint8_t* payload = p + kBlockHeaderBytes;
  const uint64_t stored = GetScalar<uint64_t>(payload + payload_bytes);
  if (Fnv1a(payload, payload_bytes) != stored) {
    return Status::Internal("segment block checksum mismatch");
  }
  const size_t value_bytes = block.count * 8;
  if (block.type == BlockType::kInt64) {
    block.ints.resize(block.count);
    std::memcpy(block.ints.data(), payload, value_bytes);
  } else {
    block.doubles.resize(block.count);
    std::memcpy(block.doubles.data(), payload, value_bytes);
  }
  block.null_words.resize(null_word_count);
  std::memcpy(block.null_words.data(), payload + value_bytes,
              null_word_count * 8);
  return block;
}

}  // namespace pb::storage
