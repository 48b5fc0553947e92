// SegmentFile: the on-disk home of a table's spilled column blocks.
//
// One file per spilled table. Blocks are appended during Table::SpillToDisk
// (single writer) and read back concurrently via pread (no shared file
// offset, so concurrent queries never race on a seek). The format is
// versioned and checksummed; docs/adr/0002-segment-format.md is the
// authoritative layout description.
//
// Lifetime: spilled Columns hold shared_ptr<SegmentFile>, so column and
// table copies stay valid for as long as any column needs the file. The
// file is unlinked in the destructor by default — segment files are
// caches of data the engine can regenerate, not durable storage.

#ifndef PB_STORAGE_SEGMENT_FILE_H_
#define PB_STORAGE_SEGMENT_FILE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/annotations.h"
#include "common/status.h"
#include "storage/block.h"

namespace pb::storage {

/// Where a block lives inside its segment file. The locator plus the file
/// id is the block cache key; `length` covers the whole record (header +
/// payload + checksum), letting the reader validate before parsing.
struct BlockLocator {
  uint64_t offset = 0;
  uint64_t length = 0;
};

class SegmentFile {
 public:
  /// Creates (truncating) the segment file at `path` and writes the file
  /// header. When `unlink_on_close` (the default), the destructor removes
  /// the file: segments are spill space, not durable data.
  static Result<std::shared_ptr<SegmentFile>> Create(
      const std::string& path, bool unlink_on_close = true);

  /// Opens an existing segment file read-only, validating the 16-byte file
  /// header (magic, version). Blocks are then readable through ReadBlock
  /// with locators from an external index. The opener does not own the
  /// file: it is never unlinked on close, and WriteBlock fails. This is
  /// the entry point the corrupt-input fuzzer drives (fuzz/fuzz_segment.cc).
  static Result<std::shared_ptr<SegmentFile>> OpenForRead(
      const std::string& path);

  ~SegmentFile();

  SegmentFile(const SegmentFile&) = delete;
  SegmentFile& operator=(const SegmentFile&) = delete;

  /// Appends one block record; thread-safe (serialized internally).
  Result<BlockLocator> WriteBlock(const NumericBlock& block);

  /// Reads a block record back via pread. Safe to call from any number of
  /// threads concurrently. Verifies magic, bounds, and the checksum.
  Result<NumericBlock> ReadBlock(const BlockLocator& loc) const;

  const std::string& path() const { return path_; }
  /// Process-unique id, used in block-cache keys.
  uint64_t id() const { return id_; }

 private:
  SegmentFile(std::string path, int fd, bool unlink_on_close);

  std::string path_;
  int fd_ = -1;
  bool unlink_on_close_ = true;
  uint64_t id_ = 0;
  Mutex write_mu_;
  uint64_t next_offset_ PB_GUARDED_BY(write_mu_) = 0;
};

}  // namespace pb::storage

#endif  // PB_STORAGE_SEGMENT_FILE_H_
