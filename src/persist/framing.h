// CRC32-framed append-only record files — the durability substrate shared by
// the controller op journal (persist/op_log.h) and state snapshots
// (persist/state_image.h).
//
// File layout:  [8-byte magic][record]*
// Record:       [u32 payload_len][u8 type][u32 crc32(type ++ payload)][payload]
// all integers little-endian. The CRC covers the type byte and the payload,
// so a bit flip anywhere in a record (or a short write of its tail) is
// detected. Reads are TORN-TAIL TOLERANT: a final record that is incomplete
// or fails its CRC — the normal aftermath of `kill -9` mid-append — is
// treated as "the write never happened": reading stops at the last intact
// record and reports the valid byte count so the opener can truncate and
// keep appending. A bad frame is never skipped-and-resumed: everything after
// the first damage is suspect, exactly like a write-ahead log.
//
// Durability knob (FsyncPolicy): kEveryRecord gives write-ahead semantics (an
// acknowledged op survives kill -9); kNone leaves flushing to the kernel —
// crash recovery then restores a correct but possibly older state. Either
// way the CRC framing guarantees recovery never *misreads* state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace duet::persist {

// Software CRC32 (IEEE 802.3 polynomial, reflected). crc32("123456789") is
// the standard check value 0xCBF43926.
std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed = 0) noexcept;

enum class FsyncPolicy : std::uint8_t {
  kNone = 0,         // no explicit flush; kernel writeback decides durability
  kEveryRecord = 1,  // fsync after every append — WAL semantics
};

// Parses "none" | "every" (duetd --fsync). Returns false on unknown names.
bool parse_fsync_policy(const char* name, FsyncPolicy* out) noexcept;
const char* to_string(FsyncPolicy policy) noexcept;

// --- little-endian byte codec -------------------------------------------------
// Used by every persist serializer (ops, state images, journal events, the
// ops-socket protocol); doubles travel as their IEEE-754 bit patterns so
// round trips are bit-exact.

class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  // Length-prefixed (u32) byte string.
  void str(std::string_view v);

  const std::vector<std::uint8_t>& bytes() const noexcept { return bytes_; }
  std::vector<std::uint8_t> take() && { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

// Bounds-checked reader over a byte span. Every accessor returns nullopt
// once the input is exhausted or a length prefix overruns the buffer; `ok()`
// stays false from the first failure on, so decoders can check once at the
// end instead of after every field.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) noexcept : bytes_(bytes) {}

  std::optional<std::uint8_t> u8() noexcept;
  std::optional<std::uint16_t> u16() noexcept;
  std::optional<std::uint32_t> u32() noexcept;
  std::optional<std::uint64_t> u64() noexcept;
  std::optional<double> f64() noexcept;
  std::optional<std::string> str();

  bool ok() const noexcept { return ok_; }
  bool done() const noexcept { return ok_ && pos_ == bytes_.size(); }
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

 private:
  const std::uint8_t* take(std::size_t n) noexcept;

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- framed files -------------------------------------------------------------

inline constexpr std::size_t kMagicBytes = 8;
inline constexpr std::size_t kFrameHeaderBytes = 4 + 1 + 4;  // len + type + crc
// Frames above this are rejected on read as corruption (a genuine record
// this large would be a bug; a random flipped length byte must not trigger
// a multi-gigabyte allocation).
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

struct Frame {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;
};

// Appends CRC-framed records to a file, creating it (with the given magic)
// when absent. Move-only around a POSIX fd so fsync() is a real barrier.
class FrameWriter {
 public:
  FrameWriter() = default;
  ~FrameWriter();
  FrameWriter(FrameWriter&& other) noexcept;
  FrameWriter& operator=(FrameWriter&& other) noexcept;
  FrameWriter(const FrameWriter&) = delete;
  FrameWriter& operator=(const FrameWriter&) = delete;

  // Opens for appending at `offset` (records past it are dropped first —
  // the torn-tail repair path), or at end when offset is nullopt. A missing
  // or empty file is created and stamped with `magic` (exactly kMagicBytes).
  static std::optional<FrameWriter> open(const std::string& path, std::string_view magic,
                                         FsyncPolicy policy,
                                         std::optional<std::uint64_t> truncate_to = std::nullopt);

  bool valid() const noexcept { return fd_ >= 0 && !poisoned_; }
  // Appends one record; with kEveryRecord the record is fsync'd before
  // returning. On a failed write the torn tail is rolled back (ftruncate to
  // the last good record) so the file never holds garbage between records;
  // if the rollback — or a record's fsync — fails, the writer is poisoned
  // and every later append returns false until the log is reopened.
  bool append(std::uint8_t type, std::span<const std::uint8_t> payload);
  // True once an append failure left the file in an unknown state (rollback
  // or fsync failed). Poison clears only by reopening the log.
  bool poisoned() const noexcept { return poisoned_; }
  // Explicit barrier (used by kNone writers at snapshot points).
  bool sync();
  void close();

  std::uint64_t bytes_written() const noexcept { return size_; }

 private:
  int fd_ = -1;
  FsyncPolicy policy_ = FsyncPolicy::kNone;
  std::uint64_t size_ = 0;
  bool poisoned_ = false;
};

struct ReadFramesResult {
  std::vector<Frame> frames;
  // Byte offset just past the last intact record (= the truncate point for
  // repair-on-open).
  std::uint64_t valid_bytes = 0;
  // A torn/corrupt tail was dropped (frames up to it are still returned).
  bool truncated_tail = false;
  // Hard failure: missing file, wrong magic, unreadable. frames is empty.
  std::string error;

  bool ok() const noexcept { return error.empty(); }
};

// Reads every intact record. Wrong magic or an unreadable file is an error;
// a damaged tail is not (see file comment). A file shorter than the magic —
// including 0 bytes, the kill -9 window before FrameWriter stamps it — is an
// empty log, not corruption.
ReadFramesResult read_frames(const std::string& path, std::string_view magic);

// fsync the directory containing `path` so a just-renamed file's directory
// entry is durable too. Best-effort (returns false on failure).
bool sync_parent_dir(const std::string& path);

// Atomic replace: writes `bytes` to `path + ".tmp"`, fsyncs, renames over
// `path`, fsyncs the directory. The destination is either the old file or
// the complete new one — never a mix.
bool atomic_write_file(const std::string& path, std::string_view magic,
                       std::span<const std::uint8_t> bytes, std::uint8_t type);

}  // namespace duet::persist
