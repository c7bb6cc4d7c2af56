// hi-opt: the crash-safe append-only record log under hi::store.
//
// On-disk layout (little-endian):
//
//   file   : magic "HISTOREL" (8 bytes) | u32 format version
//   frame  : u32 payload_len | u32 payload_crc32 | u32 header_crc32
//            | payload bytes
//
// header_crc32 covers the first 8 header bytes, so a flipped bit in the
// length field is detected *before* the length is trusted — the one
// corruption that could desynchronize length-prefixed framing.
//
// Recovery (performed by open(), write mode only; read-only opens report
// but never mutate):
//
//   torn tail     fewer bytes than a frame header, or a payload shorter
//                 than its length field, at end of file — the classic
//                 kill -9 / power-cut artifact.  The partial frame is
//                 truncated away so the log ends on a clean boundary;
//                 counted once per open in `store.recovered`.
//   corrupt       payload CRC mismatch with an intact header: the frame
//   payload       is skipped (framing is still trustworthy) and counted
//                 in `store.corrupt_dropped`; later records survive.
//   corrupt       header CRC mismatch, or an insane length: the frame
//   header        boundary itself is gone, so everything from this
//                 offset on is dropped (longest valid prefix), counted
//                 once in `store.corrupt_dropped`, and truncated so
//                 appends restart on a clean boundary.
//   bad file      wrong magic or format version on a non-empty file:
//   header        open() refuses (HI_REQUIRE) — silently clearing a
//                 foreign or future-format file would destroy data.
//
// Appends are a single write(2) per frame and are mutex-serialized, so
// concurrent writers (parallel campaign cells) interleave whole frames.
// Durability: after append() returns, the frame is in the page cache —
// it survives the *process* dying (SIGKILL included); surviving a
// *machine* crash additionally needs sync(), which the store invokes
// according to its FsyncPolicy.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace hi::store {

/// When the log fsyncs; see the file comment for what each level
/// guarantees.  kCheckpoint syncs on append_checkpoint() only — the
/// store routes campaign-cell completion records through it.
enum class FsyncPolicy {
  kNone,        ///< never fsync (page cache only; fastest)
  kCheckpoint,  ///< fsync on checkpoint records (the default)
  kAlways,      ///< fsync every append
};

[[nodiscard]] const char* to_string(FsyncPolicy p);

/// How a log is opened.  Read-only opens scan and report damage but
/// never mutate the file (no creation, no recovery truncation).
enum class OpenMode {
  kReadWrite,  ///< create if absent; truncate away recovered damage
  kReadOnly,   ///< the file must exist (empty = no records);
               ///< classification only
};

[[nodiscard]] const char* to_string(OpenMode m);

/// Everything an open needs besides the path and the record callback.
/// A named-options struct instead of positional bools, so call sites
/// read as `{.mode = OpenMode::kReadOnly}` rather than `(…, true, …)`.
struct RecordLogOptions {
  OpenMode mode = OpenMode::kReadWrite;
  /// Durability policy the log itself enforces: kAlways syncs inside
  /// every append(); kCheckpoint syncs inside append_checkpoint();
  /// kNone never syncs (callers may still sync() explicitly).
  FsyncPolicy fsync = FsyncPolicy::kCheckpoint;
  /// Nullable; receives the `store.recovered` / `store.corrupt_dropped`
  /// recovery counters.
  obs::MetricsRegistry* metrics = nullptr;
};

/// What open() found and fixed; see the file comment.
struct RecoveryStats {
  std::uint64_t records = 0;          ///< valid records delivered
  std::uint64_t corrupt_dropped = 0;  ///< frames dropped for corruption
  bool tail_truncated = false;        ///< a torn trailing frame was cut
  bool desynced = false;              ///< framing lost mid-file; tail cut
  std::uint64_t truncated_bytes = 0;  ///< bytes removed (or, read-only,
                                      ///< that would be removed)
  [[nodiscard]] bool clean() const {
    return corrupt_dropped == 0 && !tail_truncated && !desynced;
  }
};

/// See file comment.
class RecordLog {
 public:
  using RecordFn =
      std::function<void(std::uint64_t offset, std::string_view payload)>;

  /// Opens (creating if absent in kReadWrite mode) and scans the whole
  /// log, invoking `on_record` for every valid payload in file order.
  /// Recovery truncation happens here, in kReadWrite mode only.
  RecordLog(const std::string& path, const RecordFn& on_record,
            const RecordLogOptions& options = {});
  ~RecordLog();

  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Appends one framed record; returns its file offset.  Thread-safe.
  /// Under FsyncPolicy::kAlways the frame is fsynced before returning.
  std::uint64_t append(std::string_view payload);

  /// Appends a record that marks prior appends as durable: under
  /// kCheckpoint and kAlways, the frame — and every frame appended
  /// before it — is fsynced before returning, so a checkpoint can never
  /// outlive on disk the records it summarizes.  kNone skips the sync.
  std::uint64_t append_checkpoint(std::string_view payload);

  /// fsync(2); blocks until every appended frame is on stable storage.
  void sync();

  [[nodiscard]] const RecoveryStats& recovery() const { return recovery_; }
  [[nodiscard]] bool read_only() const {
    return options_.mode == OpenMode::kReadOnly;
  }
  [[nodiscard]] FsyncPolicy fsync_policy() const { return options_.fsync; }
  [[nodiscard]] const std::string& path() const { return path_; }
  /// Current end-of-log offset (== file size after recovery).
  [[nodiscard]] std::uint64_t size_bytes() const;

  /// Largest payload a frame may carry; longer appends are a caller bug
  /// (HI_REQUIRE) and longer lengths on disk are treated as corruption.
  static constexpr std::uint32_t kMaxPayloadBytes = 1u << 24;

 private:
  std::string path_;
  RecordLogOptions options_;
  int fd_ = -1;
  std::uint64_t end_ = 0;  ///< append offset, guarded by mu_
  RecoveryStats recovery_;
  mutable std::mutex mu_;
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `data` — the checksum
/// the frame header carries.  Exposed for tests and the corruption
/// fuzzer, which forge frames byte by byte.
[[nodiscard]] std::uint32_t crc32(std::string_view data);

}  // namespace hi::store
