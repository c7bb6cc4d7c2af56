#include "store/record_log.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstring>
#include <vector>

#include "common/assert.hpp"
#include "store/serialize.hpp"

namespace hi::store {

namespace {

constexpr char kMagic[8] = {'H', 'I', 'S', 'T', 'O', 'R', 'E', 'L'};
constexpr std::size_t kFileHeaderBytes = 12;  // magic + u32 version
constexpr std::size_t kFrameHeaderBytes = 12; // len + payload crc + header crc

std::uint32_t load_u32(const char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);  // little-endian host (asserted below)
  return v;
}

void store_u32(char* p, std::uint32_t v) { std::memcpy(p, &v, sizeof v); }

static_assert(std::endian::native == std::endian::little,
              "record log assumes a little-endian host");

/// Reads the whole file into one buffer sized by fstat(2).  The buffer
/// has one byte of slack, so the read that finds EOF needs no second
/// buffer; a file that grew since the fstat (a writer appending while a
/// read-only scan runs) is read to its new end.  Short reads happen only
/// at EOF.
std::vector<char> read_all(int fd) {
  struct stat st {};
  HI_REQUIRE(::fstat(fd, &st) == 0,
             "record log stat failed: " << std::strerror(errno));
  std::vector<char> buf(static_cast<std::size_t>(st.st_size) + 1);
  std::size_t have = 0;
  while (true) {
    if (have == buf.size()) {
      buf.resize(2 * buf.size());  // the file grew while we read it
    }
    const ssize_t n = ::read(fd, buf.data() + have, buf.size() - have);
    HI_REQUIRE(n >= 0, "record log read failed: " << std::strerror(errno));
    if (n == 0) break;
    have += static_cast<std::size_t>(n);
  }
  buf.resize(have);
  return buf;
}

/// Slicing-by-8 tables for the IEEE CRC-32 (reflected polynomial
/// 0xEDB88320): kCrcTables[0] is the classic bytewise table, and
/// kCrcTables[k][b] advances byte b's contribution past k more zero
/// bytes, so one step folds eight input bytes with eight lookups.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

}  // namespace

std::uint32_t crc32(std::string_view data) {
  const CrcTables& t = kCrcTables;
  const char* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = 0xFFFFFFFFu;
  // Two little-endian words per step; the first absorbs the running CRC.
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_u32(p) ^ c;
    const std::uint32_t hi = load_u32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {  // the last n < 8 bytes
    c = t[0][(c ^ static_cast<std::uint8_t>(*p)) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

const char* to_string(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kNone: return "none";
    case FsyncPolicy::kCheckpoint: return "checkpoint";
    case FsyncPolicy::kAlways: return "always";
  }
  return "?";
}

const char* to_string(OpenMode m) {
  switch (m) {
    case OpenMode::kReadWrite: return "read-write";
    case OpenMode::kReadOnly: return "read-only";
  }
  return "?";
}

RecordLog::RecordLog(const std::string& path, const RecordFn& on_record,
                     const RecordLogOptions& options)
    : path_(path), options_(options) {
  const bool read_only = options_.mode == OpenMode::kReadOnly;
  obs::MetricsRegistry* metrics = options_.metrics;
  const int flags = read_only ? O_RDONLY : O_RDWR | O_CREAT;
  fd_ = ::open(path.c_str(), flags, 0644);
  HI_REQUIRE(fd_ >= 0, "cannot open store log '" << path
                           << "': " << std::strerror(errno));
  const std::vector<char> data = read_all(fd_);

  // File header: an empty file gets one written (write mode); anything
  // non-empty must carry the exact magic + version — refusing to touch a
  // foreign file beats silently clearing it.
  if (data.empty()) {
    if (read_only) {
      // A writer created the file and has not written its header yet
      // (or was killed in between): an empty log with nothing to scan.
      end_ = 0;
      return;
    }
    char header[kFileHeaderBytes];
    std::memcpy(header, kMagic, sizeof kMagic);
    store_u32(header + sizeof kMagic, kFormatVersion);
    HI_REQUIRE(::write(fd_, header, sizeof header) ==
                   static_cast<ssize_t>(sizeof header),
               "store log header write failed: " << std::strerror(errno));
    end_ = kFileHeaderBytes;
    return;
  }
  HI_REQUIRE(data.size() >= kFileHeaderBytes &&
                 std::memcmp(data.data(), kMagic, sizeof kMagic) == 0,
             "'" << path << "' is not a hi::store record log");
  const std::uint32_t version = load_u32(data.data() + sizeof kMagic);
  HI_REQUIRE(version == kFormatVersion,
             "store log '" << path << "' has format version " << version
                           << "; this build reads version " << kFormatVersion);

  // Frame scan; see record_log.hpp for the recovery taxonomy.
  std::size_t pos = kFileHeaderBytes;
  std::size_t keep = pos;  // first byte past the last intact frame
  while (pos < data.size()) {
    const std::size_t rem = data.size() - pos;
    if (rem < kFrameHeaderBytes) {
      recovery_.tail_truncated = true;  // torn header
      break;
    }
    const std::uint32_t header_crc = load_u32(data.data() + pos + 8);
    if (crc32({data.data() + pos, 8}) != header_crc) {
      recovery_.corrupt_dropped += 1;  // framing lost: drop the rest
      recovery_.desynced = true;
      break;
    }
    const std::uint32_t len = load_u32(data.data() + pos);
    if (len > kMaxPayloadBytes) {
      recovery_.corrupt_dropped += 1;
      recovery_.desynced = true;
      break;
    }
    if (kFrameHeaderBytes + len > rem) {
      recovery_.tail_truncated = true;  // torn payload
      break;
    }
    const std::string_view payload(data.data() + pos + kFrameHeaderBytes, len);
    const std::uint32_t payload_crc = load_u32(data.data() + pos + 4);
    if (crc32(payload) != payload_crc) {
      recovery_.corrupt_dropped += 1;  // header intact: skip just this frame
    } else {
      if (on_record) {
        on_record(static_cast<std::uint64_t>(pos), payload);
      }
      recovery_.records += 1;
    }
    pos += kFrameHeaderBytes + len;
    keep = pos;
  }
  recovery_.truncated_bytes = data.size() - keep;
  end_ = keep;
  if (!read_only && recovery_.truncated_bytes > 0) {
    HI_REQUIRE(::ftruncate(fd_, static_cast<off_t>(keep)) == 0,
               "store log recovery truncate failed: "
                   << std::strerror(errno));
  }
  if (metrics != nullptr) {
    if (recovery_.tail_truncated || recovery_.desynced) {
      metrics->counter("store.recovered").add(1);
    }
    metrics->counter("store.corrupt_dropped").add(recovery_.corrupt_dropped);
  }
}

RecordLog::~RecordLog() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

std::uint64_t RecordLog::append(std::string_view payload) {
  HI_REQUIRE(!read_only(), "append() on a read-only store log");
  HI_REQUIRE(payload.size() <= kMaxPayloadBytes,
             "store record of " << payload.size() << " bytes exceeds the "
                                << kMaxPayloadBytes << "-byte frame limit");
  std::string frame(kFrameHeaderBytes, '\0');
  store_u32(frame.data(), static_cast<std::uint32_t>(payload.size()));
  store_u32(frame.data() + 4, crc32(payload));
  store_u32(frame.data() + 8, crc32({frame.data(), 8}));
  frame.append(payload);

  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t offset = end_;
  // One positioned write per frame: concurrent appenders interleave
  // whole frames, and a crash leaves at most one torn frame at the tail.
  std::size_t written = 0;
  while (written < frame.size()) {
    const ssize_t n =
        ::pwrite(fd_, frame.data() + written, frame.size() - written,
                 static_cast<off_t>(end_ + written));
    HI_REQUIRE(n > 0, "store log append failed: " << std::strerror(errno));
    written += static_cast<std::size_t>(n);
  }
  end_ += frame.size();
  if (options_.fsync == FsyncPolicy::kAlways) {
    HI_REQUIRE(::fsync(fd_) == 0,
               "store log fsync failed: " << std::strerror(errno));
  }
  return offset;
}

std::uint64_t RecordLog::append_checkpoint(std::string_view payload) {
  const std::uint64_t offset = append(payload);
  // kAlways already synced inside append(); kNone opts out entirely.
  if (options_.fsync == FsyncPolicy::kCheckpoint) {
    sync();
  }
  return offset;
}

void RecordLog::sync() {
  HI_REQUIRE(::fsync(fd_) == 0,
             "store log fsync failed: " << std::strerror(errno));
}

std::uint64_t RecordLog::size_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return end_;
}

}  // namespace hi::store
