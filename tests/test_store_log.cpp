// hi::store::RecordLog: framing, torn-write recovery at every byte
// boundary, the bit-flip corruption matrix, fsync policies, and the
// store-level compaction / audit passes built on top.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/store_props.hpp"
#include "common/assert.hpp"
#include "obs/metrics.hpp"
#include "store/record_log.hpp"
#include "store/store.hpp"

namespace {

using namespace hi;
using store::OpenMode;
using store::RecordLog;
using store::RecordLogOptions;
using store::RecoveryStats;

constexpr std::size_t kFileHeader = 12;  // magic(8) + format version(4)
constexpr std::size_t kFrameHeader = 12;  // len + payload crc + header crc

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

void write_file(const std::string& path, std::string_view data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

std::string temp_path(const char* tag) {
  return testing::TempDir() + "/store_log_test_" + tag + ".log";
}

/// Opens `path` in write mode collecting payloads; returns (payloads,
/// stats, metrics registry the counters landed in).
struct OpenResult {
  std::vector<std::string> payloads;
  RecoveryStats stats;
  std::uint64_t recovered_counter = 0;
  std::uint64_t dropped_counter = 0;
};

OpenResult open_and_scan(const std::string& path, bool read_only = false) {
  OpenResult out;
  obs::MetricsRegistry metrics;
  {
    RecordLogOptions opt;
    opt.mode = read_only ? OpenMode::kReadOnly : OpenMode::kReadWrite;
    opt.metrics = &metrics;
    RecordLog log(
        path,
        [&](std::uint64_t, std::string_view payload) {
          out.payloads.emplace_back(payload);
        },
        opt);
    out.stats = log.recovery();
  }
  const obs::Snapshot snap = metrics.snapshot();
  out.recovered_counter = snap.counter("store.recovered");
  out.dropped_counter = snap.counter("store.corrupt_dropped");
  return out;
}

TEST(RecordLog, Crc32KnownVector) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(store::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(store::crc32(""), 0u);
}

// The word-wide CRC against a bit-at-a-time oracle at every length and
// start alignment (hi::check::check_crc32).
TEST(RecordLog, Crc32MatchesBitwiseOracle) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const std::vector<std::string> violations = check::check_crc32(seed);
    EXPECT_TRUE(violations.empty())
        << "seed " << seed << ": " << violations.front();
  }
}

TEST(RecordLog, AppendAndReopenRoundTrip) {
  const std::string path = temp_path("roundtrip");
  std::remove(path.c_str());
  {
    RecordLog log(path, nullptr);
    EXPECT_EQ(log.append("alpha"), kFileHeader);
    log.append(std::string(1000, 'x'));
    log.append("");  // empty payloads are legal frames
    log.sync();
  }
  const OpenResult r = open_and_scan(path);
  ASSERT_EQ(r.payloads.size(), 3u);
  EXPECT_EQ(r.payloads[0], "alpha");
  EXPECT_EQ(r.payloads[1], std::string(1000, 'x'));
  EXPECT_EQ(r.payloads[2], "");
  EXPECT_TRUE(r.stats.clean());
  EXPECT_EQ(r.recovered_counter, 0u);
  std::remove(path.c_str());
}

TEST(RecordLog, RejectsOversizedAppendAndForeignFiles) {
  const std::string path = temp_path("reject");
  std::remove(path.c_str());
  RecordLog log(path, nullptr);
  EXPECT_THROW(log.append(std::string(RecordLog::kMaxPayloadBytes + 1, 'y')),
               hi::Error);

  const std::string foreign = temp_path("foreign");
  write_file(foreign, "this is not a record log, do not clear it");
  EXPECT_THROW(RecordLog(foreign, nullptr), hi::Error);
  std::remove(foreign.c_str());
  std::remove(path.c_str());
}

// A read-only open can race a writer that has created its file but not
// yet written the header (test_store_campaign polling the store a
// campaign has just created): the empty file is an empty, clean log.
TEST(RecordLog, ReadOnlyOpenOfAnEmptyFileIsAnEmptyLog) {
  const std::string path = temp_path("empty");
  write_file(path, "");
  const OpenResult r = open_and_scan(path, /*read_only=*/true);
  EXPECT_TRUE(r.payloads.empty());
  EXPECT_TRUE(r.stats.clean());
  EXPECT_TRUE(store::EvalStore::audit(path).clean());
  EXPECT_EQ(RecordLog(path, nullptr, {.mode = OpenMode::kReadOnly})
                .size_bytes(),
            0u);
  std::remove(path.c_str());
}

// The classic kill -9 artifact: the log is cut at *every* byte boundary
// of its last record.  Recovery must truncate exactly the partial frame,
// keep every whole one, and leave a file that then audits clean.
TEST(RecordLog, TornWriteTruncationAtEveryByteBoundary) {
  const std::string path = temp_path("torn_base");
  std::remove(path.c_str());
  std::uint64_t last_start = 0;
  {
    RecordLog log(path, nullptr);
    log.append("first-record");
    log.append("second-record");
    last_start = log.append("the-final-record-that-gets-torn");
  }
  const std::string base = read_file(path);
  const std::string torn = temp_path("torn");
  for (std::size_t cut = last_start; cut < base.size(); ++cut) {
    write_file(torn, std::string_view(base).substr(0, cut));
    const OpenResult r = open_and_scan(torn);
    ASSERT_EQ(r.payloads.size(), 2u) << "cut at byte " << cut;
    EXPECT_EQ(r.payloads[1], "second-record");
    if (cut == last_start) {
      // The cut fell exactly on a frame boundary — nothing was torn.
      EXPECT_TRUE(r.stats.clean()) << "cut at byte " << cut;
    } else {
      EXPECT_TRUE(r.stats.tail_truncated) << "cut at byte " << cut;
      EXPECT_EQ(r.stats.truncated_bytes, cut - last_start);
      EXPECT_EQ(r.recovered_counter, 1u);
      EXPECT_EQ(r.dropped_counter, 0u);
    }
    // Write-mode recovery truncated the file; it must now be clean.
    const OpenResult again = open_and_scan(torn);
    EXPECT_TRUE(again.stats.clean()) << "cut at byte " << cut;
    EXPECT_EQ(again.payloads.size(), 2u);
  }
  std::remove(torn.c_str());
  std::remove(path.c_str());
}

// Every single-bit flip in the middle record's frame, one at a time.
// CRC32 detects all of them; the damage class decides the blast radius:
// payload flips drop one frame, frame-header flips desync and drop the
// tail, and the records before the flip always survive.
TEST(RecordLog, BitFlipMatrixOverMiddleRecord) {
  const std::string path = temp_path("flip_base");
  std::remove(path.c_str());
  std::uint64_t mid_start = 0;
  std::uint64_t last_start = 0;
  {
    RecordLog log(path, nullptr);
    log.append("record-one-stays");
    mid_start = log.append("record-two-gets-poisoned");
    last_start = log.append("record-three-after-the-damage");
  }
  const std::string base = read_file(path);
  const std::string flip = temp_path("flip");
  for (std::size_t byte = mid_start; byte < last_start; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string hurt = base;
      hurt[byte] = static_cast<char>(hurt[byte] ^ (1u << bit));
      write_file(flip, hurt);
      // Read-only first: the scan must classify without mutating.
      const OpenResult ro = open_and_scan(flip, /*read_only=*/true);
      ASSERT_GE(ro.payloads.size(), 1u);
      EXPECT_EQ(ro.payloads[0], "record-one-stays");
      EXPECT_EQ(read_file(flip), hurt) << "read-only open mutated the file";
      const bool header_flip = byte < mid_start + kFrameHeader;
      if (header_flip) {
        // Framing lost: longest valid prefix only.
        EXPECT_EQ(ro.payloads.size(), 1u)
            << "byte " << byte << " bit " << bit;
        EXPECT_TRUE(ro.stats.desynced);
        EXPECT_EQ(ro.dropped_counter, 1u);
      } else {
        // Payload damage: that one frame is dropped, the next survives.
        ASSERT_EQ(ro.payloads.size(), 2u)
            << "byte " << byte << " bit " << bit;
        EXPECT_EQ(ro.payloads[1], "record-three-after-the-damage");
        EXPECT_FALSE(ro.stats.desynced);
        EXPECT_EQ(ro.stats.corrupt_dropped, 1u);
        EXPECT_EQ(ro.dropped_counter, 1u);
      }
      // Write mode applies the repair; a second open is then clean.
      const OpenResult rw = open_and_scan(flip);
      EXPECT_EQ(rw.payloads.size(), ro.payloads.size());
      const OpenResult again = open_and_scan(flip);
      EXPECT_EQ(again.payloads.size() == ro.payloads.size() &&
                    (header_flip ? again.stats.clean()
                                 : again.stats.corrupt_dropped ==
                                       ro.stats.corrupt_dropped),
                true)
          << "byte " << byte << " bit " << bit;
    }
  }
  std::remove(flip.c_str());
  std::remove(path.c_str());
}

TEST(RecordLog, FsyncPolicyToString) {
  EXPECT_STREQ(store::to_string(store::FsyncPolicy::kNone), "none");
  EXPECT_STREQ(store::to_string(store::FsyncPolicy::kCheckpoint),
               "checkpoint");
  EXPECT_STREQ(store::to_string(store::FsyncPolicy::kAlways), "always");
  EXPECT_STREQ(store::to_string(OpenMode::kReadWrite), "read-write");
  EXPECT_STREQ(store::to_string(OpenMode::kReadOnly), "read-only");
}

// The options struct carries the fsync policy, and the log enforces it
// itself: every policy yields the same bytes (durability timing is the
// only difference), checkpoints are appends like any other, and the
// policy/mode accessors echo what the open was given.
TEST(RecordLog, OptionsCarryModeAndFsyncPolicy) {
  const std::string path = temp_path("options");
  for (const store::FsyncPolicy policy :
       {store::FsyncPolicy::kNone, store::FsyncPolicy::kCheckpoint,
        store::FsyncPolicy::kAlways}) {
    std::remove(path.c_str());
    std::uint64_t first = 0;
    {
      RecordLog log(path, nullptr, {.fsync = policy});
      EXPECT_FALSE(log.read_only());
      EXPECT_EQ(log.fsync_policy(), policy);
      first = log.append("plain");
      EXPECT_GT(log.append_checkpoint("checkpointed"), first);
    }
    const OpenResult r = open_and_scan(path, /*read_only=*/true);
    ASSERT_EQ(r.payloads.size(), 2u) << store::to_string(policy);
    EXPECT_EQ(r.payloads[0], "plain");
    EXPECT_EQ(r.payloads[1], "checkpointed");
    EXPECT_TRUE(r.stats.clean());
  }
  {
    RecordLog log(path, nullptr, {.mode = OpenMode::kReadOnly});
    EXPECT_TRUE(log.read_only());
    EXPECT_THROW(log.append("nope"), hi::Error);
  }
  std::remove(path.c_str());
}

// Store-level compaction drops superseded duplicates and skipped-corrupt
// frames; audit() is the read-only integrity probe the campaign's
// kill/resume test leans on.
TEST(EvalStoreCompaction, DropsCorruptionAndSupersededRecords) {
  const std::string path = temp_path("compact");
  std::remove(path.c_str());
  const store::Digest fp{};  // any fixed fingerprint
  model::NetworkConfig cfg_a;
  cfg_a.topology = model::Topology::from_mask(0b11);
  model::NetworkConfig cfg_b;
  cfg_b.topology = model::Topology::from_mask(0b111);
  {
    store::EvalStore st(path, {});
    dse::Evaluation ev;
    ev.pdr = 0.5;
    EXPECT_TRUE(st.put(fp, cfg_a, ev));
    EXPECT_FALSE(st.put(fp, cfg_a, ev));  // idempotent, not re-appended
    EXPECT_TRUE(st.put(fp, cfg_b, ev));
    store::CellKey key{fp, fp, fp, 0.9};
    store::CellResult res;
    st.put_cell(key, res);
    st.put_cell(key, res);  // a resumed cell supersedes its checkpoint
  }
  // Poison the tail so compaction also has damage to shed.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "torn";
  }
  const store::EvalStore::CompactStats stats =
      store::EvalStore::compact(path);
  EXPECT_EQ(stats.records_after, 3u);  // 2 evals + 1 cell
  EXPECT_LT(stats.bytes_after, stats.bytes_before);
  const RecoveryStats audit = store::EvalStore::audit(path);
  EXPECT_TRUE(audit.clean());
  EXPECT_EQ(audit.records, 3u);
  // And the compacted store still serves everything.
  store::EvalStore st(path, {});
  EXPECT_EQ(st.eval_count(), 2u);
  EXPECT_EQ(st.cell_count(), 1u);
  EXPECT_NE(st.find(fp, cfg_a), nullptr);
  EXPECT_NE(st.find(fp, cfg_b), nullptr);
  std::remove(path.c_str());
}

// The store's exact file image for a fixed two-record store (one
// evaluation, one cell checkpoint), pinned by length and SHA-256: any
// change to the frame layout, the CRC, the codecs' byte order or field
// order shows up here, not only in a round trip that both sides agree on.
TEST(EvalStore, FileBytesArePinned) {
  const std::string path = temp_path("pinned");
  std::remove(path.c_str());
  const store::Digest fp = store::sha256("pinned settings");
  model::NetworkConfig cfg;
  cfg.topology = model::Topology::from_mask(0b1011);
  cfg.tx_level_index = 2;
  dse::Evaluation ev;
  ev.pdr = 0.875;
  ev.power_mw = 1.0 / 3.0;
  ev.nlt_s = -1234.5;
  ev.detail.events = 0x0102030405060708ull;
  ev.detail.medium.transmissions = 77;
  ev.detail.nodes.resize(2);
  ev.detail.nodes[0].location = 0;
  ev.detail.nodes[0].pdr = 0.5;
  ev.detail.nodes[1].location = 3;
  ev.detail.nodes[1].mac.backoffs = 0xFFFFFFFFFFull;
  store::CellResult res;
  res.feasible = true;
  res.best = cfg;
  res.best_power_mw = 2.25;
  res.simulations = 1320;
  res.iterations = -7;
  {
    store::EvalStore st(path, {});
    ASSERT_TRUE(st.put(fp, cfg, ev));
    st.put_cell({fp, store::sha256("scenario"), store::sha256("options"), 0.9},
                res);
  }
  const std::string bytes = read_file(path);
  EXPECT_EQ(bytes.size(), 785u);
  EXPECT_EQ(store::sha256(bytes).hex(),
            "acc482b21012cc33ccb0d5d0c20bdc23b11cdf3ef12905a105c382d30dbcb79a");
  std::remove(path.c_str());
}

}  // namespace
