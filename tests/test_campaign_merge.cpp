// EvalStore::merge — folding shard logs into one canonical store — and
// its damage tolerance: a torn tail, a bit-flipped payload, or a
// desynced frame header in ONE shard must cost only the damaged frames
// of that shard; every other record (and every other shard) merges in
// full, and the merged output always audits byte-valid.
//
// Shards are built with real run_single() campaigns (gen scenarios),
// so the merged content is exactly what the fabric produces.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/plan.hpp"
#include "campaign/runner.hpp"
#include "store/store.hpp"

namespace {

using namespace hi;
using campaign::CampaignPlan;
using campaign::PlanSpec;
using store::EvalStore;

/// Runs a tiny single-store campaign into `path`; returns (evals, cells).
std::pair<std::uint64_t, std::uint64_t> build_shard(
    const std::string& path, std::uint64_t gen_seed,
    std::vector<double> pdr_grid) {
  std::remove(path.c_str());
  PlanSpec spec;
  spec.gen_seeds = {gen_seed};
  spec.pdr_grid = std::move(pdr_grid);
  std::string err;
  const auto plan = CampaignPlan::build(spec, &err);
  EXPECT_TRUE(plan) << err;
  campaign::RunConfig cfg;
  cfg.store_path = path;
  const campaign::CampaignReport rep =
      campaign::run_single(*plan, cfg, nullptr);
  return {rep.stored_evals, rep.stored_cells};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

constexpr std::size_t kFileHeader = 12;   // magic + version
constexpr std::size_t kFrameHeader = 12;  // len + payload crc + header crc

TEST(ShardMerge, FoldsDisjointShardsCompletely) {
  const auto [evals_a, cells_a] = build_shard("merge_a.store", 5, {0.5});
  const auto [evals_b, cells_b] = build_shard("merge_b.store", 6, {0.5, 0.7});
  ASSERT_GT(evals_a, 0u);
  ASSERT_GT(evals_b, 0u);

  const auto st = EvalStore::merge({"merge_a.store", "merge_b.store"},
                                   "merge_out.store");
  EXPECT_TRUE(st.clean());
  ASSERT_EQ(st.shards.size(), 2u);
  EXPECT_TRUE(st.shards[0].present);
  EXPECT_TRUE(st.shards[1].present);
  // Different scenarios share nothing: every record folds in once.
  EXPECT_EQ(st.evals, evals_a + evals_b);
  EXPECT_EQ(st.cells, cells_a + cells_b);
  EXPECT_EQ(st.duplicate_evals, 0u);
  EXPECT_EQ(st.superseded_cells, 0u);
  EXPECT_EQ(st.frames, st.evals + st.cells);
  EXPECT_TRUE(EvalStore::audit("merge_out.store").clean());

  store::StoreOptions ro;
  ro.read_only = true;
  const EvalStore merged("merge_out.store", ro);
  EXPECT_EQ(merged.eval_count(), evals_a + evals_b);
  EXPECT_EQ(merged.cell_count(), cells_a + cells_b);
  std::remove("merge_a.store");
  std::remove("merge_b.store");
  std::remove("merge_out.store");
}

TEST(ShardMerge, FoldsDuplicateEvaluationsToOneRecord) {
  // Same scenario in both shards: the common-random-numbers contract
  // makes the overlapping evaluations bit-identical, so the merge keeps
  // exactly one copy and counts the rest.
  const auto [evals_a, cells_a] = build_shard("merge_dup_a.store", 5, {0.5});
  const auto [evals_b, cells_b] =
      build_shard("merge_dup_b.store", 5, {0.5, 0.7});
  ASSERT_GE(evals_b, evals_a);  // superset grid explores at least as much

  const auto st = EvalStore::merge({"merge_dup_a.store", "merge_dup_b.store"},
                                   "merge_dup_out.store");
  EXPECT_TRUE(st.clean());
  // Shard A's evals are all rediscovered by shard B's pdr=0.5 cell.
  EXPECT_EQ(st.duplicate_evals, evals_a);
  EXPECT_EQ(st.evals, evals_b);
  // The pdr=0.5 cell was checkpointed in both shards; one frame kept.
  EXPECT_EQ(st.superseded_cells, 1u);
  EXPECT_EQ(st.cells, 2u);
  EXPECT_TRUE(EvalStore::audit("merge_dup_out.store").clean());
  std::remove("merge_dup_a.store");
  std::remove("merge_dup_b.store");
  std::remove("merge_dup_out.store");
}

TEST(ShardMerge, AbsentShardIsSkippedAndRecorded) {
  const auto [evals_a, cells_a] = build_shard("merge_only.store", 5, {0.5});
  const auto st = EvalStore::merge({"merge_only.store", "no_such.store"},
                                   "merge_absent_out.store");
  ASSERT_EQ(st.shards.size(), 2u);
  EXPECT_TRUE(st.shards[0].present);
  EXPECT_FALSE(st.shards[1].present);
  EXPECT_EQ(st.evals, evals_a);
  EXPECT_EQ(st.cells, cells_a);
  std::remove("merge_only.store");
  std::remove("merge_absent_out.store");
}

/// The corruption matrix: damage one shard, merge it with a healthy
/// one, and check the blast radius is exactly the damaged frames.
class ShardMergeCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test file names: ctest -j runs the cases concurrently in one
    // working directory.
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    a_ = "corrupt_a_" + name + ".store";
    b_ = "corrupt_b_" + name + ".store";
    out_ = "corrupt_out_" + name + ".store";
    std::tie(evals_a_, cells_a_) = build_shard(a_, 5, {0.5});
    std::tie(evals_b_, cells_b_) = build_shard(b_, 6, {0.5});
    healthy_b_ = read_file(b_);
    ASSERT_GT(healthy_b_.size(), kFileHeader + 2 * kFrameHeader);
  }
  void TearDown() override {
    std::remove(a_.c_str());
    std::remove(b_.c_str());
    std::remove(out_.c_str());
  }

  EvalStore::MergeStats merge_now() { return EvalStore::merge({a_, b_}, out_); }

  std::string a_, b_, out_;
  std::uint64_t evals_a_ = 0, cells_a_ = 0, evals_b_ = 0, cells_b_ = 0;
  std::string healthy_b_;
};

TEST_F(ShardMergeCorruption, TornTailCostsOnlyTheLastFrame) {
  // Chop mid-frame: the kill -9 / power-cut artifact.  The torn frame
  // is shard B's LAST record — its pdr=0.5 cell checkpoint.
  write_file(b_,
             healthy_b_.substr(0, healthy_b_.size() - 5));
  const auto st = merge_now();
  EXPECT_FALSE(st.clean());
  EXPECT_TRUE(st.shards[1].tail_truncated);
  EXPECT_FALSE(st.shards[0].tail_truncated);
  // Every evaluation survives; only the torn checkpoint is gone.
  EXPECT_EQ(st.evals, evals_a_ + evals_b_);
  EXPECT_EQ(st.cells, cells_a_);
  EXPECT_EQ(st.shards[0].records, evals_a_ + cells_a_);
  EXPECT_TRUE(EvalStore::audit(out_).clean());
}

TEST_F(ShardMergeCorruption, BitFlippedPayloadDropsOneFrameOnly) {
  // Flip one payload byte of shard B's first frame: payload CRC fails,
  // framing stays intact, later records survive.
  std::string damaged = healthy_b_;
  damaged[kFileHeader + kFrameHeader + 2] ^= 0x40;
  write_file(b_, damaged);
  const auto st = merge_now();
  EXPECT_FALSE(st.clean());
  EXPECT_EQ(st.shards[1].corrupt_dropped, 1u);
  EXPECT_FALSE(st.shards[1].desynced);
  EXPECT_EQ(st.shards[1].records, evals_b_ + cells_b_ - 1);
  EXPECT_EQ(st.evals, evals_a_ + evals_b_ - 1);  // one eval lost
  EXPECT_EQ(st.cells, cells_a_ + cells_b_);      // checkpoints intact
  // Shard A is untouched by shard B's damage.
  EXPECT_EQ(st.shards[0].evals_added, evals_a_);
  EXPECT_TRUE(EvalStore::audit(out_).clean());
}

TEST_F(ShardMergeCorruption, DesyncedHeaderDropsTheShardTailNotTheFleet) {
  // Flip a frame-header byte: framing is lost from that offset on, so
  // shard B contributes nothing — but shard A still merges in full.
  std::string damaged = healthy_b_;
  damaged[kFileHeader + 1] ^= 0x01;
  write_file(b_, damaged);
  const auto st = merge_now();
  EXPECT_FALSE(st.clean());
  EXPECT_TRUE(st.shards[1].desynced);
  EXPECT_EQ(st.shards[1].records, 0u);
  EXPECT_EQ(st.evals, evals_a_);
  EXPECT_EQ(st.cells, cells_a_);
  EXPECT_EQ(st.shards[0].evals_added, evals_a_);
  EXPECT_EQ(st.shards[0].cells_added, cells_a_);
  EXPECT_TRUE(EvalStore::audit(out_).clean());
}

}  // namespace
