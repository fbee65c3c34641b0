// gridsub_campaign_merge end to end: both merge paths (streamed k-way and
// --buffered) run on real shard checkpoints and must apply the crash
// model's tail rule exactly as every library reader does. A clipped final
// line is the kill artifact and is dropped; a whole record that only lost
// its newline is kept; a whole record with a wrong seed is corruption and
// fails the merge.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "exp/campaign.hpp"
#include "exp/checkpoint.hpp"

namespace gridsub::exp {
namespace {

CampaignAxes merge_axes() {
  CampaignAxes axes;
  axes.name = "merge-test";
  axes.scenario_labels = {"sc0", "sc1"};
  axes.strategy_labels = {"st0", "st1"};
  axes.replications = 3;
  axes.root_seed = 7;
  return axes;
}

CellMetrics analytic_cell(const CellContext& ctx) {
  return {{"value", static_cast<double>(ctx.seed % 1000) / 7.0},
          {"index", static_cast<double>(ctx.flat)}};
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

class CampaignMerge : public ::testing::Test {
 protected:
  void SetUp() override {
#ifndef GRIDSUB_MERGE_TOOL
    GTEST_SKIP() << "built without tools/gridsub_campaign_merge";
#endif
    dir_ = std::filesystem::temp_directory_path() /
           ("gridsub_test_campaign_merge_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    for (std::size_t i = 0; i < 2; ++i) {
      CampaignOptions options;
      options.checkpoint_path = shard_path(i);
      options.shard = CampaignShard{i, 2};
      (void)CampaignRunner(options).run_shard(merge_axes(), analytic_cell);
    }
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string shard_path(std::size_t i) const {
    return (dir_ / ("shard" + std::to_string(i) + ".ckpt")).string();
  }

  /// Runs the merge tool on both shards; returns its exit code and leaves
  /// stdout/stderr in out.json/err.txt.
  int merge(bool buffered) const {
#ifdef GRIDSUB_MERGE_TOOL
    const std::string cmd = std::string("\"") + GRIDSUB_MERGE_TOOL +
                            "\" --in \"" + shard_path(0) + "," +
                            shard_path(1) + "\"" +
                            (buffered ? " --buffered" : "") + " > \"" +
                            (dir_ / "out.json").string() + "\" 2> \"" +
                            (dir_ / "err.txt").string() + "\"";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
#else
    (void)buffered;
    return -1;
#endif
  }

  [[nodiscard]] std::string out() const { return slurp(dir_ / "out.json"); }
  [[nodiscard]] std::string err() const { return slurp(dir_ / "err.txt"); }

  void append_to_shard1(const std::string& bytes) const {
    std::ofstream os(shard_path(1), std::ios::binary | std::ios::app);
    os << bytes;
  }

  std::filesystem::path dir_;
};

TEST_F(CampaignMerge, BothPathsRejectAWholeTailWithAWrongSeed) {
  // Cell 0 belongs to shard 0; this whole record in shard 1 carries a
  // seed no cell of the campaign has. It only lost its newline, so it is
  // data, and wrong data.
  append_to_shard1(R"({"cell": 0, "seed": 12345, "metrics": {"value": 1, )"
                   R"("index": 0}})");
  EXPECT_THROW((void)load_checkpoint(shard_path(1)), CheckpointError);
  for (const bool buffered : {false, true}) {
    SCOPED_TRACE(buffered ? "--buffered" : "streamed");
    EXPECT_EQ(merge(buffered), 1);
    EXPECT_NE(err().find("seed mismatch for cell 0"), std::string::npos)
        << err();
  }
}

TEST_F(CampaignMerge, BothPathsDropAClippedTail) {
  const std::string reference =
      CampaignRunner().run(merge_axes(), analytic_cell).to_json();
  append_to_shard1(R"({"cell": 0, "seed": 12)");
  for (const bool buffered : {false, true}) {
    SCOPED_TRACE(buffered ? "--buffered" : "streamed");
    ASSERT_EQ(merge(buffered), 0) << err();
    EXPECT_EQ(out(), reference);
    EXPECT_NE(err().find("partial tail dropped"), std::string::npos)
        << err();
  }
}

TEST_F(CampaignMerge, BothPathsKeepAWholeTailThatLostItsNewline) {
  const std::string reference =
      CampaignRunner().run(merge_axes(), analytic_cell).to_json();
  std::string content = slurp(shard_path(1));
  ASSERT_EQ(content.back(), '\n');
  content.pop_back();
  std::ofstream(shard_path(1), std::ios::binary | std::ios::trunc)
      << content;
  for (const bool buffered : {false, true}) {
    SCOPED_TRACE(buffered ? "--buffered" : "streamed");
    ASSERT_EQ(merge(buffered), 0) << err();
    EXPECT_EQ(out(), reference);
    EXPECT_EQ(err().find("partial tail dropped"), std::string::npos)
        << err();
  }
}

}  // namespace
}  // namespace gridsub::exp
