// End-to-end equivalence of the streaming campaign path: the streamed
// JSON must be byte-identical to the buffered CampaignResult::write_json
// at any thread count, across an interrupt + resume, and when a shard
// checkpoint feeds a sink — the determinism contract the constant-memory
// pipeline must not bend.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/checkpoint.hpp"
#include "exp/fold.hpp"
#include "parallel/thread_pool.hpp"

namespace gridsub::exp {
namespace {

CampaignAxes streaming_axes() {
  CampaignAxes axes;
  axes.name = "streaming_equivalence";
  axes.scenario_axis = "scenario";
  axes.strategy_axis = "strategy";
  axes.scenario_labels = {"s0", "s1", "s2", "s3"};
  axes.strategy_labels = {"a", "b", "c"};
  axes.replications = 4;
  axes.root_seed = 20090611;
  return axes;
}

/// Deterministic, mildly irregular metrics (NaN included: the JSON null
/// round-trip must stream identically too).
CellMetrics synthetic_cell(const CellContext& ctx) {
  const double v = static_cast<double>(ctx.seed % 99991) / 997.0;
  CellMetrics metrics{{"value", v}, {"twice", 2.0 * v}};
  if (ctx.flat == 5) metrics.emplace_back("oddball", 0.0 / 0.0);
  if (ctx.flat != 5) metrics.emplace_back("oddball", -v);
  return metrics;
}

std::string temp_path(const std::string& name) {
  const auto dir =
      std::filesystem::temp_directory_path() / "gridsub_test_streaming";
  std::filesystem::create_directories(dir);
  const auto path = dir / name;
  std::filesystem::remove(path);
  return path.string();
}

std::string streamed_json(const CampaignAxes& axes, par::ThreadPool* pool,
                          const std::string& checkpoint = "") {
  CampaignOptions options;
  options.pool = pool;
  options.checkpoint_path = checkpoint;
  std::ostringstream os;
  JsonStreamSink sink(os);
  CampaignRunner(options).run_with_sink(axes, synthetic_cell, sink);
  (void)sink.take();
  return os.str();
}

TEST(CampaignStreaming, StreamedJsonMatchesBufferedAtAnyThreadCount) {
  const CampaignAxes axes = streaming_axes();
  const std::string buffered =
      CampaignRunner().run(axes, synthetic_cell).to_json();

  for (const std::size_t threads : {1u, 2u, 8u}) {
    par::ThreadPool pool(threads);
    EXPECT_EQ(streamed_json(axes, &pool), buffered)
        << "streamed output diverged at " << threads << " threads";
  }
}

TEST(CampaignStreaming, FoldSinkSummaryMatchesBufferedAggregates) {
  const CampaignAxes axes = streaming_axes();
  const CampaignResult result = CampaignRunner().run(axes, synthetic_cell);

  par::ThreadPool pool(8);
  CampaignOptions options;
  options.pool = &pool;
  FoldSink sink;
  CampaignRunner(options).run_with_sink(axes, synthetic_cell, sink);
  const CampaignSummary summary = sink.take();

  ASSERT_EQ(summary.rows.size(), result.rows.size());
  for (std::size_t sc = 0; sc < axes.scenario_labels.size(); ++sc) {
    for (std::size_t st = 0; st < axes.strategy_labels.size(); ++st) {
      EXPECT_DOUBLE_EQ(summary.mean(sc, st, "value"),
                       result.mean(sc, st, "value"));
      EXPECT_DOUBLE_EQ(summary.sem(sc, st, "value"),
                       result.sem(sc, st, "value"));
    }
  }
}

TEST(CampaignStreaming, InterruptedResumeStreamsIdenticalJson) {
  const CampaignAxes axes = streaming_axes();
  par::ThreadPool pool(4);
  const std::string reference = streamed_json(axes, &pool);

  // Straight-through run with a checkpoint, then simulate a kill: keep the
  // header plus roughly half the records and clip the last kept line
  // mid-record (the classic torn final append).
  const std::string path = temp_path("interrupted.ckpt");
  (void)streamed_json(axes, &pool, path);
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  in.close();
  ASSERT_GT(lines.size(), axes.cell_count() / 2);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const std::size_t keep = 1 + axes.cell_count() / 2;
    for (std::size_t i = 0; i + 1 < keep; ++i) out << lines[i] << "\n";
    out << lines[keep - 1].substr(0, lines[keep - 1].size() / 2);
  }

  // The resumed streamed run must replay restored cells and evaluate the
  // rest into byte-identical JSON.
  EXPECT_EQ(streamed_json(axes, &pool, path), reference);
}

TEST(CampaignStreaming, ShardSinkStreamsOwnedSubsetInOrder) {
  const CampaignAxes axes = streaming_axes();
  CampaignOptions options;
  options.shard.index = 1;
  options.shard.count = 3;
  options.checkpoint_path = temp_path("shard1of3.ckpt");

  // A shard never closes whole (scenario, strategy) groups, so an
  // aggregate sink is the wrong consumer here; probe the delivery order
  // instead.
  class Probe final : public CampaignSink {
   public:
    void on_cell(const CellResult& cell) override {
      flats.push_back(cell.context.flat);
    }
    std::vector<std::size_t> flats;
  } probe;
  const std::size_t evaluated =
      CampaignRunner(options).run_shard(axes, synthetic_cell, &probe);

  std::size_t expected = 0;
  for (std::size_t flat = 0; flat < axes.cell_count(); ++flat) {
    if (flat % 3 == 1) ++expected;
  }
  EXPECT_EQ(evaluated, expected);
  ASSERT_EQ(probe.flats.size(), expected);
  for (std::size_t i = 1; i < probe.flats.size(); ++i) {
    EXPECT_LT(probe.flats[i - 1], probe.flats[i]);
  }
  for (const std::size_t flat : probe.flats) EXPECT_EQ(flat % 3, 1u);
}

TEST(CampaignStreaming, JsonFileStreamMatchesInMemoryStream) {
  const CampaignAxes axes = streaming_axes();
  par::ThreadPool pool(2);
  const std::string reference = streamed_json(axes, &pool);

  const std::string path = temp_path("streamed.json");
  {
    std::ofstream os(path, std::ios::binary);
    ASSERT_TRUE(os.is_open());
    JsonStreamSink sink(os);
    CampaignOptions options;
    options.pool = &pool;
    CampaignRunner(options).run_with_sink(axes, synthetic_cell, sink);
    const CampaignSummary summary = sink.take();
    EXPECT_EQ(summary.rows.size(),
              axes.scenario_labels.size() * axes.strategy_labels.size());
  }
  std::ifstream is(path, std::ios::binary);
  const std::string on_disk((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, reference);
}

}  // namespace
}  // namespace gridsub::exp
