#include "exp/stage.hpp"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "core/json.hpp"
#include "exp/checkpoint.hpp"

namespace gridsub::exp {

namespace {

namespace json = core::json;

constexpr std::string_view kStageSchema = "gridsub-stage-v1";

std::string ckpt_path(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".stage.ckpt";
}

void log_line(const StageOptions& options, const std::string& message) {
  if (options.log != nullptr) *options.log << "[stage] " << message << "\n";
}

/// Writes line 1 of a .stage file: the stage name + upstream identity.
void write_stage_header(std::ostream& os, const std::string& name,
                        const std::string& identity) {
  os << "{\"schema\": \"" << kStageSchema << "\", \"stage\": ";
  json::escape(os, name);
  os << ", \"identity\": ";
  json::escape(os, identity);
  os << "}\n";
}

/// Attempts to serve the stage from an existing .stage file. Returns the
/// result on a clean load; nullopt when the file is absent or stale
/// (wrong identity/axes — the caller recomputes). Corrupt content raises
/// CheckpointError: the rename is atomic, so a bad .stage file is real
/// corruption, never a kill artifact.
std::optional<CampaignResult> load_stage(const std::string& path,
                                         const CampaignAxes& axes,
                                         const std::string& identity,
                                         const StageOptions& options) try {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  std::string content((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
  const std::size_t nl = content.find('\n');
  if (nl == std::string::npos) {
    throw CheckpointError(path + ": stage file has no header line");
  }
  const std::string header_line = content.substr(0, nl);
  const std::string where = path + " stage header";
  const json::Value v = json::parse(header_line, where);
  if (v.kind != json::Value::Kind::kObject) {
    throw CheckpointError(where + ": not an object");
  }
  if (json::get_string(v, "schema", where) != kStageSchema) {
    throw CheckpointError(where + ": unknown schema \"" +
                          json::get_string(v, "schema", where) + "\"");
  }
  if (json::get_string(v, "stage", where) != axes.name) {
    throw CheckpointError(where + ": holds stage '" +
                          json::get_string(v, "stage", where) +
                          "', expected '" + axes.name + "'");
  }
  if (json::get_string(v, "identity", where) != identity) {
    log_line(options, axes.name + ": upstream identity changed, "
                                  "recomputing");
    return std::nullopt;
  }
  CampaignCheckpoint checkpoint =
      parse_checkpoint(std::string_view(content).substr(nl + 1), path);
  if (!same_campaign(checkpoint.axes, axes)) {
    log_line(options, axes.name + ": stage axes changed, recomputing");
    return std::nullopt;
  }
  if (!checkpoint.complete()) {
    throw CheckpointError(path + ": stage file is incomplete (" +
                          std::to_string(checkpoint.cells.size()) + " of " +
                          std::to_string(axes.cell_count()) +
                          " cells) — it should never have been published");
  }
  log_line(options, axes.name + ": loaded " +
                        std::to_string(checkpoint.cells.size()) +
                        " cells from " + path);
  return CampaignResult(checkpoint.axes, std::move(checkpoint.cells));
} catch (const json::Error& e) {
  throw CheckpointError(e.what());
}

/// Publishes a finished stage: temp file + atomic rename, then drops the
/// now-redundant cell checkpoint.
void publish_stage(const std::string& dir, const CampaignResult& result,
                   const std::string& identity) {
  const std::string final_path = stage_path(dir, result.axes.name);
  const std::string tmp_path =
      final_path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream os(tmp_path, std::ios::binary);
    if (!os) {
      throw CheckpointError("cannot write stage file '" + tmp_path + "'");
    }
    write_stage_header(os, result.axes.name, identity);
    write_checkpoint_header(os, result.axes);
    for (const CellResult& cell : result.cells()) {
      append_checkpoint_cell(os, cell);
    }
    os.flush();
    if (!os) {
      throw CheckpointError("failed writing stage file '" + tmp_path + "'");
    }
  }
  std::filesystem::rename(tmp_path, final_path);
  std::error_code ec;
  std::filesystem::remove(ckpt_path(dir, result.axes.name), ec);
}

}  // namespace

std::string stage_path(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".stage";
}

StageResult run_stage(const CampaignAxes& axes,
                      const CellEvaluator& evaluate,
                      const std::string& identity,
                      const StageOptions& options) {
  axes.validate();

  CampaignOptions campaign_options;
  campaign_options.pool = options.pool;
  campaign_options.on_progress = options.on_progress;

  if (options.dir.empty()) {
    CampaignResult result = CampaignRunner(campaign_options)
                                .run(axes, evaluate);
    log_line(options, axes.name + ": evaluated " +
                          std::to_string(axes.cell_count()) +
                          " cells (in-memory, no stage dir)");
    return {std::move(result), /*loaded=*/false,
            /*fresh=*/axes.cell_count()};
  }

  std::filesystem::create_directories(options.dir);
  const std::string path = stage_path(options.dir, axes.name);
  if (std::optional<CampaignResult> cached =
          load_stage(path, axes, identity, options)) {
    return {std::move(*cached), /*loaded=*/true, /*fresh=*/0};
  }
  // Stale stage output (identity or axes changed): its cell checkpoint is
  // just as stale and would fail the runner's axes check — clear both.
  std::error_code ec;
  if (std::filesystem::exists(path, ec) && !ec) {
    std::filesystem::remove(path, ec);
    std::filesystem::remove(ckpt_path(options.dir, axes.name), ec);
  }

  campaign_options.checkpoint_path = ckpt_path(options.dir, axes.name);
  std::size_t resumed = 0;
  std::size_t fresh = 0;
  auto inner = std::move(campaign_options.on_progress);
  campaign_options.on_progress =
      [&resumed, &fresh, inner](const CampaignProgress& p) {
        if (p.fresh == 0) resumed = p.completed;
        fresh = p.fresh;
        if (inner) inner(p);
      };
  CampaignResult result =
      CampaignRunner(std::move(campaign_options)).run(axes, evaluate);
  publish_stage(options.dir, result, identity);
  log_line(options, axes.name + ": evaluated " + std::to_string(fresh) +
                        " cells (resumed " + std::to_string(resumed) +
                        ") -> " + path);
  return {std::move(result), /*loaded=*/false, /*fresh=*/fresh};
}

}  // namespace gridsub::exp
