#include "exp/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "core/json.hpp"

namespace gridsub::exp {

namespace {

namespace json = core::json;
using json::get_key;
using json::get_string;
using json::get_string_array;
using json::get_uint;

constexpr std::string_view kSchema = "gridsub-checkpoint-v1";

}  // namespace

bool same_campaign(const CampaignAxes& a, const CampaignAxes& b) {
  return a.name == b.name && a.scenario_axis == b.scenario_axis &&
         a.strategy_axis == b.strategy_axis &&
         a.scenario_labels == b.scenario_labels &&
         a.strategy_labels == b.strategy_labels &&
         a.replications == b.replications && a.root_seed == b.root_seed;
}

bool same_cell_metrics(const CellMetrics& a, const CellMetrics& b) {
  // Duplicate records must agree bit-for-bit, which operator== on doubles
  // cannot express (NaN metrics — written as null, parsed back as NaN —
  // would make identical records look like conflicts).
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].first != b[i].first ||
        std::memcmp(&a[i].second, &b[i].second, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

CheckpointHeader parse_checkpoint_header(const std::string& line,
                                         const std::string& origin) try {
  const std::string where = origin + " header";
  const json::Value v = json::parse(line, where);
  if (v.kind != json::Value::Kind::kObject) {
    throw CheckpointError(origin + ": header is not an object");
  }
  if (get_string(v, "schema", where) != kSchema) {
    throw CheckpointError(where + ": unknown schema \"" +
                          get_string(v, "schema", where) + "\" (expected " +
                          std::string(kSchema) + ")");
  }
  CheckpointHeader out;
  out.axes.name = get_string(v, "name", where);
  out.axes.scenario_axis = get_string(v, "scenario_axis", where);
  out.axes.strategy_axis = get_string(v, "strategy_axis", where);
  out.axes.scenario_labels = get_string_array(v, "scenarios", where);
  out.axes.strategy_labels = get_string_array(v, "strategies", where);
  out.axes.replications =
      static_cast<std::size_t>(get_uint(v, "replications", where));
  out.axes.root_seed = get_uint(v, "root_seed", where);
  out.shard.index = static_cast<std::size_t>(get_uint(v, "shard_index",
                                                      where));
  out.shard.count = static_cast<std::size_t>(get_uint(v, "shard_count",
                                                      where));
  try {
    out.axes.validate();
    out.shard.validate();
  } catch (const std::invalid_argument& e) {
    throw CheckpointError(where + ": " + e.what());
  }
  return out;
} catch (const json::Error& e) {
  throw CheckpointError(e.what());
}

CellResult parse_checkpoint_record(const std::string& line,
                                   const std::string& origin,
                                   const CampaignAxes& axes) try {
  const json::Value v = json::parse(line, origin);
  if (v.kind != json::Value::Kind::kObject) {
    throw CheckpointError(origin + ": record is not an object");
  }
  const std::uint64_t flat = get_uint(v, "cell", origin);
  if (flat >= axes.cell_count()) {
    throw CheckpointError(origin + ": cell index " + std::to_string(flat) +
                          " is outside the " +
                          std::to_string(axes.cell_count()) + "-cell grid");
  }
  CellResult cell;
  cell.context = axes.cell(static_cast<std::size_t>(flat));
  // The recorded seed must reproduce from the header's axes; a mismatch
  // means the file and the campaign disagree (corruption or a stale
  // checkpoint from an edited spec) and resuming would mix RNG streams.
  if (get_uint(v, "seed", origin) != cell.context.seed) {
    throw CheckpointError(origin + ": seed mismatch for cell " +
                          std::to_string(flat) +
                          " (checkpoint does not match this campaign)");
  }
  const json::Value& metrics = get_key(v, "metrics", origin);
  if (metrics.kind != json::Value::Kind::kObject) {
    throw CheckpointError(origin + ": \"metrics\" is not an object");
  }
  cell.metrics.reserve(metrics.object.size());
  for (const auto& [name, value] : metrics.object) {
    if (value.kind != json::Value::Kind::kNumber &&
        value.kind != json::Value::Kind::kNull) {
      throw CheckpointError(origin + ": metric \"" + name +
                            "\" is not a number");
    }
    cell.metrics.emplace_back(name, value.number);
  }
  return cell;
} catch (const json::Error& e) {
  throw CheckpointError(e.what());
}

std::optional<CellResult> parse_checkpoint_tail(const std::string& line,
                                                const std::string& origin,
                                                const CampaignAxes& axes) {
  // Only a line that is not whole JSON is the kill artifact. A whole
  // object lost just its newline: its data is complete, so it is checked
  // like any other record (a wrong seed there is corruption).
  try {
    (void)json::parse(line, origin);
  } catch (const json::Error&) {
    return std::nullopt;
  }
  return parse_checkpoint_record(line, origin, axes);
}

void write_checkpoint_header(std::ostream& os, const CampaignAxes& axes,
                             const CampaignShard& shard) {
  axes.validate();
  shard.validate();
  os << "{\"schema\": \"" << kSchema << "\", \"name\": ";
  json::escape(os, axes.name);
  os << ", \"scenario_axis\": ";
  json::escape(os, axes.scenario_axis);
  os << ", \"strategy_axis\": ";
  json::escape(os, axes.strategy_axis);
  os << ", \"scenarios\": [";
  for (std::size_t i = 0; i < axes.scenario_labels.size(); ++i) {
    if (i > 0) os << ", ";
    json::escape(os, axes.scenario_labels[i]);
  }
  os << "], \"strategies\": [";
  for (std::size_t i = 0; i < axes.strategy_labels.size(); ++i) {
    if (i > 0) os << ", ";
    json::escape(os, axes.strategy_labels[i]);
  }
  os << "], \"replications\": " << axes.replications
     << ", \"root_seed\": " << axes.root_seed
     << ", \"shard_index\": " << shard.index
     << ", \"shard_count\": " << shard.count << "}\n";
}

void append_checkpoint_cell(std::ostream& os, const CellResult& cell) {
  os << "{\"cell\": " << cell.context.flat
     << ", \"seed\": " << cell.context.seed << ", \"metrics\": {";
  for (std::size_t m = 0; m < cell.metrics.size(); ++m) {
    if (m > 0) os << ", ";
    json::escape(os, cell.metrics[m].first);
    os << ": ";
    json::number(os, cell.metrics[m].second);
  }
  os << "}}\n";
}

CheckpointWriter::CheckpointWriter(const std::string& path,
                                   const CampaignAxes& axes,
                                   const CampaignShard& shard,
                                   const Resume& resume, IoFaultHook io_fault)
    : path_(path), io_fault_(std::move(io_fault)) {
  // Repair any kill artifact before appending: cut a dropped partial
  // tail — or a clipped first header write, where valid_bytes is 0 — so
  // it cannot glue onto new content and garble the file.
  std::error_code ec;
  if (std::filesystem::exists(path_, ec) && !ec) {
    std::filesystem::resize_file(path_, resume.valid_bytes, ec);
    if (ec) {
      throw CheckpointError("cannot truncate checkpoint file '" + path_ +
                            "' to its valid prefix: " + ec.message());
    }
  }
  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_) {
    throw CheckpointError("cannot open checkpoint file '" + path_ +
                          "' for writing");
  }
  if (resume.fresh) {
    write_checkpoint_header(out_, axes, shard);
    out_.flush();
  } else if (resume.missing_final_newline) {
    out_ << '\n';
    out_.flush();
  }
  if (!out_) {
    throw CheckpointError("cannot write checkpoint header to '" + path_ +
                          "'");
  }
}

void CheckpointWriter::append(const CellResult& cell) {
  // Serialize outside the lock; one write + flush per record under it, so
  // a kill can only clip the final line (which readers drop).
  std::ostringstream line;
  append_checkpoint_cell(line, cell);
  const std::string text = line.str();
  const core::MutexLock lock(mu_);
  if (io_fault_) {
    const std::uint64_t index = writes_;
    const IoFaultDirective d = io_fault_(index, text.size());
    if (d.kind != IoFaultDirective::Kind::kNone) {
      ++writes_;
      const std::size_t keep = std::min(d.keep_bytes, text.size());
      if (d.kind != IoFaultDirective::Kind::kEnospc && keep > 0) {
        out_.write(text.data(), static_cast<std::streamsize>(keep));
        out_.flush();
      }
      const char* what =
          d.kind == IoFaultDirective::Kind::kEnospc
              ? "injected ENOSPC (no bytes written) appending cell "
              : (d.kind == IoFaultDirective::Kind::kShortWrite
                     ? "injected short write appending cell "
                     : "injected kill (torn tail) appending cell ");
      throw CheckpointError(what + std::to_string(cell.context.flat) +
                            " to checkpoint '" + path_ + "' (kept " +
                            std::to_string(keep) + " of " +
                            std::to_string(text.size()) + " bytes)");
    }
  }
  ++writes_;
  out_ << text;
  out_.flush();
  if (!out_) {
    throw CheckpointError("failed to append cell " +
                          std::to_string(cell.context.flat) +
                          " to checkpoint '" + path_ + "'");
  }
}

CampaignCheckpoint parse_checkpoint(std::string_view content,
                                    const std::string& origin) {
  CampaignCheckpoint out;

  // Split into newline-terminated lines plus a possibly unterminated tail
  // (the artifact of a writer killed mid-append).
  std::vector<std::string> lines;
  std::string tail;
  std::size_t start = 0;
  while (start < content.size()) {
    const std::size_t nl = content.find('\n', start);
    if (nl == std::string_view::npos) {
      tail = std::string(content.substr(start));
      break;
    }
    lines.push_back(std::string(content.substr(start, nl - start)));
    start = nl + 1;
  }
  if (lines.empty()) {
    throw CheckpointError(origin + ": missing checkpoint header");
  }
  const CheckpointHeader header = parse_checkpoint_header(lines.front(),
                                                          origin);
  out.axes = header.axes;
  out.shard = header.shard;

  std::vector<CellResult> by_flat(out.axes.cell_count());
  std::vector<bool> have(out.axes.cell_count(), false);
  const auto add_record = [&](CellResult cell, const std::string& where) {
    const std::size_t flat = cell.context.flat;
    if (have[flat]) {
      if (!same_cell_metrics(by_flat[flat].metrics, cell.metrics)) {
        throw CheckpointError(where + ": conflicting duplicate record for "
                              "cell " + std::to_string(flat));
      }
      return;  // benign duplicate (e.g. a rerun after a crash-less stop)
    }
    have[flat] = true;
    by_flat[flat] = std::move(cell);
  };
  for (std::size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const std::string where = origin + ":" + std::to_string(i + 1);
    add_record(parse_checkpoint_record(lines[i], where, out.axes), where);
  }
  out.valid_bytes = content.size();
  if (!tail.empty()) {
    const std::string where =
        origin + ":" + std::to_string(lines.size() + 1);
    if (std::optional<CellResult> cell =
            parse_checkpoint_tail(tail, where, out.axes)) {
      add_record(std::move(*cell), where);
      out.missing_final_newline = true;
    } else {
      // The cell reruns on resume.
      out.dropped_partial_tail = true;
      out.valid_bytes = content.size() - tail.size();
    }
  }
  for (std::size_t flat = 0; flat < have.size(); ++flat) {
    if (have[flat]) out.cells.push_back(std::move(by_flat[flat]));
  }
  return out;
}

CampaignCheckpoint read_checkpoint(std::istream& is,
                                   const std::string& origin) {
  const std::string content((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());
  return parse_checkpoint(content, origin);
}

CampaignCheckpoint load_checkpoint(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw CheckpointError("cannot open checkpoint file '" + path + "'");
  }
  return read_checkpoint(is, path);
}

CampaignResult merge_checkpoints(std::vector<CampaignCheckpoint> shards) {
  if (shards.empty()) {
    throw CheckpointError("merge_checkpoints: no checkpoints given");
  }
  const CampaignAxes& axes = shards.front().axes;
  std::vector<CellResult> cells(axes.cell_count());
  std::vector<bool> have(axes.cell_count(), false);
  for (CampaignCheckpoint& shard : shards) {
    if (!same_campaign(shard.axes, axes)) {
      throw CheckpointError(
          "merge_checkpoints: checkpoint for campaign '" + shard.axes.name +
          "' does not match '" + axes.name + "' (axes, replications, and "
          "root seed must all agree)");
    }
    for (CellResult& cell : shard.cells) {
      const std::size_t flat = cell.context.flat;
      if (have[flat]) {
        if (!same_cell_metrics(cells[flat].metrics, cell.metrics)) {
          throw CheckpointError(
              "merge_checkpoints: shards disagree on cell " +
              std::to_string(flat) + " of campaign '" + axes.name + "'");
        }
        continue;
      }
      have[flat] = true;
      cells[flat] = std::move(cell);
    }
  }
  const auto missing =
      static_cast<std::size_t>(std::count(have.begin(), have.end(), false));
  if (missing > 0) {
    throw CheckpointError(
        "merge_checkpoints: campaign '" + axes.name + "' is incomplete: " +
        std::to_string(missing) + " of " + std::to_string(axes.cell_count()) +
        " cells missing (did every shard run to completion?)");
  }
  return CampaignResult(axes, std::move(cells));
}

}  // namespace gridsub::exp
