#pragma once

// Campaign checkpoint files: crash-safe persistence and multi-process
// sharding for the campaign engine.
//
// A checkpoint is a JSON-Lines file written and read only by gridsub:
//
//   line 1   header  — the full campaign identity (name, axis display
//            names, axis labels, replications, root seed) plus the shard
//            this file belongs to;
//   line 2+  records — one completed cell each:
//            {"cell": <flat>, "seed": <seed>, "metrics": {"name": v, ...}}
//
// The format round-trips exactly: metric values are written in shortest
// std::to_chars form and re-parsed with std::from_chars, so a resumed or
// merged campaign reproduces the *byte-identical* CampaignResult JSON of
// an uninterrupted single-process run (cells are seed-pure; see
// campaign.hpp's determinism contract).
//
// Crash model: records are appended and flushed one per completed cell.
// A process killed mid-write can only leave a partial final line with no
// terminating newline; readers drop that tail (the cell simply reruns on
// resume). Any *newline-terminated* line that fails to parse, a header
// that does not match the campaign being resumed, a record whose seed
// disagrees with the axes' seed rule, or conflicting duplicate records
// raise CheckpointError — corruption is a clean error, never silently
// wrong results.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/thread_annotations.hpp"
#include "exp/campaign.hpp"

namespace gridsub::exp {

/// Raised on unreadable, corrupt, or mismatched checkpoint data.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A parsed checkpoint: the campaign identity reconstructed from the
/// header plus every completed cell on record (sorted by flat index;
/// possibly a subset of the grid when the run was interrupted or sharded).
struct CampaignCheckpoint {
  CampaignAxes axes;
  CampaignShard shard;
  std::vector<CellResult> cells;  ///< completed cells, ascending flat index
  /// True when the file ended in a partial record (the kill artifact);
  /// the tail was dropped and its cell will rerun on resume.
  bool dropped_partial_tail = false;
  /// Bytes of the stream that parsed cleanly: up to and including the
  /// last terminated record, or the whole stream when an unterminated
  /// whole-JSON tail was kept. A resuming writer truncates the file to
  /// this length before appending, so a dropped tail can never glue onto
  /// the next record.
  std::size_t valid_bytes = 0;
  /// True when the kept content does not end in a newline (a whole-JSON
  /// tail whose terminator was clipped); a resuming writer must emit
  /// '\n' before its first record.
  bool missing_final_newline = false;

  /// True when every cell of the grid is on record.
  [[nodiscard]] bool complete() const {
    return cells.size() == axes.cell_count();
  }
};

/// True when two axes describe the same campaign (name, axis display
/// names, labels, replications, and root seed all equal) — the identity a
/// resume or merge must verify before trusting recorded cells.
[[nodiscard]] bool same_campaign(const CampaignAxes& a, const CampaignAxes& b);

/// The identity a checkpoint's first line binds the file to.
struct CheckpointHeader {
  CampaignAxes axes;
  CampaignShard shard;
};

/// Parses one header line (no trailing newline). Exposed so streaming
/// readers (tools/gridsub_campaign_merge, exp/stage.cpp) can process
/// checkpoint files line-by-line in O(window) memory instead of
/// materializing them. Throws CheckpointError on anything malformed.
[[nodiscard]] CheckpointHeader parse_checkpoint_header(
    const std::string& line, const std::string& origin = "<memory>");

/// Parses one record line (no trailing newline) against the campaign the
/// header announced, verifying the flat index is in range and the
/// recorded seed reproduces from the axes. Throws CheckpointError.
[[nodiscard]] CellResult parse_checkpoint_record(const std::string& line,
                                                 const std::string& origin,
                                                 const CampaignAxes& axes);

/// Parses the unterminated final line of a checkpoint — the one place
/// the crash model's tail rule lives, shared by every reader. A line that
/// is not whole JSON is the kill artifact: returns nullopt, and the caller
/// drops it. Whole JSON only lost its newline, so it is validated like any
/// record and returned; a wrong seed or an out-of-range cell there throws
/// CheckpointError.
[[nodiscard]] std::optional<CellResult> parse_checkpoint_tail(
    const std::string& line, const std::string& origin,
    const CampaignAxes& axes);

/// Bit-exact metric equality (names, order, and double bit patterns —
/// NaN-safe, unlike operator==): the test duplicate records must pass.
[[nodiscard]] bool same_cell_metrics(const CellMetrics& a,
                                     const CellMetrics& b);

/// Writes the header line binding a checkpoint file to (axes, shard).
void write_checkpoint_header(std::ostream& os, const CampaignAxes& axes,
                             const CampaignShard& shard = {});

/// What an injected I/O fault does to one checkpoint append. Returned by
/// an IoFaultHook (the seam src/fault threads under CheckpointWriter so
/// the chaos suite can exercise every disk-failure class the crash model
/// promises to survive):
///
///   kShortWrite  keep_bytes of the record reach the file, then append()
///                throws CheckpointError — the disk filled (or errored)
///                mid-record and the writer noticed.
///   kEnospc      nothing reaches the file; append() throws — the write
///                failed before any byte landed.
///   kTornTail    keep_bytes reach the file and append() throws — but
///                this models a *kill*, not a reported error: the caller
///                simulating the crash abandons the writer, and the next
///                run's resume path must truncate the torn tail away.
struct IoFaultDirective {
  enum class Kind { kNone, kShortWrite, kEnospc, kTornTail };
  Kind kind = Kind::kNone;
  /// Record-prefix bytes that reach the file (kShortWrite / kTornTail).
  std::size_t keep_bytes = 0;
};

/// Consulted once per append() with the 0-based write index and the
/// serialized record size. Pure decisions only — the fault framework's
/// determinism contract needs the same directive for the same index.
using IoFaultHook =
    std::function<IoFaultDirective(std::uint64_t write_index,
                                   std::size_t payload_bytes)>;

/// Thread-safe appender for one shard's checkpoint file — the write side
/// of the crash model documented above, shared by every campaign worker.
///
/// Construction repairs any kill artifact before the first append: the
/// file is truncated to its parsed-clean prefix (a dropped partial tail
/// can never glue onto a new record), a fresh file gets the header line,
/// and a kept whole-JSON tail whose newline was clipped is re-terminated.
/// append() then serializes one record per completed cell and flushes it,
/// so a kill can only ever clip the final line. Workers may append
/// concurrently; the writer's own mutex orders the physical writes
/// (record order carries no meaning — readers index records by cell).
class CheckpointWriter {
 public:
  /// What a resuming run learned about the existing file (all defaults —
  /// `fresh` — for a file that does not exist yet or is blank).
  struct Resume {
    /// No usable checkpoint content yet: write the header first.
    bool fresh = true;
    /// Bytes of the file that parsed cleanly; anything after is cut.
    std::size_t valid_bytes = 0;
    /// The kept prefix lacks its final newline; emit '\n' before the
    /// first appended record.
    bool missing_final_newline = false;
  };

  /// Opens `path` for appending after repairing the tail per `resume`.
  /// Throws CheckpointError when the file cannot be truncated or opened,
  /// or the header cannot be written. `io_fault` (tests only) injects
  /// disk-failure behaviour per append; see IoFaultDirective.
  CheckpointWriter(const std::string& path, const CampaignAxes& axes,
                   const CampaignShard& shard, const Resume& resume,
                   IoFaultHook io_fault = {});

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Appends one cell record and flushes it. Thread-safe. Throws
  /// CheckpointError on write failure (ENOSPC/EIO, real or injected): the
  /// run must fail loudly instead of silently completing with nothing
  /// persisted — crash-safety is the whole point of the file.
  void append(const CellResult& cell) GRIDSUB_EXCLUDES(mu_);

 private:
  std::string path_;
  core::Mutex mu_;
  std::ofstream out_ GRIDSUB_GUARDED_BY(mu_);
  IoFaultHook io_fault_;
  std::uint64_t writes_ GRIDSUB_GUARDED_BY(mu_) = 0;
};

/// Appends one completed cell as a single newline-terminated record.
void append_checkpoint_cell(std::ostream& os, const CellResult& cell);

/// Parses checkpoint content already in memory. `origin` names the
/// source in error messages. Throws CheckpointError on corrupt or
/// inconsistent content.
[[nodiscard]] CampaignCheckpoint parse_checkpoint(
    std::string_view content, const std::string& origin = "<memory>");

/// Parses a whole checkpoint stream. `origin` names the source in error
/// messages. Throws CheckpointError on corrupt or inconsistent content.
[[nodiscard]] CampaignCheckpoint read_checkpoint(
    std::istream& is, const std::string& origin = "<stream>");

/// Reads and parses a checkpoint file; throws CheckpointError when the
/// file cannot be opened.
[[nodiscard]] CampaignCheckpoint load_checkpoint(const std::string& path);

/// Folds shard checkpoints of one campaign into the canonical result.
/// All headers must agree on the campaign identity (shards may differ);
/// duplicate cells must agree exactly; every cell of the grid must be
/// present. The result is byte-identical to a single uninterrupted run.
[[nodiscard]] CampaignResult merge_checkpoints(
    std::vector<CampaignCheckpoint> shards);

}  // namespace gridsub::exp
