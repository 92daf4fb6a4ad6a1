#include "core/job_config.h"

#include "util/failpoint.h"
#include "util/string_util.h"

namespace hybridgraph {

namespace {

/// The single mode table: canonical name first, aliases after. Name lookup,
/// parsing and the enumerated error/usage text all derive from this, so a
/// new EngineMode appears everywhere by adding one row.
struct ModeEntry {
  EngineMode mode;
  const char* name;    ///< canonical (printed) name
  const char* alias;   ///< extra parseable spelling (nullptr = none)
  /// Runs streaming epochs (core/epoch_driver.h): the block-centric modes
  /// the epoch services rewind. v-pull keeps its own vertex-cut stores;
  /// adaptive is not wired to the epoch services.
  bool streamable;
};

constexpr ModeEntry kModeTable[] = {
    {EngineMode::kPush, "push", nullptr, true},
    {EngineMode::kPushM, "pushM", "pushm", true},
    {EngineMode::kVPull, "pull", "vpull", false},
    {EngineMode::kBPull, "b-pull", "bpull", true},
    {EngineMode::kHybrid, "hybrid", nullptr, true},
    {EngineMode::kAdaptive, "adaptive", nullptr, false},
    {EngineMode::kGraphHp, "graphhp", "ghp", true},
};

static_assert(sizeof(kModeTable) / sizeof(kModeTable[0]) == kNumEngineModes,
              "every EngineMode needs a row in kModeTable");

}  // namespace

const char* EngineModeName(EngineMode mode) {
  for (const ModeEntry& e : kModeTable) {
    if (e.mode == mode) return e.name;
  }
  return "?";
}

Status ParseEngineMode(const std::string& name, EngineMode* out) {
  for (const ModeEntry& e : kModeTable) {
    if (name == e.name || (e.alias != nullptr && name == e.alias)) {
      *out = e.mode;
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown mode '" + name +
                                 "' (known modes: " + EngineModeNameList() +
                                 ")");
}

bool EngineModeStreamable(EngineMode mode) {
  for (const ModeEntry& e : kModeTable) {
    if (e.mode == mode) return e.streamable;
  }
  return false;
}

std::string EngineModeNameList(bool streamable_only) {
  std::string out;
  for (const ModeEntry& e : kModeTable) {
    if (streamable_only && !e.streamable) continue;
    if (!out.empty()) out += "|";
    out += e.name;
  }
  return out;
}

Status JobConfig::Validate(const JobFacts& facts) const {
  if (num_nodes == 0) {
    return Status::InvalidArgument("num_nodes must be at least 1");
  }
  if (num_threads > 1024) {
    return Status::InvalidArgument(StringFormat(
        "num_threads = %u is not a plausible thread count (max 1024, 0 = "
        "hardware concurrency)",
        num_threads));
  }
  if (sending_threshold_bytes == 0) {
    return Status::InvalidArgument(
        "sending_threshold_bytes must be nonzero (every staged message would "
        "flush as its own network package)");
  }
  if (msg_buffer_per_node == 0) {
    return Status::InvalidArgument(
        "msg_buffer_per_node must be nonzero (B_i appears as a divisor in "
        "the Vblock derivation, Eq. 5/6)");
  }
  if (io.spill_merge_buffer_bytes == 0) {
    return Status::InvalidArgument(
        "io.spill_merge_buffer_bytes must be nonzero (the streaming spill "
        "merge needs at least one record of buffer per run)");
  }
  if (io.prefetch_depth > 0 && io.prefetch_budget_bytes == 0) {
    return Status::InvalidArgument(
        "io.prefetch_budget_bytes must be nonzero when prefetching is on "
        "(io.prefetch_depth > 0)");
  }
  if (io.prefetch_depth > 0 && io.prefetch_threads == 0) {
    return Status::InvalidArgument(
        "io.prefetch_threads must be nonzero when prefetching is on "
        "(io.prefetch_depth > 0)");
  }
  if (io.prefetch_threads > 256) {
    return Status::InvalidArgument(StringFormat(
        "io.prefetch_threads = %u is not a plausible I/O pool width (max 256)",
        io.prefetch_threads));
  }
  if (max_supersteps < 0) {
    return Status::InvalidArgument("max_supersteps must be >= 0");
  }
  if (!(adaptive_alpha > 0) || !(adaptive_beta > 0)) {
    return Status::InvalidArgument(
        "adaptive_alpha and adaptive_beta must be positive (α weights pushed "
        "bytes, β gates pull density and the frontier bitmap threshold)");
  }
  if (switch_interval < 1) {
    return Status::InvalidArgument("switch_interval must be >= 1");
  }
  if (ghp_max_local_iters < 1) {
    return Status::InvalidArgument(
        "ghp_max_local_iters must be >= 1 (the first local sweep is the "
        "global Phase B itself)");
  }
  if (mode == EngineMode::kPushM && !facts.combinable_messages) {
    return Status::InvalidArgument(
        "pushM (online computing) requires combinable messages");
  }
  if (mirror_degree_threshold > 0 && !facts.combinable_messages) {
    return Status::InvalidArgument(
        "mirror_degree_threshold requires combinable messages (mirroring "
        "folds all sends to a hot vertex into one accumulator slot)");
  }
  if (facts.num_vertices < num_nodes) {
    return Status::InvalidArgument("fewer vertices than nodes");
  }
  if (tcp_max_retries > 100) {
    return Status::InvalidArgument(StringFormat(
        "tcp_max_retries = %u is not a plausible retry bound (max 100)",
        tcp_max_retries));
  }
  if (tcp_backoff_max_us < tcp_backoff_base_us) {
    return Status::InvalidArgument(
        "tcp_backoff_max_us must be >= tcp_backoff_base_us");
  }
  if (tcp_max_frame_bytes < 1024) {
    return Status::InvalidArgument(
        "tcp_max_frame_bytes must be at least 1KiB (a frame header plus a "
        "minimal batch)");
  }
  if (!failpoints.empty()) {
    std::vector<std::pair<std::string, FailPointSpec>> parsed;
    Status st = ParseFailPointList(failpoints, &parsed);
    if (!st.ok()) {
      return Status::InvalidArgument("bad failpoints config: " + st.message());
    }
  }
  return Status::OK();
}

}  // namespace hybridgraph
