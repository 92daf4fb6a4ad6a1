// Bit-exact pin of the shared block-path kernels (push produce, Pull-Respond,
// GraphHP sub-iterations): every modeled SuperstepMetrics column, summed over
// the run, plus the superstep count, the per-superstep production modes and
// a fingerprint of the final vertex values, for each block mode x
// {PageRank, SSSP} x {skew knobs off, on} on one seeded R-MAT graph with a
// limited B_i (so push spills and hybrid switches).
//
// The goldens are the values the engine produced before the produce and
// Pull-Respond loops were merged into BlockPathBase. A refactor of those
// kernels must leave every line unchanged: counters increment and cpu_seconds
// terms add in the same order, so even the floating-point sums are equal.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "core/engine.h"
#include "graph/generator.h"
#include "util/string_util.h"

namespace hybridgraph {
namespace {

const std::pair<const char*, uint64_t SuperstepMetrics::*> kCountColumns[] = {
    {"active", &SuperstepMetrics::active_vertices},
    {"responding", &SuperstepMetrics::responding_vertices},
    {"msgs", &SuperstepMetrics::messages_produced},
    {"wire", &SuperstepMetrics::messages_on_wire},
    {"combined", &SuperstepMetrics::messages_combined},
    {"spilled", &SuperstepMetrics::messages_spilled},
    {"net", &SuperstepMetrics::net_bytes},
    {"frames", &SuperstepMetrics::net_frames},
    {"retries", &SuperstepMetrics::net_retries},
    {"timeouts", &SuperstepMetrics::net_timeouts},
    {"reconnects", &SuperstepMetrics::net_reconnects},
    {"mem", &SuperstepMetrics::memory_highwater_bytes},
    {"push_cells", &SuperstepMetrics::push_cells},
    {"pull_cells", &SuperstepMetrics::pull_cells},
    {"pulls", &SuperstepMetrics::pull_requests},
    {"edges", &SuperstepMetrics::edges_scanned},
    {"spill_buf", &SuperstepMetrics::spill_merge_buffer_bytes},
    {"spill_peak", &SuperstepMetrics::spill_peak_resident},
    {"spill_comb", &SuperstepMetrics::spill_combined},
    {"local_iters", &SuperstepMetrics::local_iters},
    {"barriers_saved", &SuperstepMetrics::barriers_saved},
    {"local_bytes", &SuperstepMetrics::local_msg_bytes},
};

const std::pair<const char*, uint64_t IoBreakdown::*> kIoColumns[] = {
    {"io_vt", &IoBreakdown::vt_bytes},
    {"io_adj", &IoBreakdown::adj_edge_bytes},
    {"io_spill_w", &IoBreakdown::msg_spill_write},
    {"io_spill_r", &IoBreakdown::msg_spill_read},
    {"io_eblock", &IoBreakdown::eblock_edge_bytes},
    {"io_aux", &IoBreakdown::fragment_aux_bytes},
    {"io_vrr", &IoBreakdown::vrr_bytes},
    {"io_other", &IoBreakdown::other_bytes},
};

const std::pair<const char*, double SuperstepMetrics::*> kRealColumns[] = {
    {"cpu_s", &SuperstepMetrics::cpu_seconds},
    {"io_s", &SuperstepMetrics::io_seconds},
    {"net_s", &SuperstepMetrics::net_seconds},
    {"block_s", &SuperstepMetrics::blocking_seconds},
    {"step_s", &SuperstepMetrics::superstep_seconds},
    {"msg_imb", &SuperstepMetrics::msg_imbalance},
    {"edge_imb", &SuperstepMetrics::edge_imbalance},
    {"agg", &SuperstepMetrics::aggregate},
    {"q_t", &SuperstepMetrics::q_t},
    {"p_mco", &SuperstepMetrics::predicted_mco},
    {"p_push", &SuperstepMetrics::predicted_cio_push},
    {"p_bpull", &SuperstepMetrics::predicted_cio_bpull},
    {"a_mco", &SuperstepMetrics::actual_mco},
    {"a_push", &SuperstepMetrics::actual_cio_push},
    {"a_bpull", &SuperstepMetrics::actual_cio_bpull},
};

/// FNV-1a over the raw value bytes: any bit of any final value moves it.
template <typename Value>
uint64_t Fingerprint(const std::vector<Value>& values) {
  uint64_t h = 1469598103934665603ull;
  for (const Value& v : values) {
    uint8_t bytes[sizeof(Value)];
    std::memcpy(bytes, &v, sizeof(Value));
    for (uint8_t b : bytes) h = (h ^ b) * 1099511628211ull;
  }
  return h;
}

/// One line per run: superstep count, mode sequence, switch count, every
/// modeled column summed in superstep order (reals at round-trip precision)
/// and the value fingerprint. Measured columns (phase walls, prefetch
/// observability) are left out.
template <typename Value>
std::string PinLine(const JobStats& stats, const std::vector<Value>& values) {
  std::string modes;
  uint64_t switches = 0;
  for (const SuperstepMetrics& m : stats.supersteps) {
    modes += StringFormat("%d", static_cast<int>(m.mode));
    switches += m.switched ? 1 : 0;
  }
  std::string out = StringFormat("steps=%d modes=%s switched=%llu",
                                 stats.supersteps_run, modes.c_str(),
                                 static_cast<unsigned long long>(switches));
  for (const auto& [name, field] : kCountColumns) {
    uint64_t sum = 0;
    for (const SuperstepMetrics& m : stats.supersteps) sum += m.*field;
    out += StringFormat(" %s=%llu", name, static_cast<unsigned long long>(sum));
  }
  for (const auto& [name, field] : kIoColumns) {
    uint64_t sum = 0;
    for (const SuperstepMetrics& m : stats.supersteps) sum += m.io.*field;
    out += StringFormat(" %s=%llu", name, static_cast<unsigned long long>(sum));
  }
  for (const auto& [name, field] : kRealColumns) {
    double sum = 0;
    for (const SuperstepMetrics& m : stats.supersteps) sum += m.*field;
    out += StringFormat(" %s=%.17g", name, sum);
  }
  out += StringFormat(" values=%016llx",
                      static_cast<unsigned long long>(Fingerprint(values)));
  return out;
}

const EdgeListGraph& PinGraph() {
  static const EdgeListGraph g = GenerateRmat(1500, 12000, /*seed=*/0x5EED);
  return g;
}

constexpr EngineMode kModes[] = {EngineMode::kPush,   EngineMode::kPushM,
                                 EngineMode::kBPull,  EngineMode::kHybrid,
                                 EngineMode::kAdaptive, EngineMode::kGraphHp};

JobConfig PinConfig(EngineMode mode, bool knobs) {
  JobConfig cfg;
  cfg.mode = mode;
  cfg.num_nodes = 4;
  cfg.num_threads = 1;
  cfg.msg_buffer_per_node = 300;  // B_i well under a superstep's messages
  cfg.max_supersteps = 12;
  if (knobs) {
    cfg.mirror_degree_threshold = 60;
    cfg.request_respond_dedup = true;
    cfg.push_sender_combining = true;
  }
  return cfg;
}

template <typename P>
std::string RunPin(EngineMode mode, bool knobs) {
  Engine<P> engine(PinConfig(mode, knobs), P{});
  const Status load = engine.Load(PinGraph());
  if (!load.ok()) return "load: " + load.ToString();
  const Status run = engine.Run();
  if (!run.ok()) return "run: " + run.ToString();
  return PinLine(engine.stats(), engine.GatherValues().ValueOrDie());
}

struct Golden {
  const char* algo;
  EngineMode mode;
  bool knobs;
  const char* line;
};

// clang-format off
const Golden kGoldens[] = {
    {"pagerank", EngineMode::kPush, false,
     "steps=12 modes=000000000000 switched=0 active=18000 responding=18000 "
     "msgs=144000 wire=144000 combined=0 spilled=129600 net=1079280 "
     "frames=144 retries=0 timeouts=0 reconnects=0 mem=13200348 "
     "push_cells=0 pull_cells=0 pulls=0 edges=144000 spill_buf=4325112 "
     "spill_peak=71687 spill_comb=0 local_iters=0 barriers_saved=0 "
     "local_bytes=0 io_vt=552000 io_adj=1242144 io_spill_w=1556928 "
     "io_spill_r=1425600 io_eblock=0 io_aux=0 io_vrr=0 io_other=1584 "
     "cpu_s=0.37651781999996065 io_s=1.242196028895787 "
     "net_s=0.0093175343104771203 block_s=0.0031141071428571424 "
     "step_s=0.97482891153719053 msg_imb=27.447999999999997 "
     "edge_imb=27.447999999999997 agg=0 q_t=1.6330080819266184 p_mco=72000 "
     "p_push=4776672 p_bpull=0 a_mco=72000 a_push=4776672 a_bpull=0 "
     "values=84a8431adfee9124"},
    {"pagerank", EngineMode::kPush, true,
     "steps=12 modes=000000000000 switched=0 active=18000 responding=18000 "
     "msgs=144000 wire=28728 combined=115272 spilled=14328 net=264468 "
     "frames=144 retries=0 timeouts=0 reconnects=0 mem=8130384 "
     "push_cells=0 pull_cells=0 pulls=0 edges=144000 spill_buf=2883408 "
     "spill_peak=6732 spill_comb=0 local_iters=0 barriers_saved=0 "
     "local_bytes=0 io_vt=552000 io_adj=1242144 io_spill_w=172992 "
     "io_spill_r=157608 io_eblock=0 io_aux=0 io_vrr=0 io_other=968 "
     "cpu_s=0.061647419999998447 io_s=0.14181323364839105 "
     "net_s=0.0023587090628487727 block_s=0.0016883346993582587 "
     "step_s=0.1035551509878382 msg_imb=27.447999999999997 "
     "edge_imb=27.447999999999997 agg=0 q_t=1.6330080819266184 p_mco=72000 "
     "p_push=2124744 p_bpull=0 a_mco=72000 a_push=2124744 a_bpull=0 "
     "values=cb04cde729a839f4"},
    {"pagerank", EngineMode::kPushM, false,
     "steps=12 modes=111111111111 switched=0 active=18000 responding=18000 "
     "msgs=144000 wire=144000 combined=0 spilled=264 net=1079280 "
     "frames=144 retries=0 timeouts=0 reconnects=0 mem=4068492 "
     "push_cells=0 pull_cells=0 pulls=0 edges=144000 spill_buf=3604260 "
     "spill_peak=253 spill_comb=0 local_iters=0 barriers_saved=0 "
     "local_bytes=0 io_vt=552000 io_adj=1242144 io_spill_w=3648 "
     "io_spill_r=2904 io_eblock=0 io_aux=0 io_vrr=0 io_other=440 "
     "cpu_s=0.020843819999999832 io_s=0.0070733671933128732 "
     "net_s=0.0093175343104771203 block_s=0.0031141071428571424 "
     "step_s=0.016980769243919273 msg_imb=27.447999999999997 "
     "edge_imb=27.447999999999997 agg=0 q_t=1.6330080819266184 p_mco=72000 "
     "p_push=1800696 p_bpull=0 a_mco=72000 a_push=1800696 a_bpull=0 "
     "values=84a8431adfee9124"},
    {"pagerank", EngineMode::kPushM, true,
     "steps=12 modes=111111111111 switched=0 active=18000 responding=18000 "
     "msgs=144000 wire=28728 combined=115272 spilled=264 net=264468 "
     "frames=144 retries=0 timeouts=0 reconnects=0 mem=2289156 "
     "push_cells=0 pull_cells=0 pulls=0 edges=144000 spill_buf=2162556 "
     "spill_peak=253 spill_comb=0 local_iters=0 barriers_saved=0 "
     "local_bytes=0 io_vt=552000 io_adj=1242144 io_spill_w=3456 "
     "io_spill_r=2904 io_eblock=0 io_aux=0 io_vrr=0 io_other=264 "
     "cpu_s=0.022971420000001349 io_s=0.0068847233537946417 "
     "net_s=0.0023587090628487727 block_s=0.0016883346993582587 "
     "step_s=0.016593412960903303 msg_imb=27.447999999999997 "
     "edge_imb=27.447999999999997 agg=0 q_t=1.6330080819266184 p_mco=72000 "
     "p_push=1800504 p_bpull=0 a_mco=72000 a_push=1800504 a_bpull=0 "
     "values=cb04cde729a839f4"},
    {"pagerank", EngineMode::kBPull, false,
     "steps=12 modes=333333333333 switched=0 active=18000 responding=18000 "
     "msgs=132000 wire=26334 combined=105666 spilled=0 net=295251 "
     "frames=2112 retries=0 timeouts=0 reconnects=0 mem=56126 push_cells=0 "
     "pull_cells=0 pulls=1408 edges=132000 spill_buf=0 spill_peak=0 "
     "spill_comb=0 local_iters=0 barriers_saved=0 local_bytes=0 "
     "io_vt=552000 io_adj=0 io_spill_w=0 io_spill_r=0 io_eblock=1056000 "
     "io_aux=318835 io_vrr=990000 io_other=0 cpu_s=0.019097820000000057 "
     "io_s=0.097252528099786684 net_s=0.0026199817657470703 "
     "block_s=0.0078325885064261316 step_s=0.060483444248337584 "
     "msg_imb=25.160666666666664 edge_imb=25.160666666666664 agg=0 "
     "q_t=1.4070509006591068 p_mco=105666 p_push=2851200 p_bpull=2916835 "
     "a_mco=105666 a_push=2851200 a_bpull=2916835 values=cb04cde729a839f4"},
    {"pagerank", EngineMode::kBPull, true,
     "steps=12 modes=333333333333 switched=0 active=18000 responding=18000 "
     "msgs=132000 wire=26334 combined=105666 spilled=0 net=269060 "
     "frames=264 retries=0 timeouts=0 reconnects=0 mem=266424 push_cells=0 "
     "pull_cells=0 pulls=176 edges=132000 spill_buf=0 spill_peak=0 "
     "spill_comb=0 local_iters=0 barriers_saved=0 local_bytes=0 "
     "io_vt=552000 io_adj=0 io_spill_w=0 io_spill_r=0 io_eblock=1056000 "
     "io_aux=318835 io_vrr=990000 io_other=0 cpu_s=0.019097820000000057 "
     "io_s=0.097252528099786684 net_s=0.0023970603942871094 "
     "block_s=0.0016169518280029296 step_s=0.054267807569914395 "
     "msg_imb=25.160666666666664 edge_imb=25.160666666666664 agg=0 "
     "q_t=1.4070509006591068 p_mco=105666 p_push=2851200 p_bpull=2916835 "
     "a_mco=105666 a_push=2851200 a_bpull=2916835 values=cb04cde729a839f4"},
    {"pagerank", EngineMode::kHybrid, false,
     "steps=12 modes=333333333333 switched=0 active=18000 responding=18000 "
     "msgs=132000 wire=26334 combined=105666 spilled=0 net=295251 "
     "frames=2112 retries=0 timeouts=0 reconnects=0 mem=56126 push_cells=0 "
     "pull_cells=0 pulls=1408 edges=132000 spill_buf=0 spill_peak=0 "
     "spill_comb=0 local_iters=0 barriers_saved=0 local_bytes=0 "
     "io_vt=552000 io_adj=0 io_spill_w=0 io_spill_r=0 io_eblock=1056000 "
     "io_aux=318835 io_vrr=990000 io_other=0 cpu_s=0.019097820000000057 "
     "io_s=0.097252528099786684 net_s=0.0026199817657470703 "
     "block_s=0.0078325885064261316 step_s=0.060483444248337584 "
     "msg_imb=25.160666666666664 edge_imb=25.160666666666664 agg=0 "
     "q_t=1.4074457676024668 p_mco=105666 p_push=4381344 p_bpull=2916835 "
     "a_mco=105666 a_push=4381344 a_bpull=2916835 values=cb04cde729a839f4"},
    {"pagerank", EngineMode::kHybrid, true,
     "steps=12 modes=333333333333 switched=0 active=18000 responding=18000 "
     "msgs=132000 wire=26334 combined=105666 spilled=0 net=269060 "
     "frames=264 retries=0 timeouts=0 reconnects=0 mem=266424 push_cells=0 "
     "pull_cells=0 pulls=176 edges=132000 spill_buf=0 spill_peak=0 "
     "spill_comb=0 local_iters=0 barriers_saved=0 local_bytes=0 "
     "io_vt=552000 io_adj=0 io_spill_w=0 io_spill_r=0 io_eblock=1056000 "
     "io_aux=318835 io_vrr=990000 io_other=0 cpu_s=0.019097820000000057 "
     "io_s=0.097252528099786684 net_s=0.0023970603942871094 "
     "block_s=0.0016169518280029296 step_s=0.054267807569914395 "
     "msg_imb=25.160666666666664 edge_imb=25.160666666666664 agg=0 "
     "q_t=1.4074457676024668 p_mco=105666 p_push=4381344 p_bpull=2916835 "
     "a_mco=105666 a_push=4381344 a_bpull=2916835 values=cb04cde729a839f4"},
    {"pagerank", EngineMode::kAdaptive, false,
     "steps=12 modes=555555555555 switched=0 active=18000 responding=18000 "
     "msgs=132000 wire=26334 combined=105666 spilled=0 net=302451 "
     "frames=2256 retries=0 timeouts=0 reconnects=0 mem=74126 push_cells=0 "
     "pull_cells=10308 pulls=1397 edges=132000 spill_buf=0 spill_peak=0 "
     "spill_comb=0 local_iters=0 barriers_saved=0 local_bytes=0 "
     "io_vt=552000 io_adj=0 io_spill_w=0 io_spill_r=0 io_eblock=1056000 "
     "io_aux=318835 io_vrr=990000 io_other=0 cpu_s=0.019097820000000057 "
     "io_s=0.097252528099786684 net_s=0.0026812894003731859 "
     "block_s=0.0078479154150826579 step_s=0.060498771156994133 "
     "msg_imb=25.160666666666664 edge_imb=25.160666666666664 agg=0 q_t=0 "
     "p_mco=0 p_push=0 p_bpull=0 a_mco=0 a_push=0 a_bpull=0 "
     "values=cb04cde729a839f4"},
    {"pagerank", EngineMode::kAdaptive, true,
     "steps=12 modes=555555555555 switched=0 active=18000 responding=18000 "
     "msgs=132000 wire=26334 combined=105666 spilled=0 net=276260 "
     "frames=408 retries=0 timeouts=0 reconnects=0 mem=301704 push_cells=0 "
     "pull_cells=10308 pulls=176 edges=132000 spill_buf=0 spill_peak=0 "
     "spill_comb=0 local_iters=0 barriers_saved=0 local_bytes=0 "
     "io_vt=552000 io_adj=0 io_spill_w=0 io_spill_r=0 io_eblock=1056000 "
     "io_aux=318835 io_vrr=990000 io_other=0 cpu_s=0.019097820000000057 "
     "io_s=0.097252528099786684 net_s=0.0024583680289132258 "
     "block_s=0.0016322787366594592 step_s=0.054283134478570916 "
     "msg_imb=25.160666666666664 edge_imb=25.160666666666664 agg=0 q_t=0 "
     "p_mco=0 p_push=0 p_bpull=0 a_mco=0 a_push=0 a_bpull=0 "
     "values=cb04cde729a839f4"},
    {"pagerank", EngineMode::kGraphHp, false,
     "steps=12 modes=666666666666 switched=0 active=18000 responding=18000 "
     "msgs=144000 wire=144000 combined=0 spilled=129600 net=1079280 "
     "frames=144 retries=0 timeouts=0 reconnects=0 mem=13211484 "
     "push_cells=0 pull_cells=0 pulls=0 edges=144000 spill_buf=4325112 "
     "spill_peak=71687 spill_comb=0 local_iters=0 barriers_saved=0 "
     "local_bytes=0 io_vt=552000 io_adj=1242144 io_spill_w=1556928 "
     "io_spill_r=1425600 io_eblock=0 io_aux=0 io_vrr=0 io_other=1584 "
     "cpu_s=0.37651781999996065 io_s=1.242196028895787 "
     "net_s=0.0093175343104771203 block_s=0.0031141071428571424 "
     "step_s=0.97482891153719053 msg_imb=27.447999999999997 "
     "edge_imb=27.447999999999997 agg=0 q_t=1.5309379792349678 p_mco=72000 "
     "p_push=4776672 p_bpull=2867820 a_mco=72000 a_push=4776672 "
     "a_bpull=2867820 values=84a8431adfee9124"},
    {"pagerank", EngineMode::kGraphHp, true,
     "steps=12 modes=666666666666 switched=0 active=18000 responding=18000 "
     "msgs=144000 wire=28728 combined=115272 spilled=14328 net=264468 "
     "frames=144 retries=0 timeouts=0 reconnects=0 mem=8141520 "
     "push_cells=0 pull_cells=0 pulls=0 edges=144000 spill_buf=2883408 "
     "spill_peak=6732 spill_comb=0 local_iters=0 barriers_saved=0 "
     "local_bytes=0 io_vt=552000 io_adj=1242144 io_spill_w=172992 "
     "io_spill_r=157608 io_eblock=0 io_aux=0 io_vrr=0 io_other=968 "
     "cpu_s=0.061647419999998447 io_s=0.14181323364839105 "
     "net_s=0.0023587090628487727 block_s=0.0016883346993582587 "
     "step_s=0.1035551509878382 msg_imb=27.447999999999997 "
     "edge_imb=27.447999999999997 agg=0 q_t=1.5309379792349678 p_mco=72000 "
     "p_push=2124744 p_bpull=2867820 a_mco=72000 a_push=2124744 "
     "a_bpull=2867820 values=cb04cde729a839f4"},
    {"sssp", EngineMode::kPush, false,
     "steps=9 modes=000000000 switched=0 active=4098 responding=2337 "
     "msgs=26016 wire=26016 combined=0 spilled=19801 net=131310 frames=76 "
     "retries=0 timeouts=0 reconnects=0 mem=4131128 push_cells=0 "
     "pull_cells=0 pulls=0 edges=71808 spill_buf=1441792 spill_peak=12923 "
     "spill_comb=0 local_iters=0 barriers_saved=0 local_bytes=0 "
     "io_vt=230604 io_adj=619300 io_spill_w=158904 io_spill_r=158408 "
     "io_eblock=0 io_aux=0 io_vrr=0 io_other=496 "
     "cpu_s=0.064644179999997775 io_s=0.12812128616187685 "
     "net_s=0.0012363450867789133 block_s=0.0010611935806274415 "
     "step_s=0.1251935818089413 msg_imb=19.889285075694151 "
     "edge_imb=18.817853915223161 agg=0 q_t=1.7842085253088789 "
     "p_mco=97645.866544781471 p_push=5224965.6411191234 p_bpull=0 "
     "a_mco=13008 a_push=1167216 a_bpull=0 values=1f729fe0f6671099"},
    {"sssp", EngineMode::kPush, true,
     "steps=9 modes=000000000 switched=0 active=4098 responding=2337 "
     "msgs=26016 wire=7879 combined=18137 spilled=2319 net=48092 frames=76 "
     "retries=0 timeouts=0 reconnects=0 mem=1896352 push_cells=0 "
     "pull_cells=0 pulls=0 edges=71808 spill_buf=786432 spill_peak=1617 "
     "spill_comb=0 local_iters=0 barriers_saved=0 local_bytes=0 "
     "io_vt=230604 io_adj=619300 io_spill_w=18776 io_spill_r=18552 "
     "io_eblock=0 io_aux=0 io_vrr=0 io_other=224 "
     "cpu_s=0.012574260000000047 io_s=0.016662011829194565 "
     "net_s=0.00045410224369594028 block_s=0.00072374937329973497 "
     "step_s=0.019179662766374866 msg_imb=19.889285075694151 "
     "edge_imb=18.817853915223161 agg=0 q_t=1.7842085253088789 "
     "p_mco=97645.866544781471 p_push=3644433.6579966252 p_bpull=0 "
     "a_mco=13008 a_push=887232 a_bpull=0 values=1f729fe0f6671099"},
    {"sssp", EngineMode::kPushM, false,
     "steps=9 modes=111111111 switched=0 active=4098 responding=2337 "
     "msgs=26016 wire=26016 combined=0 spilled=43 net=131310 frames=76 "
     "retries=0 timeouts=0 reconnects=0 mem=1044900 push_cells=0 "
     "pull_cells=0 pulls=0 edges=71808 spill_buf=983040 spill_peak=49 "
     "spill_comb=0 local_iters=0 barriers_saved=0 local_bytes=0 "
     "io_vt=230604 io_adj=619300 io_spill_w=464 io_spill_r=344 io_eblock=0 "
     "io_aux=0 io_vrr=0 io_other=120 cpu_s=0.0053701800000000334 "
     "io_s=0.0020836205328078499 net_s=0.0012363450867789133 "
     "block_s=0.0010611935806274415 step_s=0.0046301261815026211 "
     "msg_imb=19.889285075694151 edge_imb=18.817853915223161 agg=0 "
     "q_t=1.7842085253088789 p_mco=97645.866544781471 "
     "p_push=3445092.5215894333 p_bpull=0 a_mco=13008 a_push=850712 "
     "a_bpull=0 values=1f729fe0f6671099"},
    {"sssp", EngineMode::kPushM, true,
     "steps=9 modes=111111111 switched=0 active=4098 responding=2337 "
     "msgs=26016 wire=7879 combined=18137 spilled=43 net=48092 frames=76 "
     "retries=0 timeouts=0 reconnects=0 mem=883052 push_cells=0 "
     "pull_cells=0 pulls=0 edges=71808 spill_buf=851968 spill_peak=49 "
     "spill_comb=0 local_iters=0 barriers_saved=0 local_bytes=0 "
     "io_vt=230604 io_adj=619300 io_spill_w=448 io_spill_r=344 io_eblock=0 "
     "io_aux=0 io_vrr=0 io_other=104 cpu_s=0.0057462600000001123 "
     "io_s=0.0020678997889927455 net_s=0.00045410224369594028 "
     "block_s=0.00072374937329973497 step_s=0.0044980945290703182 "
     "msg_imb=19.889285075694151 edge_imb=18.817853915223161 agg=0 "
     "q_t=1.7842085253088789 p_mco=97645.866544781471 "
     "p_push=3444904.8592016008 p_bpull=0 a_mco=13008 a_push=850696 "
     "a_bpull=0 values=1f729fe0f6671099"},
    {"sssp", EngineMode::kBPull, false,
     "steps=9 modes=333333333 switched=0 active=4098 responding=2337 "
     "msgs=26016 wire=7879 combined=18137 spilled=0 net=78147 frames=1536 "
     "retries=0 timeouts=0 reconnects=0 mem=21353 push_cells=0 "
     "pull_cells=0 pulls=1024 edges=71808 spill_buf=0 spill_peak=0 "
     "spill_comb=0 local_iters=0 barriers_saved=0 local_bytes=0 "
     "io_vt=230604 io_adj=0 io_spill_w=0 io_spill_r=0 io_eblock=574464 "
     "io_aux=173818 io_vrr=149640 io_other=0 cpu_s=0.0052411799999999825 "
     "io_s=0.020485790510631742 net_s=0.00071500028882707861 "
     "block_s=0.0053377324243818009 step_s=0.017191534048658069 "
     "msg_imb=19.889285075694151 edge_imb=18.817853915223161 agg=0 "
     "q_t=0.65454854819104236 p_mco=55526.54161466872 "
     "p_push=910467.76034807088 p_bpull=1128526 a_mco=18137 a_push=310688 "
     "a_bpull=1128526 values=1f729fe0f6671099"},
    {"sssp", EngineMode::kBPull, true,
     "steps=9 modes=333333333 switched=0 active=4098 responding=2337 "
     "msgs=26016 wire=7879 combined=18137 spilled=0 net=59059 frames=192 "
     "retries=0 timeouts=0 reconnects=0 mem=67731 push_cells=0 "
     "pull_cells=0 pulls=128 edges=71808 spill_buf=0 spill_peak=0 "
     "spill_comb=0 local_iters=0 barriers_saved=0 local_bytes=0 "
     "io_vt=230604 io_adj=0 io_spill_w=0 io_spill_r=0 io_eblock=574464 "
     "io_aux=173818 io_vrr=149640 io_other=0 cpu_s=0.0052411799999999825 "
     "io_s=0.020485790510631742 net_s=0.00055248396737234931 "
     "block_s=0.00081204972163609096 step_s=0.012670934770616775 "
     "msg_imb=19.889285075694151 edge_imb=18.817853915223161 agg=0 "
     "q_t=0.65454854819104236 p_mco=55526.54161466872 "
     "p_push=910467.76034807088 p_bpull=1128526 a_mco=18137 a_push=310688 "
     "a_bpull=1128526 values=1f729fe0f6671099"},
    {"sssp", EngineMode::kHybrid, false,
     "steps=9 modes=003333000 switched=2 active=4098 responding=2337 "
     "msgs=26016 wire=14296 combined=11720 spilled=6883 net=92066 "
     "frames=796 retries=0 timeouts=0 reconnects=0 mem=1228783 "
     "push_cells=0 pull_cells=0 pulls=512 edges=71808 spill_buf=393216 "
     "spill_peak=4306 spill_comb=0 local_iters=0 barriers_saved=0 "
     "local_bytes=0 io_vt=230604 io_adj=205252 io_spill_w=55208 "
     "io_spill_r=55064 io_eblock=384000 io_aux=115940 io_vrr=110700 "
     "io_other=144 cpu_s=0.025890180000000186 io_s=0.059512140409923739 "
     "net_s=0.00086272614342825752 block_s=0.0031315433474949431 "
     "step_s=0.052640966804722598 msg_imb=18.173433264511168 "
     "edge_imb=17.078569948059481 agg=0 q_t=1.2224868802045723 "
     "p_mco=69971.569760768674 p_push=3476368.6749468651 "
     "p_bpull=928523.39407955599 a_mco=16357.911154808722 a_push=1034272 "
     "a_bpull=928523.39407955599 values=1f729fe0f6671099"},
    {"sssp", EngineMode::kHybrid, true,
     "steps=9 modes=003333000 switched=2 active=4098 responding=2337 "
     "msgs=26016 wire=7879 combined=18137 spilled=777 net=54593 frames=124 "
     "retries=0 timeouts=0 reconnects=0 mem=725708 push_cells=0 "
     "pull_cells=0 pulls=64 edges=71808 spill_buf=196608 spill_peak=471 "
     "spill_comb=0 local_iters=0 barriers_saved=0 local_bytes=0 "
     "io_vt=230604 io_adj=205252 io_spill_w=6296 io_spill_r=6216 "
     "io_eblock=384000 io_aux=115940 io_vrr=110700 io_other=80 "
     "cpu_s=0.0077007450000000513 io_s=0.0206128265671503 "
     "net_s=0.00051212310791015636 block_s=0.00074008104596819211 "
     "step_s=0.014422004972294455 msg_imb=18.173433264511168 "
     "edge_imb=17.078569948059481 agg=0 q_t=1.2224868802045723 "
     "p_mco=69971.569760768674 p_push=2693696.6749468651 "
     "p_bpull=928523.39407955599 a_mco=16357.911154808722 a_push=985160 "
     "a_bpull=928523.39407955599 values=1f729fe0f6671099"},
    {"sssp", EngineMode::kAdaptive, false,
     "steps=9 modes=555555555 switched=0 active=4098 responding=2337 "
     "msgs=26016 wire=7953 combined=18063 spilled=0 net=76073 frames=1251 "
     "retries=0 timeouts=0 reconnects=0 mem=30595 push_cells=956 "
     "pull_cells=4181 pulls=741 edges=71808 spill_buf=0 spill_peak=0 "
     "spill_comb=0 local_iters=0 barriers_saved=0 local_bytes=0 "
     "io_vt=230604 io_adj=115729 io_spill_w=0 io_spill_r=0 "
     "io_eblock=467184 io_aux=141846 io_vrr=147720 io_other=0 "
     "cpu_s=0.0052411799999999842 io_s=0.0202377023987543 "
     "net_s=0.00069890703473772325 block_s=0.0048880284509931291 "
     "step_s=0.016549158930547776 msg_imb=16.971942760230082 "
     "edge_imb=16.705221436227589 agg=0 q_t=0 p_mco=0 p_push=0 p_bpull=0 "
     "a_mco=0 a_push=0 a_bpull=0 values=1f729fe0f6671099"},
    {"sssp", EngineMode::kAdaptive, true,
     "steps=9 modes=555555555 switched=0 active=4098 responding=2337 "
     "msgs=26016 wire=7927 combined=18089 spilled=0 net=62105 frames=275 "
     "retries=0 timeouts=0 reconnects=0 mem=82547 push_cells=956 "
     "pull_cells=4181 pulls=96 edges=71808 spill_buf=0 spill_peak=0 "
     "spill_comb=0 local_iters=0 barriers_saved=0 local_bytes=0 "
     "io_vt=230604 io_adj=115729 io_spill_w=0 io_spill_r=0 "
     "io_eblock=467184 io_aux=141846 io_vrr=147720 io_other=0 "
     "cpu_s=0.0052433549999999851 io_s=0.0202377023987543 "
     "net_s=0.00057888882500784747 block_s=0.00099516074687412822 "
     "step_s=0.012663290129532559 msg_imb=16.971942760230082 "
     "edge_imb=16.705221436227589 agg=0 q_t=0 p_mco=0 p_push=0 p_bpull=0 "
     "a_mco=0 a_push=0 a_bpull=0 values=1f729fe0f6671099"},
    {"sssp", EngineMode::kGraphHp, false,
     "steps=9 modes=666666666 switched=0 active=4098 responding=1944 "
     "msgs=24059 wire=24059 combined=0 spilled=19798 net=131310 frames=76 "
     "retries=0 timeouts=0 reconnects=0 mem=5318088 push_cells=0 "
     "pull_cells=0 pulls=0 edges=72108 spill_buf=2621440 spill_peak=12923 "
     "spill_comb=0 local_iters=3 barriers_saved=3 local_bytes=15656 "
     "io_vt=230604 io_adj=604638 io_spill_w=159024 io_spill_r=158384 "
     "io_eblock=45400 io_aux=6169 io_vrr=0 io_other=640 "
     "cpu_s=0.064642679999997815 io_s=0.12825542415982205 "
     "net_s=0.0012363450867789133 block_s=0.0010611935806274415 "
     "step_s=0.12537554126939057 msg_imb=19.453928204279162 "
     "edge_imb=21.062536419299889 agg=0 q_t=1.5062138986333777 "
     "p_mco=83481.980119852626 p_push=4815997.8986182157 "
     "p_bpull=943590.81498612382 a_mco=12029.5 a_push=1152650 "
     "a_bpull=943590.81498612382 values=1f729fe0f6671099"},
    {"sssp", EngineMode::kGraphHp, true,
     "steps=9 modes=666666666 switched=0 active=4098 responding=1944 "
     "msgs=24059 wire=7744 combined=16315 spilled=4030 net=48092 frames=76 "
     "retries=0 timeouts=0 reconnects=0 mem=3478136 push_cells=0 "
     "pull_cells=0 pulls=0 edges=72108 spill_buf=2293760 spill_peak=3198 "
     "spill_comb=0 local_iters=3 barriers_saved=3 local_bytes=15656 "
     "io_vt=230604 io_adj=604638 io_spill_w=32656 io_spill_r=32240 "
     "io_eblock=45400 io_aux=6169 io_vrr=0 io_other=416 "
     "cpu_s=0.017685674999999724 io_s=0.027744989508129304 "
     "net_s=0.00045410224369594028 block_s=0.00072374937329973497 "
     "step_s=0.034173677072201383 msg_imb=19.453928204279162 "
     "edge_imb=21.062536419299889 agg=0 q_t=1.5062138986333777 "
     "p_mco=83481.980119852626 p_push=3546380.1632787385 "
     "p_bpull=943590.81498612382 a_mco=12029.5 a_push=900138 "
     "a_bpull=943590.81498612382 values=1f729fe0f6671099"},
};
// clang-format on

template <typename P>
void CheckAlgo(const char* algo) {
  for (const EngineMode mode : kModes) {
    for (const bool knobs : {false, true}) {
      const std::string got = RunPin<P>(mode, knobs);
      const Golden* want = nullptr;
      for (const Golden& g : kGoldens) {
        if (std::string(g.algo) == algo && g.mode == mode && g.knobs == knobs) {
          want = &g;
        }
      }
      const std::string tag = StringFormat("%s %s knobs=%d", algo,
                                           EngineModeName(mode), knobs ? 1 : 0);
      if (want == nullptr) {
        ADD_FAILURE() << "no golden for " << tag << "\n  got: " << got;
        continue;
      }
      EXPECT_EQ(got, want->line) << tag;
    }
  }
}

TEST(KernelPin, PageRankModeledColumnsUnchanged) {
  CheckAlgo<PageRankProgram>("pagerank");
}

TEST(KernelPin, SsspModeledColumnsUnchanged) { CheckAlgo<SsspProgram>("sssp"); }

}  // namespace
}  // namespace hybridgraph
