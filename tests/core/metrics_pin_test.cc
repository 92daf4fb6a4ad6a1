// Byte-level pins of the metrics writers. Every field of one SuperstepMetrics
// and one EpochMetrics record is filled by hand with a distinct value
// (including awkward doubles), and the exact text of the superstep CSV, the
// epoch CSV header/row and the epoch JSON is compared against goldens.
//
// Superstep CSV lines are checked as "begins with the golden line": the
// schema may append new columns at the end of every line, but an existing
// column may never move, rename or change its formatting.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/epoch_driver.h"
#include "core/metrics_csv.h"
#include "util/string_util.h"

namespace hybridgraph {
namespace {

SuperstepMetrics PinnedSuperstep() {
  SuperstepMetrics s;
  s.superstep = 7;
  s.mode = EngineMode::kAdaptive;
  s.switched = true;
  s.active_vertices = 101;
  s.responding_vertices = 102;
  s.messages_produced = 103;
  s.messages_on_wire = 104;
  s.messages_combined = 105;
  s.messages_spilled = 106;
  s.io.vt_bytes = 201;
  s.io.adj_edge_bytes = 202;
  s.io.msg_spill_write = 203;
  s.io.msg_spill_read = 204;
  s.io.eblock_edge_bytes = 205;
  s.io.fragment_aux_bytes = 206;
  s.io.vrr_bytes = 207;
  s.io.other_bytes = 208;
  s.net_bytes = 12345678901234567890ull;
  s.net_frames = 302;
  s.cpu_seconds = 0.1;
  s.io_seconds = 1e-300;
  s.net_seconds = 12345.678901234;
  s.blocking_seconds = 2.5e-7;
  s.superstep_seconds = 3.0;
  s.phase_consume_wall_s = 1.0 / 3.0;
  s.phase_update_wall_s = 1e22;
  s.phase_drain_wall_s = 6.02214076e23;
  s.prefetch_scheduled = 401;
  s.prefetch_hits = 402;
  s.prefetch_misses = 403;
  s.prefetch_hit_bytes = 404;
  s.memory_highwater_bytes = 501;
  s.push_cells = 601;
  s.pull_cells = 602;
  s.pull_requests = 603;
  s.edges_scanned = 604;
  s.msg_imbalance = 1.75;
  s.edge_imbalance = 2.0 / 3.0;
  s.spill_merge_buffer_bytes = 701;
  s.spill_peak_resident = 702;
  s.spill_combined = 703;
  s.local_iters = 801;
  s.barriers_saved = 802;
  s.local_msg_bytes = 803;
  s.net_retries = 901;
  s.net_timeouts = 902;
  s.net_reconnects = 903;
  s.aggregate = -4.5e-5;
  s.q_t = 123456789.125;
  s.predicted_mco = 0.2;
  s.predicted_cio_push = 3e10;
  s.predicted_cio_bpull = 4.25;
  s.actual_mco = 5e-5;
  s.actual_cio_push = 6.5;
  s.actual_cio_bpull = 7e7;
  return s;
}

EpochMetrics PinnedEpoch() {
  EpochMetrics m;
  m.epoch = 3;
  m.timestamp = 1700000000123ull;
  m.batch_deltas = 64;
  m.inserts = 48;
  m.deletes = 16;
  m.touched_vertices = 77;
  m.warm = true;
  m.supersteps = 5;
  m.ingest_wall_s = 0.1;
  m.converge_wall_s = 1e-300;
  m.modeled_seconds = 12345.678901234;
  m.read_bytes = 9000000001ull;
  m.write_bytes = 9000000002ull;
  m.net_bytes = 9000000003ull;
  m.delta_runs = 11;
  m.delta_bytes = 12;
  return m;
}

TEST(MetricsPin, SuperstepCsvLinesBeginWithGolden) {
  JobStats stats;
  stats.supersteps.push_back(PinnedSuperstep());
  SuperstepMetrics second = PinnedSuperstep();
  second.superstep = 8;
  second.mode = EngineMode::kVPull;
  second.switched = false;
  stats.supersteps.push_back(second);

  const std::vector<std::string> golden = {
      "superstep,mode,switched,active,responding,messages,messages_on_wire,"
      "messages_combined,messages_spilled,io_vt,io_adj,io_spill_write,"
      "io_spill_read,io_eblock,io_fragment_aux,io_vrr,io_other,io_total,"
      "net_bytes,net_frames,net_retries,net_timeouts,net_reconnects,"
      "cpu_s,io_s,net_s,blocking_s,superstep_s,"
      "memory_bytes,spill_buffer_bytes,spill_resident_peak,spill_combined,"
      "prefetch_scheduled,prefetch_hits,prefetch_misses,prefetch_hit_bytes,"
      "aggregate,q_t,phase_consume_s,phase_update_s,phase_drain_s,"
      "push_cells,pull_cells,pull_requests,edges_scanned,msg_imbalance,"
      "edge_imbalance,local_iters,barriers_saved,local_msg_bytes",
      "7,adaptive,1,101,102,103,104,105,106,201,202,203,204,205,206,207,208,"
      "1636,12345678901234567890,302,901,902,903,0.1,1e-300,12345.6789,"
      "2.5e-07,3,501,701,702,703,401,402,403,404,-4.5e-05,123456789,"
      "0.333333333,1e+22,6.02214076e+23,601,602,603,604,1.75,0.666666667,"
      "801,802,803",
      "8,pull,0,101,102,103,104,105,106,201,202,203,204,205,206,207,208,"
      "1636,12345678901234567890,302,901,902,903,0.1,1e-300,12345.6789,"
      "2.5e-07,3,501,701,702,703,401,402,403,404,-4.5e-05,123456789,"
      "0.333333333,1e+22,6.02214076e+23,601,602,603,604,1.75,0.666666667,"
      "801,802,803",
  };
  const std::string csv = SuperstepMetricsCsv(stats);
  ASSERT_FALSE(csv.empty());
  EXPECT_EQ(csv.back(), '\n');
  const auto lines = SplitString(TrimString(csv), '\n');
  ASSERT_EQ(lines.size(), golden.size());
  for (size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(lines[i].rfind(golden[i], 0), 0u)
        << "line " << i << "\n  got:    " << lines[i]
        << "\n  golden: " << golden[i];
    // Anything appended must start a new column, never extend the last one.
    if (lines[i].size() > golden[i].size()) {
      EXPECT_EQ(lines[i][golden[i].size()], ',') << "line " << i;
    }
  }
}

TEST(MetricsPin, EpochCsvHeaderAndRowExact) {
  EXPECT_EQ(EpochMetricsCsvHeader(),
            "epoch,timestamp,batch_deltas,inserts,deletes,touched_vertices,"
            "warm,supersteps,ingest_wall_s,converge_wall_s,modeled_seconds,"
            "read_bytes,write_bytes,net_bytes,delta_runs,delta_bytes");
  EXPECT_EQ(EpochMetricsCsvRow(PinnedEpoch()),
            "3,1700000000123,64,48,16,77,1,5,0.100000,0.000000,"
            "12345.678901,9000000001,9000000002,9000000003,11,12");
}

TEST(MetricsPin, EpochJsonExact) {
  EpochMetrics cold = PinnedEpoch();
  cold.epoch = 4;
  cold.warm = false;
  EXPECT_EQ(
      EpochMetricsJson({PinnedEpoch(), cold}),
      "[\n"
      "  {\"epoch\": 3, \"timestamp\": 1700000000123, \"batch_deltas\": 64, "
      "\"inserts\": 48, \"deletes\": 16, \"touched_vertices\": 77, "
      "\"warm\": true, \"supersteps\": 5, \"ingest_wall_s\": 0.100000, "
      "\"converge_wall_s\": 0.000000, \"modeled_seconds\": 12345.678901, "
      "\"read_bytes\": 9000000001, \"write_bytes\": 9000000002, "
      "\"net_bytes\": 9000000003, \"delta_runs\": 11, \"delta_bytes\": 12},\n"
      "  {\"epoch\": 4, \"timestamp\": 1700000000123, \"batch_deltas\": 64, "
      "\"inserts\": 48, \"deletes\": 16, \"touched_vertices\": 77, "
      "\"warm\": false, \"supersteps\": 5, \"ingest_wall_s\": 0.100000, "
      "\"converge_wall_s\": 0.000000, \"modeled_seconds\": 12345.678901, "
      "\"read_bytes\": 9000000001, \"write_bytes\": 9000000002, "
      "\"net_bytes\": 9000000003, \"delta_runs\": 11, \"delta_bytes\": 12}\n"
      "]");
  EXPECT_EQ(EpochMetricsJson({}), "[\n]");
}

}  // namespace
}  // namespace hybridgraph
