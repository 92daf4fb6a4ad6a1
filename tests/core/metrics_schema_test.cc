// The metrics schema (core/run_metrics.h) is the single definition of every
// column: these tests check that the CSV, the determinism comparator and
// scripts/diff_metrics.py all follow it, generically over the column lists,
// so a newly added column is covered without touching this file.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "core/epoch_driver.h"
#include "core/metrics_csv.h"
#include "util/string_util.h"

namespace hybridgraph {
namespace {

// Gives column value `v` a value derived from `k` (distinct per column).
template <typename T>
void SetFrom(T& v, int k) {
  if constexpr (std::is_same_v<T, bool>) {
    v = k % 2 == 1;
  } else if constexpr (std::is_same_v<T, EngineMode>) {
    v = static_cast<EngineMode>(k % 7);
  } else if constexpr (std::is_floating_point_v<T>) {
    v = k + 0.25;
  } else {
    v = static_cast<T>(k);
  }
}

// Changes `v` to a different value of the same type.
template <typename T>
void Bump(T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = !v;
  } else if constexpr (std::is_same_v<T, EngineMode>) {
    v = static_cast<EngineMode>((static_cast<int>(v) + 1) % 7);
  } else {
    v = v + 1;
  }
}

// A record with a distinct value in every column. Derived columns (io_total)
// are visited as temporaries, so writing them is a no-op.
SuperstepMetrics Distinct(int seed) {
  SuperstepMetrics m;
  int k = seed;
  SuperstepMetrics::ForEachColumn(
      [&](const char*, MetricClass, auto&& v) {
        SetFrom(v, ++k);
      },
      m);
  return m;
}

// Copy of `m` with every column of class `cls` changed.
SuperstepMetrics BumpClass(SuperstepMetrics m, MetricClass cls) {
  SuperstepMetrics::ForEachColumn(
      [&](const char*, MetricClass c, auto&& v) {
        if (c == cls) Bump(v);
      },
      m);
  return m;
}

std::vector<std::string> ColumnsOfClass(MetricClass cls) {
  std::vector<std::string> names;
  SuperstepMetrics::ForEachColumn([&](const char* name, MetricClass c) {
    if (c == cls) names.emplace_back(name);
  });
  return names;
}

TEST(MetricsSchema, ColumnsAreUniqueAndMatchTheCsvHeader) {
  std::vector<std::string> names;
  SuperstepMetrics::ForEachColumn(
      [&](const char* name, MetricClass) { names.emplace_back(name); });
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
            names.size());
  // 48 modeled members + the derived io_total; 7 measured members.
  EXPECT_EQ(ColumnsOfClass(MetricClass::kModeled).size(), 49u);
  EXPECT_EQ(ColumnsOfClass(MetricClass::kMeasured),
            (std::vector<std::string>{
                "prefetch_scheduled", "prefetch_hits", "prefetch_misses",
                "prefetch_hit_bytes", "phase_consume_s", "phase_update_s",
                "phase_drain_s"}));

  const std::string csv = SuperstepMetricsCsv(JobStats{});
  EXPECT_EQ(SplitString(TrimString(csv), ','), names);

  std::vector<std::string> epoch_names;
  EpochMetrics::ForEachColumn(
      [&](const char* name, MetricClass) { epoch_names.emplace_back(name); });
  EXPECT_EQ(SplitString(EpochMetricsCsvHeader(), ','), epoch_names);
}

TEST(MetricsSchema, IoTotalIsTheSumOfTheIoColumns) {
  IoBreakdown io;
  uint64_t sum = 0;
  int k = 0;
  IoBreakdown::ForEachColumn(
      [&](const char* name, MetricClass, auto&& v) {
        if (std::string(name) == "io_total") return;
        v = uint64_t{1} << ++k;
        sum += v;
      },
      io);
  EXPECT_EQ(io.Total(), sum);
}

TEST(MetricsSchema, ModeledColumnDiffsCoversEveryModeledColumn) {
  const SuperstepMetrics a = Distinct(0);
  EXPECT_EQ(ModeledColumnDiffs(a, a), std::vector<std::string>{});
  EXPECT_EQ(ModeledColumnDiffs(a, BumpClass(a, MetricClass::kMeasured)),
            std::vector<std::string>{});
  EXPECT_EQ(ModeledColumnDiffs(a, BumpClass(a, MetricClass::kModeled)),
            ColumnsOfClass(MetricClass::kModeled));
}

TEST(MetricsSchema, ModeledColumnDiffsComparesDoublesBitForBit) {
  SuperstepMetrics a;
  SuperstepMetrics b;
  b.q_t = -0.0;  // == 0.0, but a different bit pattern and CSV text
  EXPECT_EQ(ModeledColumnDiffs(a, b), std::vector<std::string>{"q_t"});
}

// diff_metrics.py must ignore exactly the kMeasured columns by default: it
// passes when only measured columns differ, and reports one difference per
// modeled column per row when every modeled column differs.
class DiffMetricsScript : public ::testing::Test {
 protected:
  struct Outcome {
    int exit_code = -1;
    std::string text;  ///< the script's stdout
    std::vector<std::string> lines;
  };

  Outcome Diff(const JobStats& a, const JobStats& b) {
    // Per-test file names: ctest runs the tests of this suite concurrently.
    const std::string stem =
        ::testing::TempDir() + "/hg_schema_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    const std::string pa = stem + "_a.csv";
    const std::string pb = stem + "_b.csv";
    EXPECT_TRUE(WriteSuperstepCsv(a, pa).ok());
    EXPECT_TRUE(WriteSuperstepCsv(b, pb).ok());
    const std::string cmd = std::string("python3 ") + HG_SOURCE_DIR +
                            "/scripts/diff_metrics.py " + pa + " " + pb;
    Outcome out;
    FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) return out;
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) out.text.append(buf, n);
    const int status = pclose(pipe);
    out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    out.lines = SplitString(TrimString(out.text), '\n');
    std::filesystem::remove(pa);
    std::filesystem::remove(pb);
    return out;
  }

  static JobStats TwoRows(const SuperstepMetrics& r0,
                          const SuperstepMetrics& r1) {
    JobStats s;
    s.supersteps = {r0, r1};
    return s;
  }
};

TEST_F(DiffMetricsScript, MeasuredOnlyDifferencesPass) {
  const SuperstepMetrics r0 = Distinct(0);
  const SuperstepMetrics r1 = Distinct(100);
  const Outcome out = Diff(
      TwoRows(r0, r1), TwoRows(BumpClass(r0, MetricClass::kMeasured),
                               BumpClass(r1, MetricClass::kMeasured)));
  EXPECT_EQ(out.exit_code, 0) << out.text;
}

TEST_F(DiffMetricsScript, EveryModeledDifferenceIsReportedOncePerRow) {
  const SuperstepMetrics r0 = Distinct(0);
  const SuperstepMetrics r1 = Distinct(100);
  const Outcome out = Diff(
      TwoRows(r0, r1), TwoRows(BumpClass(r0, MetricClass::kModeled),
                               BumpClass(r1, MetricClass::kModeled)));
  EXPECT_EQ(out.exit_code, 1) << out.text;
  const std::vector<std::string> modeled =
      ColumnsOfClass(MetricClass::kModeled);
  for (int row = 0; row < 2; ++row) {
    std::vector<std::string> reported;
    const std::string prefix = "row " + std::to_string(row) + ": ";
    for (const std::string& line : out.lines) {
      if (line.rfind(prefix, 0) != 0) continue;
      reported.push_back(line.substr(prefix.size(),
                                     line.find(':', prefix.size()) -
                                         prefix.size()));
    }
    EXPECT_EQ(reported, modeled) << "row " << row;
  }
}

}  // namespace
}  // namespace hybridgraph
