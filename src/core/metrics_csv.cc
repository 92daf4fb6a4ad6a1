#include "core/metrics_csv.h"

#include <fstream>

#include "util/string_util.h"

namespace hybridgraph {

namespace {

// Superstep cells: int as %d, a mode as its name, bool as 0/1, uint64_t as
// %llu, double as %.9g.
std::string Cell(int v) { return StringFormat("%d", v); }
std::string Cell(EngineMode v) { return EngineModeName(v); }
std::string Cell(bool v) { return v ? "1" : "0"; }
std::string Cell(uint64_t v) {
  return StringFormat("%llu", static_cast<unsigned long long>(v));
}
std::string Cell(double v) { return StringFormat("%.9g", v); }

}  // namespace

std::string SuperstepMetricsCsv(const JobStats& stats) {
  std::string out = JoinColumns(
      SuperstepMetrics{}, ",",
      [](const char* name, const auto&) { return std::string(name); });
  out += '\n';
  for (const auto& s : stats.supersteps) {
    out += JoinColumns(s, ",",
                       [](const char*, const auto& v) { return Cell(v); });
    out += '\n';
  }
  return out;
}

Status WriteSuperstepCsv(const JobStats& stats, const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return Status::IoError("cannot open csv for write: " + path);
  const std::string csv = SuperstepMetricsCsv(stats);
  f.write(csv.data(), static_cast<std::streamsize>(csv.size()));
  return f ? Status::OK() : Status::IoError("csv write failed: " + path);
}

}  // namespace hybridgraph
