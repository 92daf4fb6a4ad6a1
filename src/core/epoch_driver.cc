#include "core/epoch_driver.h"

#include "algos/bfs.h"
#include "algos/pagerank_delta.h"
#include "algos/sssp.h"
#include "algos/wcc.h"
#include "util/string_util.h"

namespace hybridgraph {

namespace {

// Epoch cells: uint64_t as %llu, double as %.6f, bool as 0/1 in CSV and
// true/false in JSON.
std::string EpochCell(uint64_t v, bool) {
  return StringFormat("%llu", static_cast<unsigned long long>(v));
}
std::string EpochCell(double v, bool) { return StringFormat("%.6f", v); }
std::string EpochCell(bool v, bool json) {
  if (json) return v ? "true" : "false";
  return v ? "1" : "0";
}

}  // namespace

std::string EpochMetricsCsvHeader() {
  return JoinColumns(EpochMetrics{}, ",", [](const char* name, const auto&) {
    return std::string(name);
  });
}

std::string EpochMetricsCsvRow(const EpochMetrics& m) {
  return JoinColumns(m, ",", [](const char*, const auto& v) {
    return EpochCell(v, false);
  });
}

std::string EpochMetricsJson(const std::vector<EpochMetrics>& all) {
  std::string out = "[\n";
  for (size_t i = 0; i < all.size(); ++i) {
    out += "  {";
    out += JoinColumns(all[i], ", ", [](const char* name, const auto& v) {
      return StringFormat("\"%s\": ", name) + EpochCell(v, true);
    });
    out += i + 1 < all.size() ? "},\n" : "}\n";
  }
  return out + "]";
}

Result<std::unique_ptr<AnyEpochEngine>> MakeEpochEngine(const JobConfig& config,
                                                        const EpochAlgoSpec& spec) {
  switch (config.mode) {
    case EngineMode::kPush:
    case EngineMode::kPushM:
    case EngineMode::kBPull:
    case EngineMode::kHybrid:
    case EngineMode::kGraphHp:
      break;
    default:
      return Status::InvalidArgument(
          "streaming epochs require a block-centric mode "
          "(push, pushM, bpull, hybrid or graphhp)");
  }
  if (spec.name == "pagerank-delta") {
    PageRankDeltaProgram p;
    p.damping = spec.damping;
    p.tolerance = spec.tolerance;
    return std::unique_ptr<AnyEpochEngine>(
        new EpochEngine<PageRankDeltaProgram>(
            config, p, EpochEngine<PageRankDeltaProgram>::Policy::kSeedAll));
  }
  if (spec.name == "sssp") {
    SsspProgram p;
    p.source = spec.source;
    return std::unique_ptr<AnyEpochEngine>(new EpochEngine<SsspProgram>(
        config, p, EpochEngine<SsspProgram>::Policy::kMonotoneInserts));
  }
  if (spec.name == "bfs") {
    BfsProgram p;
    p.source = spec.source;
    return std::unique_ptr<AnyEpochEngine>(new EpochEngine<BfsProgram>(
        config, p, EpochEngine<BfsProgram>::Policy::kMonotoneInserts));
  }
  if (spec.name == "wcc") {
    return std::unique_ptr<AnyEpochEngine>(new EpochEngine<WccProgram>(
        config, WccProgram{},
        EpochEngine<WccProgram>::Policy::kMonotoneInserts));
  }
  return Status::InvalidArgument("unknown epoch algorithm: " + spec.name);
}

}  // namespace hybridgraph
