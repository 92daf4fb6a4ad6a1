#include "core/run_metrics.h"

#include <cstring>

#include "util/string_util.h"

namespace hybridgraph {

// EngineModeName lives in job_config.cc next to the mode table so the name,
// the parser and the enumerated error text can never drift apart.

std::vector<std::string> ModeledColumnDiffs(const SuperstepMetrics& a,
                                            const SuperstepMetrics& b) {
  std::vector<std::string> diffs;
  SuperstepMetrics::ForEachColumn(
      [&](const char* name, MetricClass cls, const auto& x, const auto& y) {
        // Scalars only, so the object bytes are exactly the value bits.
        if (cls == MetricClass::kModeled && std::memcmp(&x, &y, sizeof x) != 0)
          diffs.emplace_back(name);
      },
      a, b);
  return diffs;
}

std::string JobStats::Summary() const {
  return StringFormat(
      "supersteps=%d converged=%d modeled=%.3fs io=%s net=%s msgs=%llu",
      supersteps_run, converged ? 1 : 0, modeled_seconds,
      HumanBytes(TotalIoBytes()).c_str(), HumanBytes(TotalNetBytes()).c_str(),
      static_cast<unsigned long long>(TotalMessages()));
}

}  // namespace hybridgraph
