#include "hybridgraph/any_engine.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "algos/bfs.h"
#include "algos/lpa.h"
#include "algos/pagerank.h"
#include "algos/pagerank_delta.h"
#include "algos/sa.h"
#include "algos/sssp.h"
#include "algos/wcc.h"
#include "core/engine.h"
#include "core/epoch_driver.h"
#include "net/message_codec.h"

namespace hybridgraph {

namespace {

/// Kept out of the public headers: an unqualified MaxOutDegreeVertex(graph)
/// elsewhere would otherwise find this one by argument-dependent lookup.
VertexId MaxOutDegreeVertex(const EdgeListGraph& graph) {
  const auto degrees = graph.OutDegrees();
  return static_cast<VertexId>(
      std::max_element(degrees.begin(), degrees.end()) - degrees.begin());
}

/// The epoch column of kAlgoTable (defined below).
EpochPolicy EpochPolicyOf(AlgoKind kind);

/// Owns the actual engine. `Prepare` patches the program once the graph is
/// known (source defaulting); `ToDouble` projects a value for
/// GatherValuesAsDouble().
template <typename P, typename Prepare, typename ToDouble>
class TypedEngine final : public AnyEngine {
 public:
  using Value = typename P::Value;

  TypedEngine(const JobConfig& config, AlgoKind kind, P program,
              Prepare prepare, ToDouble to_double)
      : engine_(config, std::move(program)),
        kind_(kind),
        prepare_(std::move(prepare)),
        to_double_(std::move(to_double)) {}

  Status Load(const EdgeListGraph& graph) override {
    prepare_(engine_.driver().program(), graph);
    return engine_.Load(graph);
  }

  Status Run() override { return engine_.Run(); }
  Status RunSuperstep() override { return engine_.RunSuperstep(); }
  bool converged() const override { return engine_.converged(); }
  const JobStats& stats() const override { return engine_.stats(); }

  size_t value_size() const override { return P::kValueSize; }

  Result<std::vector<uint8_t>> GatherValuesRaw() override {
    HG_ASSIGN_OR_RETURN(std::vector<Value> values, engine_.GatherValues());
    std::vector<uint8_t> out(values.size() * P::kValueSize);
    for (size_t i = 0; i < values.size(); ++i) {
      PodCodec<Value>::Encode(values[i], out.data() + i * P::kValueSize);
    }
    return out;
  }

  Result<std::vector<double>> GatherValuesAsDouble() override {
    HG_ASSIGN_OR_RETURN(std::vector<Value> values, engine_.GatherValues());
    std::vector<double> out;
    out.reserve(values.size());
    for (const Value& v : values) out.push_back(to_double_(v));
    return out;
  }

  Status RunEpoch(const EdgeBatch& batch, EpochMetrics* m) override {
    HG_RETURN_IF_ERROR(CheckStreaming(engine_.config().mode, kind_));
    HG_RETURN_IF_ERROR(hybridgraph::RunEpoch(EpochPolicyOf(kind_), batch,
                                             epochs_run_,
                                             engine_.driver().epoch_target(),
                                             m));
    ++epochs_run_;
    return Status::OK();
  }

  Status CompactAll(uint64_t min_runs) override {
    return CompactOverlays(&engine_.driver().nodes(), min_runs);
  }

  uint64_t epochs_run() const override { return epochs_run_; }

 private:
  Engine<P> engine_;
  AlgoKind kind_;
  Prepare prepare_;
  ToDouble to_double_;
  uint64_t epochs_run_ = 0;
};

template <typename P, typename Prepare, typename ToDouble>
std::unique_ptr<AnyEngine> MakeTyped(const JobConfig& config, AlgoKind kind,
                                     P program, Prepare prepare,
                                     ToDouble to_double) {
  return std::make_unique<TypedEngine<P, Prepare, ToDouble>>(
      config, kind, std::move(program), std::move(prepare),
      std::move(to_double));
}

constexpr auto kNoPrepare = [](auto&, const EdgeListGraph&) {};
constexpr auto kNumericValue = [](const auto& v) {
  return static_cast<double>(v);
};

/// For traversal algorithms with a `source` member: take it from the spec,
/// or defer to the max-out-degree vertex once the graph is known (the
/// paper's source-selection convention).
template <typename P>
std::unique_ptr<AnyEngine> MakeSourced(const JobConfig& config,
                                       const AlgoSpec& spec) {
  P program;
  if (spec.source_set) program.source = spec.source;
  const bool pick_source = !spec.source_set;
  return MakeTyped(
      config, spec.kind, program,
      [pick_source](P& p, const EdgeListGraph& g) {
        if (pick_source) p.source = MaxOutDegreeVertex(g);
      },
      kNumericValue);
}

/// The one registry of bundled algorithms: name, kind, streaming-epoch
/// policy, and how to build a type-erased engine for it. Adding an
/// algorithm means adding one row — AlgoKindName, ParseAlgoKind, MakeEngine
/// and the epoch capability all walk this table.
struct AlgoEntry {
  AlgoKind kind;
  const char* name;
  EpochPolicy epoch;
  std::unique_ptr<AnyEngine> (*make)(const JobConfig&, const AlgoSpec&);
};

const AlgoEntry kAlgoTable[] = {
    {AlgoKind::kPageRank, "pagerank", EpochPolicy::kNone,
     [](const JobConfig& c, const AlgoSpec& spec) {
       return MakeTyped(c, spec.kind, PageRankProgram{}, kNoPrepare,
                        kNumericValue);
     }},
    {AlgoKind::kPageRankDelta, "pagerank-delta", EpochPolicy::kSeedAll,
     [](const JobConfig& c, const AlgoSpec& spec) {
       PageRankDeltaProgram program;
       if (spec.tolerance != 0) program.tolerance = spec.tolerance;
       return MakeTyped(c, spec.kind, program, kNoPrepare, kNumericValue);
     }},
    {AlgoKind::kSssp, "sssp", EpochPolicy::kMonotoneInserts,
     &MakeSourced<SsspProgram>},
    {AlgoKind::kBfs, "bfs", EpochPolicy::kMonotoneInserts,
     &MakeSourced<BfsProgram>},
    {AlgoKind::kLpa, "lpa", EpochPolicy::kNone,
     [](const JobConfig& c, const AlgoSpec& spec) {
       return MakeTyped(c, spec.kind, LpaProgram{}, kNoPrepare, kNumericValue);
     }},
    {AlgoKind::kSa, "sa", EpochPolicy::kNone,
     [](const JobConfig& c, const AlgoSpec& spec) {
       SaProgram program;
       if (spec.sa_source_stride != 0) {
         program.source_stride = spec.sa_source_stride;
       }
       return MakeTyped(c, spec.kind, program, kNoPrepare,
                        [](const SaProgram::Value& v) {
                          return static_cast<double>(std::popcount(v.adopted));
                        });
     }},
    {AlgoKind::kWcc, "wcc", EpochPolicy::kMonotoneInserts,
     [](const JobConfig& c, const AlgoSpec& spec) {
       return MakeTyped(c, spec.kind, WccProgram{}, kNoPrepare, kNumericValue);
     }},
};

const AlgoEntry* FindAlgo(AlgoKind kind) {
  for (const AlgoEntry& entry : kAlgoTable) {
    if (entry.kind == kind) return &entry;
  }
  return nullptr;
}

EpochPolicy EpochPolicyOf(AlgoKind kind) {
  const AlgoEntry* entry = FindAlgo(kind);
  return entry != nullptr ? entry->epoch : EpochPolicy::kNone;
}

}  // namespace

const char* AlgoKindName(AlgoKind kind) {
  const AlgoEntry* entry = FindAlgo(kind);
  return entry != nullptr ? entry->name : "?";
}

Result<AlgoKind> ParseAlgoKind(const std::string& name) {
  for (const AlgoEntry& entry : kAlgoTable) {
    if (name == entry.name) return entry.kind;
  }
  return Status::InvalidArgument("unknown algorithm: " + name);
}

Result<std::unique_ptr<AnyEngine>> MakeEngine(const JobConfig& config,
                                              const AlgoSpec& spec) {
  const AlgoEntry* entry = FindAlgo(spec.kind);
  if (entry == nullptr) return Status::InvalidArgument("unknown AlgoKind");
  return entry->make(config, spec);
}

Status CheckStreaming(EngineMode mode, AlgoKind kind) {
  if (EpochPolicyOf(kind) == EpochPolicy::kNone) {
    return Status::InvalidArgument(
        std::string("algorithm ") + AlgoKindName(kind) +
        " has no streaming-epoch policy");
  }
  if (!EngineModeStreamable(mode)) {
    return Status::InvalidArgument(
        std::string("streaming epochs do not run under mode ") +
        EngineModeName(mode) + " (streaming modes: " +
        EngineModeNameList(/*streamable_only=*/true) + ")");
  }
  return Status::OK();
}

Result<std::unique_ptr<AnyEngine>> MakeEpochEngine(const JobConfig& config,
                                                   const EpochAlgoSpec& spec) {
  AlgoSpec algo;
  HG_ASSIGN_OR_RETURN(algo.kind, ParseAlgoKind(spec.name));
  HG_RETURN_IF_ERROR(CheckStreaming(config.mode, algo.kind));
  algo.source = spec.source;
  algo.source_set = true;
  algo.tolerance = spec.tolerance;
  return MakeEngine(config, algo);
}

}  // namespace hybridgraph
