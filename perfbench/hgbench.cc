// hgbench — the host-performance benchmark program. One process runs one
// workload and writes its raw measurements (timing samples, modeled totals,
// counters, check outcomes and, in a traced run, spans and per-layer
// results) as one JSON object; perfbench/run.py turns those into the
// reported metrics.
//
//   hgbench --workload pr-push-spill|sssp-hybrid-web|stream-serve
//           --seed N --seconds S --trace 0|1 --out FILE --trace-dir DIR
//           [--perturb]
//
// The seed replaces the dataset catalog seed and the edge-stream seed; the
// engine only ever receives the generated graph and batches. No fail-point
// or emulated device delay is armed. --perturb changes one vertex value of
// every checked result before it is compared, to show that a wrong answer is
// counted as failed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "algos/pagerank.h"
#include "algos/sssp.h"
#include "core/engine_setup.h"
#include "core/epoch_driver.h"
#include "core/message_path.h"
#include "graph/generator.h"
#include "hybridgraph/any_engine.h"
#include "net/transport.h"
#include "reference.h"
#include "replay.h"
#include "serve/serve_server.h"
#include "spans.h"

namespace perfbench {
namespace {

using namespace hybridgraph;
using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;
/// PageRank is checked against the sequential reference within this relative
/// tolerance (summation order differs); SSSP distances must match exactly.
constexpr double kPageRankRelTol = 1e-9;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool perturb = false;
  std::string out;
  std::string trace_dir = ".";
};

// ------------------------------------------------------------ raw results

struct Report {
  std::map<std::string, double> inputs;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> scalars;
  std::map<std::string, double> layer;
  std::map<std::string, std::string> files;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  /// Counts one result check; a false `ok` counts it failed. Checks are
  /// coarse on purpose (one per job, covering its fixpoint and its modeled
  /// columns; one per final-snapshot property; one for all reads or queries
  /// of a run), so that a single wrong result moves ok_frac by far more
  /// than its bound.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }

  /// Records why the run cannot go on; the caller returns the result, and
  /// no result line is printed.
  int Abort(const std::string& what) {
    failures.push_back(what);
    return 1;
  }
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string JsonMap(const std::map<std::string, double>& m) {
  std::string s = "{";
  for (const auto& [k, v] : m) {
    if (s.size() > 1) s += ",";
    s += JsonString(k) + ":" + JsonNumber(v);
  }
  return s + "}";
}

std::string JsonList(const std::vector<double>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) s += ",";
    s += JsonNumber(v[i]);
  }
  return s + "]";
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

bool WriteReport(const Report& r, const Args& a) {
  std::string s = "{\"workload\":" + JsonString(a.workload) +
                  ",\"seed\":" + std::to_string(a.seed) +
                  ",\"trace\":" + (a.trace ? "1" : "0") +
                  ",\"attempted\":" + std::to_string(r.attempted) +
                  ",\"failed\":" + std::to_string(r.failed) +
                  ",\"failures\":[";
  for (size_t i = 0; i < r.failures.size(); ++i) {
    if (i) s += ",";
    s += JsonString(r.failures[i]);
  }
  s += "],\"inputs\":" + JsonMap(r.inputs) +
       ",\"scalars\":" + JsonMap(r.scalars) + ",\"layer\":" + JsonMap(r.layer) +
       ",\"samples\":{";
  bool first = true;
  for (const auto& [k, v] : r.samples) {
    if (!first) s += ",";
    first = false;
    s += JsonString(k) + ":" + JsonList(v);
  }
  s += "},\"files\":{";
  first = true;
  for (const auto& [k, v] : r.files) {
    if (!first) s += ",";
    first = false;
    s += JsonString(k) + ":" + JsonString(v);
  }
  s += "}}\n";
  return WriteFile(a.out, s);
}

bool WriteSpans(const SpanRecorder& rec, const std::string& path) {
  std::string s = "[";
  for (size_t i = 0; i < rec.spans().size(); ++i) {
    const Span& sp = rec.spans()[i];
    if (i) s += ",\n";
    s += "{\"name\":" + JsonString(sp.name) +
         ",\"start_us\":" + JsonNumber(sp.start_us) +
         ",\"end_us\":" + JsonNumber(sp.end_us) +
         ",\"parent\":" + std::to_string(sp.parent) + "}";
  }
  return WriteFile(path, s + "]\n");
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

EdgeListGraph SeededDataset(const std::string& name, uint64_t seed,
                            Report* r) {
  DatasetSpec spec = FindDataset(name).ValueOrDie();
  spec.seed = seed;
  EdgeListGraph g = BuildDataset(spec);
  r->inputs["vertices"] = static_cast<double>(g.num_vertices);
  r->inputs["edges"] = static_cast<double>(g.num_edges());
  return g;
}

/// The partition the engine derives at Load(): even node ranges, then
/// Eq. (5) Vblock counts for a combinable program (see BuildBlockTopology).
RangePartition EnginePartition(const EdgeListGraph& g, const JobConfig& cfg) {
  const uint32_t T = cfg.num_nodes;
  RangePartition coarse =
      RangePartition::CreateUniform(g.num_vertices, T, 1).ValueOrDie();
  const auto in_degrees = g.InDegrees();
  std::vector<uint64_t> node_in(T, 0);
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    node_in[coarse.NodeOf(v)] += in_degrees[v];
  }
  std::vector<uint32_t> vblocks(T);
  for (uint32_t i = 0; i < T; ++i) {
    vblocks[i] = DeriveVblocks(cfg, /*combinable=*/true, i, node_in[i],
                               coarse.NodeRange(i).size());
  }
  return RangePartition::Create(g.num_vertices, T, vblocks).ValueOrDie();
}

void Perturb(std::vector<double>* values) {
  if (values->empty()) return;
  double& v = (*values)[values->size() / 2];
  v = std::isfinite(v) ? v + 1.0 : 0.0;
}

/// Counters every workload reports in its traced run, over `steps`.
void StepCounters(const std::vector<SuperstepMetrics>& steps, double wall_s,
                  Report* r) {
  uint64_t msgs = 0, wire = 0, pulls = 0, switches = 0, edges = 0;
  uint64_t spilled = 0, frames = 0, net = 0;
  double consume = 0, update = 0, drain = 0, imbalance = 0;
  for (const auto& s : steps) {
    msgs += s.messages_produced;
    wire += s.messages_on_wire;
    pulls += s.pull_requests;
    switches += s.switched ? 1 : 0;
    edges += s.edges_scanned;
    spilled += s.messages_spilled;
    frames += s.net_frames;
    net += s.net_bytes;
    consume += s.phase_consume_wall_s;
    update += s.phase_update_wall_s;
    drain += s.phase_drain_wall_s;
    imbalance = std::max(imbalance, s.msg_imbalance);
  }
  auto& L = r->layer;
  L["core.consume_s"] = consume;
  L["core.update_s"] = update;
  L["core.drain_s"] = drain;
  L["core.msgs"] = static_cast<double>(msgs);
  L["core.wire_ratio"] = msgs ? static_cast<double>(wire) / msgs : 0;
  L["core.pull_requests"] = static_cast<double>(pulls);
  L["core.supersteps"] = static_cast<double>(steps.size());
  L["core.switches"] = static_cast<double>(switches);
  L["core.msg_imbalance"] = imbalance;
  L["core.msgs_per_s"] = wall_s > 0 ? msgs / wall_s : 0;
  L["core.edges_per_s"] = wall_s > 0 ? edges / wall_s : 0;
  L["graph.edges_scanned"] = static_cast<double>(edges);
  L["io.spilled_frac"] = msgs ? static_cast<double>(spilled) / msgs : 0;
  L["net.frames"] = static_cast<double>(frames);
  L["net.bytes_per_frame"] = frames ? static_cast<double>(net) / frames : 0;
}

bool Replays(const EdgeListGraph& g, const JobConfig& cfg, size_t msg_size,
             void (*combiner)(uint8_t*, const uint8_t*),
             double mean_frame_bytes, SpanRecorder* spans, Report* r) {
  ReplayInput in;
  in.graph = &g;
  in.partition = EnginePartition(g, cfg);
  in.msg_size = msg_size;
  in.combiner = combiner;
  in.buffer_per_node = cfg.msg_buffer_per_node;
  in.sending_threshold_bytes = cfg.sending_threshold_bytes;
  in.mean_frame_bytes = mean_frame_bytes;
  std::string why;
  ScopedSpan span(spans, "replay");
  const bool ok = RunReplays(in, spans, &r->layer, &why);
  r->Check(ok, "replay: " + why);
  return ok;
}

// ------------------------------------------------------ batch workloads

struct BatchSpec {
  const char* dataset;
  AlgoKind algo;
  EngineMode mode;
  uint32_t nodes;
  uint64_t buffer_per_node;  ///< B_i
  int max_supersteps;
  size_t msg_size;
  void (*combiner)(uint8_t*, const uint8_t*);
};

struct JobResult {
  double setup_s = 0;
  double load_s = 0;
  double run_s = 0;
  double fresh_s = 0;  ///< due (job submitted) -> first read of its values
  std::vector<double> step_ms;
  std::vector<double> values;
  JobStats stats;
};

/// One job: MakeEngine + Load (setup), Run, then the first read of the
/// values. With `step_spans` the job runs superstep by superstep, each in
/// its own span, and Run() afterwards only flushes the engine trace.
Status RunBatchJob(const BatchSpec& spec, const EdgeListGraph& g,
                   const JobConfig& cfg, bool step_spans, SpanRecorder* spans,
                   std::unique_ptr<AnyEngine>* engine_out, JobResult* out) {
  const auto due = Clock::now();
  ScopedSpan job(spans, "job");
  std::unique_ptr<AnyEngine> engine;
  {
    ScopedSpan setup(spans, "setup");
    {
      ScopedSpan s(spans, "hybridgraph.MakeEngine");
      AlgoSpec algo;
      algo.kind = spec.algo;
      HG_ASSIGN_OR_RETURN(engine, MakeEngine(cfg, algo));
    }
    ScopedSpan s(spans, "hybridgraph.Load");
    const auto t0 = Clock::now();
    HG_RETURN_IF_ERROR(engine->Load(g));
    out->load_s = SecondsSince(t0);
  }
  out->setup_s = SecondsSince(due);
  const auto t0 = Clock::now();
  if (step_spans) {
    for (int t = 0; t < cfg.max_supersteps && !engine->converged(); ++t) {
      ScopedSpan s(spans, "hybridgraph.RunSuperstep");
      const auto ts = Clock::now();
      HG_RETURN_IF_ERROR(engine->RunSuperstep());
      out->step_ms.push_back(SecondsSince(ts) * 1e3);
    }
    out->run_s = SecondsSince(t0);
    ScopedSpan s(spans, "hybridgraph.Run.flush_trace");
    HG_RETURN_IF_ERROR(engine->Run());
  } else {
    ScopedSpan s(spans, "hybridgraph.Run");
    HG_RETURN_IF_ERROR(engine->Run());
    out->run_s = SecondsSince(t0);
  }
  {
    ScopedSpan s(spans, "hybridgraph.GatherValuesAsDouble");
    HG_ASSIGN_OR_RETURN(out->values, engine->GatherValuesAsDouble());
  }
  out->fresh_s = SecondsSince(due);
  out->stats = engine->stats();
  *engine_out = std::move(engine);
  return Status::OK();
}

class BatchChecker {
 public:
  BatchChecker(std::vector<double> reference, double rel_tol, bool perturb,
               Report* r)
      : ref_(std::move(reference)), tol_(rel_tol), perturb_(perturb), r_(r) {}

  /// Checks one finished job, as one result: its fixpoint against the
  /// reference and its modeled columns against the first job checked.
  void Job(const std::string& label, JobResult* job) {
    if (perturb_) Perturb(&job->values);
    const uint64_t bad = CountMismatches(job->values, ref_, tol_);
    std::string why = label + ": " + std::to_string(bad) +
                      " vertex values differ from the reference";
    bool same = true;
    if (first_ == nullptr) {
      first_ = std::make_unique<JobStats>(job->stats);
    } else {
      std::string column;
      same = SameModeledColumns(*first_, job->stats, &column);
      if (!same) {
        why += "; modeled column differs from the first job (" + column + ")";
      }
    }
    r_->Check(bad == 0 && same, why);
  }

  const JobStats* first() const { return first_.get(); }

 private:
  std::vector<double> ref_;
  double tol_;
  bool perturb_;
  Report* r_;
  std::unique_ptr<JobStats> first_;
};

/// Closed-loop reads of a finished job's values: the batch analogue of a
/// query, one GatherValuesAsDouble() round trip each. Returns false if any
/// read failed.
bool TimedReads(AnyEngine* engine, int n, Report* r) {
  auto& us = r->samples["query_us"];
  bool ok = true;
  for (int k = 0; k < n; ++k) {
    const auto t0 = Clock::now();
    auto v = engine->GatherValuesAsDouble();
    us.push_back(SecondsSince(t0) * 1e6);
    ok = ok && v.ok();
  }
  return ok;
}

int RunBatch(const Args& a, const BatchSpec& spec, Report* r) {
  EdgeListGraph g = SeededDataset(spec.dataset, a.seed, r);
  JobConfig cfg;
  cfg.mode = spec.mode;
  cfg.num_nodes = spec.nodes;
  cfg.num_threads = 2;  // see README.md: steadier than 4 on a shared host
  cfg.msg_buffer_per_node = spec.buffer_per_node;
  cfg.max_supersteps = spec.max_supersteps;
  r->inputs["nodes"] = cfg.num_nodes;
  r->inputs["threads"] = cfg.num_threads;
  r->inputs["buffer_per_node"] = static_cast<double>(cfg.msg_buffer_per_node);
  r->inputs["sending_threshold_bytes"] =
      static_cast<double>(cfg.sending_threshold_bytes);

  std::vector<double> ref;
  double tol = 0;
  if (spec.algo == AlgoKind::kPageRank) {
    ref = ReferencePageRank(g, spec.max_supersteps, PageRankProgram{}.damping);
    tol = kPageRankRelTol;
  } else {
    ref = ReferenceSssp(g, MaxOutDegreeVertex(g));
  }
  BatchChecker check(std::move(ref), tol, a.perturb, r);
  SpanRecorder spans(a.trace);
  constexpr int kReadsPerJob = 200;

  // Untraced jobs: the first is the warm-up; the rest are measured until the
  // time budget is spent (at least three). A traced run keeps two of them
  // as the baseline of trace.overhead_frac.
  const int min_jobs = a.trace ? 3 : 4;
  const auto start = Clock::now();
  std::vector<double> untraced_run_s;
  bool reads_ok = true;
  for (int k = 0; k < min_jobs ||
                  (!a.trace && SecondsSince(start) < a.seconds);
       ++k) {
    JobResult job;
    std::unique_ptr<AnyEngine> engine;
    Status st = RunBatchJob(spec, g, cfg, false, &spans, &engine, &job);
    if (!st.ok()) return r->Abort("job: " + st.ToString());
    r->samples["setup_s"].push_back(job.setup_s);
    r->samples["load_s"].push_back(job.load_s);
    if (k > 0) {
      r->samples["job_s"].push_back(job.run_s);
      r->samples["fresh_ms"].push_back(job.fresh_s * 1e3);
      untraced_run_s.push_back(job.run_s);
      reads_ok = TimedReads(engine.get(), kReadsPerJob, r) && reads_ok;
    }
    check.Job("job " + std::to_string(k), &job);
  }
  r->Check(reads_ok, "a GatherValuesAsDouble read failed");
  const JobStats& stats = *check.first();
  r->scalars["modeled_s"] = stats.modeled_seconds;
  r->scalars["io_mb"] = stats.TotalIoBytes() / kMiB;
  r->scalars["net_mb"] = stats.TotalNetBytes() / kMiB;
  r->inputs["supersteps"] = static_cast<double>(stats.supersteps.size());
  r->inputs["msgs_per_superstep"] =
      static_cast<double>(stats.TotalMessages()) / stats.supersteps.size();

  if (a.trace) {
    // Traced jobs: engine trace on, one span per superstep. The job at the
    // measured thread count gives the layer figures and the tracing
    // overhead; the 1- and 4-thread jobs give the scaling figure and, with
    // the untraced jobs, the cross-thread determinism gate.
    std::map<uint32_t, JobResult> traced;
    for (const uint32_t threads : {cfg.num_threads, 1u, 4u}) {
      if (traced.count(threads)) continue;
      JobConfig tcfg = cfg;
      tcfg.num_threads = threads;
      tcfg.trace_path = a.trace_dir + "/" + a.workload + "-" +
                        std::to_string(a.seed) + ".engine" +
                        std::to_string(threads) + ".json";
      std::unique_ptr<AnyEngine> engine;
      const std::string label =
          "traced job, " + std::to_string(threads) + " threads";
      Status st = RunBatchJob(spec, g, tcfg, true, &spans, &engine,
                              &traced[threads]);
      if (!st.ok()) return r->Abort(label + ": " + st.ToString());
      check.Job(label, &traced[threads]);
      if (threads == cfg.num_threads) {
        r->files["engine_trace"] = tcfg.trace_path;
      }
    }
    const JobResult& measured = traced[cfg.num_threads];
    r->samples["hybridgraph.superstep_ms"] = measured.step_ms;
    StepCounters(measured.stats.supersteps, measured.run_s, r);
    auto& L = r->layer;
    L["core.speedup_1to4"] = traced[1].run_s / traced[4].run_s;
    L["trace.overhead_frac"] =
        measured.run_s / Median(untraced_run_s) - 1.0;
    L["gen.late_ms_max"] = 0;  // closed loop: nothing is scheduled
    const double frames = L["net.frames"];
    Replays(g, cfg, spec.msg_size, spec.combiner,
            frames > 0 ? stats.TotalNetBytes() / frames : 0, &spans, r);
  }
  r->scalars["peak_rss_mb"] = PeakRssMb();
  if (a.trace) {
    const std::string path = a.trace_dir + "/" + a.workload + "-" +
                             std::to_string(a.seed) + ".spans.json";
    r->Check(WriteSpans(spans, path), "cannot write " + path);
    r->files["spans"] = path;
  }
  return 0;
}

// ------------------------------------------------------ stream-serve

/// The query traffic follows the repository's own serve client
/// (tools/hg_serve.cc): a GET while epochs are in flight and, once an epoch
/// has committed, a TOPK with its default K of 5. Here the GET repeats after
/// a fixed think time and so probes when each batch becomes visible; the
/// think time is that probe's resolution, a small fraction of an epoch.
struct StreamSpec {
  const char* dataset = "livej";
  uint32_t nodes = 4;
  uint32_t threads = 2;
  uint32_t batch_size = 64;
  double rate_per_s = 10;  ///< open-loop batch arrivals
  double think_ms = 2;     ///< closed-loop GET client think time
  uint32_t topk = 5;       ///< one TOPK per newly seen snapshot
};

/// Members are destroyed in reverse order: the server (joining its epoch
/// thread) goes before the transport and the engine it uses.
struct Serving {
  std::unique_ptr<AnyEpochEngine> engine;
  std::unique_ptr<InProcTransport> transport;
  std::unique_ptr<ServeServer> server;
};

Status StartServing(const JobConfig& cfg, const EpochAlgoSpec& algo,
                    const EdgeListGraph& g, SpanRecorder* spans,
                    Serving* s, double* load_s) {
  ScopedSpan setup(spans, "setup");
  {
    ScopedSpan sp(spans, "hybridgraph.MakeEpochEngine");
    HG_ASSIGN_OR_RETURN(s->engine, MakeEpochEngine(cfg, algo));
  }
  {
    ScopedSpan sp(spans, "hybridgraph.Load");
    const auto t0 = Clock::now();
    HG_RETURN_IF_ERROR(s->engine->Load(g));
    *load_s = SecondsSince(t0);
  }
  s->transport = std::make_unique<InProcTransport>(2);
  s->server = std::make_unique<ServeServer>(s->engine.get(),
                                            ServeServer::Options{});
  s->server->RegisterHandlers(s->transport.get(), 0);
  HG_RETURN_IF_ERROR(s->transport->Start());
  ScopedSpan sp(spans, "serve.ServeServer.Start");
  return s->server->Start();
}

int RunStream(const Args& a, Report* r) {
  const StreamSpec spec;
  EdgeListGraph g = SeededDataset(spec.dataset, a.seed, r);
  const VertexId source = MaxOutDegreeVertex(g);
  JobConfig cfg;
  cfg.mode = EngineMode::kHybrid;
  cfg.num_nodes = spec.nodes;
  cfg.num_threads = spec.threads;
  cfg.max_supersteps = 500;
  EpochAlgoSpec algo;
  algo.name = "sssp";
  algo.source = source;

  const uint32_t num_batches = static_cast<uint32_t>(
      std::max(1.0, std::round(spec.rate_per_s * a.seconds)));
  EdgeStreamOptions so;
  so.num_batches = num_batches;
  so.batch_size = spec.batch_size;
  so.seed = a.seed;
  const std::vector<EdgeBatch> stream = GenerateEdgeStream(g, so);
  auto& in = r->inputs;
  in["nodes"] = cfg.num_nodes;
  in["threads"] = cfg.num_threads;
  in["batch_size"] = spec.batch_size;
  in["rate_per_s"] = spec.rate_per_s;
  in["think_ms"] = spec.think_ms;
  in["topk"] = spec.topk;
  in["batches"] = num_batches;
  in["compact_min_runs"] = static_cast<double>(
      ServeServer::Options{}.compact_min_runs);

  SpanRecorder spans(a.trace);
  // Set-up (engine build, load, cold convergence) five times; the last
  // server stays up for the measured phase.
  std::unique_ptr<Serving> up;
  for (int k = 0; k < 5; ++k) {
    up.reset();  // never two servers at once: peak RSS is a metric
    up = std::make_unique<Serving>();
    double load_s = 0;
    const auto t0 = Clock::now();
    Status st = StartServing(cfg, algo, g, &spans, up.get(), &load_s);
    if (!st.ok()) return r->Abort("set-up: " + st.ToString());
    r->samples["setup_s"].push_back(SecondsSince(t0));
    r->samples["load_s"].push_back(load_s);
  }
  Serving& serving = *up;
  const size_t cold_steps = serving.engine->stats().supersteps.size();

  // One generator thread: open-loop batch submissions at a fixed rate,
  // interleaved with the closed-loop query client. Between its calls it
  // notes when each epoch commits (epochs_committed() grows only after the
  // epoch's ingest, convergence, snapshot publish and compaction), so
  // the epoch cycle is timed from outside. A traced run records spans only
  // in odd seconds of the window, so traced and untraced epochs share one
  // server and the same drift.
  auto& due_s = r->samples["batch_due_s"];
  auto& sent_s = r->samples["batch_sent_s"];
  auto& answer_s = r->samples["answer_s"];
  auto& answer_epoch = r->samples["answer_epoch"];
  auto& query_us = r->samples["query_us"];
  auto& get_us = r->samples["serve.get_us"];
  auto& topk_us = r->samples["serve.topk_us"];
  std::vector<double> commit_s;  // commit_s[i]: epoch of batch i seen done
  std::mt19937_64 rng(a.seed);
  const double interval = 1.0 / spec.rate_per_s;
  const auto start = Clock::now();
  auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  auto note_commits = [&] {
    const uint64_t committed = serving.server->epochs_committed();
    while (commit_s.size() < committed) {
      commit_s.push_back(SecondsSince(start));
    }
  };
  uint32_t next = 0;
  double next_query = 0;
  uint64_t observed = 0, topk_epoch = 0, queue_max = 0;
  bool queries_ok = true, monotone = true;
  std::string query_error;
  const double give_up = a.seconds + 60;
  Buffer req;
  std::vector<uint8_t> resp;
  std::vector<bool> traced_batch;
  while (true) {
    const double now = SecondsSince(start);
    spans.set_enabled(a.trace && static_cast<int64_t>(now) % 2 == 1);
    if (next < num_batches && now >= next * interval) {
      ScopedSpan sp(&spans, "serve.SubmitBatch");
      traced_batch.push_back(spans.enabled());
      due_s.push_back(next * interval);
      sent_s.push_back(now);
      queue_max = std::max(queue_max, serving.server->SubmitBatch(stream[next]));
      ++next;
      continue;
    }
    if (now >= next_query) {
      const bool topk = observed > topk_epoch;
      req.Clear();
      if (topk) {
        EncodeTopKRequest(spec.topk, &req);
        topk_epoch = observed;
      } else {
        EncodeGetRequest(static_cast<uint32_t>(rng() % g.num_vertices), &req);
      }
      Status st;
      uint64_t epoch = 0;
      const auto t0 = Clock::now();
      {
        ScopedSpan sp(&spans, topk ? "serve.TopK" : "serve.Get");
        st = serving.transport->Call(
            1, 0, topk ? RpcMethod::kServeTopK : RpcMethod::kServeGet,
            req.AsSlice(), &resp);
      }
      const double rtt_us = SecondsSince(t0) * 1e6;
      if (st.ok()) {
        if (topk) {
          TopKResponse tr;
          st = DecodeTopKResponse(Slice(resp), &tr);
          epoch = tr.epoch;
        } else {
          GetResponse gr;
          st = DecodeGetResponse(Slice(resp), &gr);
          epoch = gr.epoch;
        }
      }
      if (!st.ok() && queries_ok) query_error = st.ToString();
      queries_ok = queries_ok && st.ok();
      monotone = monotone && epoch >= observed;
      const double done = SecondsSince(start);
      query_us.push_back(rtt_us);
      (topk ? topk_us : get_us).push_back(rtt_us);
      answer_s.push_back(done);
      answer_epoch.push_back(static_cast<double>(epoch));
      observed = std::max(observed, epoch);
      note_commits();
      next_query = done + spec.think_ms / 1e3;
      if (next == num_batches && observed >= num_batches &&
          commit_s.size() >= num_batches) {
        break;
      }
      if (done > give_up) break;
      continue;
    }
    const double wake =
        next < num_batches ? std::min(next_query, next * interval) : next_query;
    std::this_thread::sleep_until(at(wake));
  }
  spans.set_enabled(a.trace);
  r->Check(queries_ok, "query: " + query_error);
  r->Check(monotone, "a query was answered from an older snapshot");
  r->Check(observed >= num_batches,
           "only " + std::to_string(observed) + " of " +
               std::to_string(num_batches) + " batches became visible");
  Status st = serving.server->WaitIdle();
  r->Check(st.ok(), "epoch: " + st.ToString());
  const std::vector<EpochMetrics> epochs = serving.server->metrics();
  r->Check(epochs.size() == num_batches,
           std::to_string(epochs.size()) + " of " +
               std::to_string(num_batches) + " batches committed");
  double modeled = 0, io = 0, net = 0, converge_s = 0, runs_max = 0;
  std::vector<double> epoch_s, ingest_ms, converge_ms;
  for (const auto& m : epochs) {
    modeled += m.modeled_seconds;
    io += static_cast<double>(m.read_bytes + m.write_bytes);
    net += static_cast<double>(m.net_bytes);
    epoch_s.push_back(m.ingest_wall_s + m.converge_wall_s);
    ingest_ms.push_back(m.ingest_wall_s * 1e3);
    converge_ms.push_back(m.converge_wall_s * 1e3);
    converge_s += m.converge_wall_s;
    runs_max = std::max(runs_max, static_cast<double>(m.delta_runs));
  }
  // Epoch cycle of batch i: from when the epoch loop could take it (it was
  // sent and the previous epoch had committed) to when its epoch committed.
  std::vector<double> cycle_s, rest_ms;
  for (size_t i = 0; i < commit_s.size() && i < sent_s.size(); ++i) {
    const double begin = std::max(sent_s[i], i ? commit_s[i - 1] : 0.0);
    cycle_s.push_back(commit_s[i] - begin);
    if (i < epoch_s.size()) {
      rest_ms.push_back(1e3 * (cycle_s.back() - epoch_s[i]));
    }
  }
  r->samples["job_s"] = cycle_s;
  r->scalars["modeled_s"] = modeled;
  r->scalars["io_mb"] = io / kMiB;
  r->scalars["net_mb"] = net / kMiB;

  // The final snapshot must equal a cold SSSP on the final mutated graph.
  {
    EdgeListGraph mutated = g;
    for (const auto& b : stream) ApplyBatchToGraph(&mutated, b);
    const std::vector<double> ref = ReferenceSssp(mutated, source);
    std::shared_ptr<const Snapshot> snap = serving.server->board().Current();
    std::vector<double> got = snap ? snap->values : std::vector<double>{};
    if (a.perturb) Perturb(&got);
    r->Check(snap && snap->epoch == num_batches,
             "final snapshot is not the last epoch");
    const uint64_t bad = CountMismatches(got, ref, 0);
    r->Check(bad == 0, "final snapshot: " + std::to_string(bad) +
                           " distances differ from a cold recompute");
  }

  if (a.trace) {
    const auto& all = serving.engine->stats().supersteps;
    const std::vector<SuperstepMetrics> steps(all.begin() + cold_steps,
                                              all.end());
    StepCounters(steps, converge_s, r);
    auto& step_ms = r->samples["hybridgraph.superstep_ms"];
    for (const auto& s : steps) {
      step_ms.push_back(1e3 * (s.phase_consume_wall_s + s.phase_update_wall_s +
                               s.phase_drain_wall_s));
    }
    r->samples["graph.ingest_ms"] = ingest_ms;
    r->samples["serve.converge_ms"] = converge_ms;
    auto& L = r->layer;
    L["graph.delta_runs_max"] = runs_max;
    L["serve.queue_depth_max"] = static_cast<double>(queue_max);
    r->samples["serve.publish_compact_ms"] = rest_ms;
    // Epoch i ingests batch i: compare cycles of traced and untraced seconds.
    std::vector<double> traced, untraced;
    for (size_t i = 0; i < cycle_s.size() && i < traced_batch.size(); ++i) {
      (traced_batch[i] ? traced : untraced).push_back(cycle_s[i]);
    }
    L["trace.overhead_frac"] =
        traced.empty() || untraced.empty()
            ? 0
            : Median(traced) / Median(untraced) - 1.0;
    L["core.speedup_1to4"] = 0;  // not run: the server has one thread count
    const double frames = L["net.frames"];
    Replays(g, cfg, SsspProgram::kMessageSize,
            &ProgramOps<SsspProgram>::CombineRaw,
            frames > 0 ? net / frames : 0, &spans, r);
  }
  serving.server->Stop();
  r->scalars["peak_rss_mb"] = PeakRssMb();
  if (a.trace) {
    const std::string path = a.trace_dir + "/" + a.workload + "-" +
                             std::to_string(a.seed) + ".spans.json";
    r->Check(WriteSpans(spans, path), "cannot write " + path);
    r->files["spans"] = path;
  }
  return 0;
}

// ------------------------------------------------------ main

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--perturb") {
      a->perturb = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--out") {
      a->out = v;
    } else if (k == "--trace-dir") {
      a->trace_dir = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && !a->out.empty() && a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: hgbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out FILE [--trace-dir DIR] [--perturb]\n");
    return 2;
  }
  Report r;
  int rc;
  if (a.workload == "pr-push-spill") {
    rc = RunBatch(a,
                  {"orkut", AlgoKind::kPageRank, EngineMode::kPush, 5, 2500, 10,
                   PageRankProgram::kMessageSize,
                   &ProgramOps<PageRankProgram>::CombineRaw},
                  &r);
  } else if (a.workload == "sssp-hybrid-web") {
    rc = RunBatch(a,
                  {"wiki", AlgoKind::kSssp, EngineMode::kHybrid, 5, 2500, 500,
                   SsspProgram::kMessageSize,
                   &ProgramOps<SsspProgram>::CombineRaw},
                  &r);
  } else if (a.workload == "stream-serve") {
    rc = RunStream(a, &r);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", a.workload.c_str());
    return 2;
  }
  if (rc != 0) {
    for (const auto& f : r.failures) {
      std::fprintf(stderr, "FAILED: %s\n", f.c_str());
    }
    return rc;
  }
  if (!WriteReport(r, a)) {
    std::fprintf(stderr, "cannot write %s\n", a.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
