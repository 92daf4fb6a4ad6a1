// hg_serve — long-lived streaming graph service.
//
// Loads a graph, converges the chosen algorithm once, then serves INGEST /
// GET / TOPK / STATS over the cluster frame protocol while a background
// epoch thread folds submitted edge batches in and republishes converged
// snapshots (queries during an in-flight epoch answer from the previous
// snapshot). Two front-ends:
//
//   --stream N    demo/CI mode: drive N generated batches through the wire
//                 protocol itself (node 1 -> node 0 over the transport),
//                 interleaving queries, then print stats and exit.
//   (default)     bind the loopback TCP frame listener and serve until
//                 stdin closes (send frames with RpcMethod 9..12).
//
// Examples:
//   hg_serve --graph dataset:livej --algo pagerank-delta --mode hybrid
//            --stream 8 --batch 64                  (one command line)
//   hg_serve --graph my_edges.txt --algo sssp --mode bpull --metrics-csv m.csv
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "graph/generator.h"
#include "hybridgraph/any_engine.h"
#include "net/tcp_transport.h"
#include "serve/serve_server.h"

using namespace hybridgraph;

namespace {

struct Options {
  std::string graph;
  std::string algo = "pagerank-delta";
  std::string mode = "hybrid";
  std::string disk = "hdd";
  std::string metrics_csv;
  std::string metrics_json;
  uint32_t nodes = 2;
  uint32_t threads = 1;
  int supersteps = 500;
  VertexId source = 0;
  double tolerance = 1e-9;
  uint64_t compact_runs = 4;
  uint32_t stream = 0;      // self-driven batches (0 = external serving)
  uint32_t batch = 64;      // deltas per self-driven batch
  double deletes = 0.0;     // delete fraction of the self-driven stream
  uint64_t seed = 42;
  uint32_t topk = 5;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: hg_serve --graph <file|dataset:NAME> [options]\n"
      "  --algo pagerank-delta|sssp|bfs|wcc   (default pagerank-delta)\n"
      "  --mode %s  (default hybrid)\n"
      "  --nodes N          simulated computational nodes   (default 2)\n"
      "  --threads N        worker threads, 0 = all cores   (default 1)\n"
      "  --supersteps N     per-epoch superstep cap         (default 500)\n"
      "  --source V         sssp/bfs source vertex          (default 0)\n"
      "  --tolerance T      pagerank-delta halt tolerance   (default 1e-9)\n"
      "  --disk hdd|ssd     device profile                  (default hdd)\n"
      "  --compact-runs N   fold cells with >= N delta runs after each\n"
      "                     epoch commit, 0 = never         (default 4)\n"
      "  --metrics-csv F    append per-epoch metrics as CSV\n"
      "  --metrics-json F   rewrite per-epoch metrics as JSON\n"
      "  --stream N         self-drive N generated batches through the wire\n"
      "                     protocol, then print stats and exit (default:\n"
      "                     serve on the TCP frame listener until stdin EOF)\n"
      "  --batch N          deltas per self-driven batch    (default 64)\n"
      "  --deletes F        delete fraction of the stream   (default 0)\n"
      "  --seed S           stream seed                     (default 42)\n"
      "  --topk K           K for the interleaved TOPK query (default 5)\n",
      EngineModeNameList(/*streamable_only=*/true).c_str());
}

Result<EdgeListGraph> LoadGraph(const std::string& spec) {
  const std::string prefix = "dataset:";
  if (spec.rfind(prefix, 0) == 0) {
    HG_ASSIGN_OR_RETURN(DatasetSpec ds, FindDataset(spec.substr(prefix.size())));
    return BuildDataset(ds);
  }
  return LoadEdgeListFile(spec);
}

/// Drives `n` batches through the wire protocol from the client node,
/// interleaving GET/TOPK/STATS queries between submissions.
int SelfStream(const Options& opt, Transport* transport, ServeServer* server,
               const EdgeListGraph& graph) {
  EdgeStreamOptions so;
  so.num_batches = opt.stream;
  so.batch_size = opt.batch;
  so.delete_fraction = opt.deletes;
  so.seed = opt.seed;
  const std::vector<EdgeBatch> stream = GenerateEdgeStream(graph, so);

  Buffer req;
  std::vector<uint8_t> resp;
  for (const EdgeBatch& b : stream) {
    req.Clear();
    EncodeIngestRequest(b, &req);
    Status st = transport->Call(1, 0, RpcMethod::kServeIngest, req.AsSlice(),
                                &resp);
    if (!st.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n", st.ToString().c_str());
      return 1;
    }
    // Query while the epoch may still be in flight: answered from the last
    // converged snapshot.
    req.Clear();
    EncodeGetRequest(0, &req);
    st = transport->Call(1, 0, RpcMethod::kServeGet, req.AsSlice(), &resp);
    if (!st.ok()) {
      std::fprintf(stderr, "get failed: %s\n", st.ToString().c_str());
      return 1;
    }
    GetResponse get;
    if (!DecodeGetResponse(Slice(resp), &get).ok()) return 1;
    std::printf("batch t=%llu submitted; GET 0 -> %.6g (snapshot epoch %llu)\n",
                (unsigned long long)b.timestamp, get.value,
                (unsigned long long)get.epoch);
  }
  Status st = server->WaitIdle();
  if (!st.ok()) {
    std::fprintf(stderr, "epoch error: %s\n", st.ToString().c_str());
    return 1;
  }

  req.Clear();
  EncodeTopKRequest(opt.topk, &req);
  if (!transport->Call(1, 0, RpcMethod::kServeTopK, req.AsSlice(), &resp)
           .ok()) {
    return 1;
  }
  TopKResponse topk;
  if (!DecodeTopKResponse(Slice(resp), &topk).ok()) return 1;
  std::printf("top-%u at epoch %llu:\n", opt.topk,
              (unsigned long long)topk.epoch);
  for (const auto& e : topk.entries) {
    std::printf("  v%u = %.6g\n", e.vertex, e.value);
  }

  req.Clear();
  if (!transport->Call(1, 0, RpcMethod::kServeStats, req.AsSlice(), &resp)
           .ok()) {
    return 1;
  }
  StatsResponse stats;
  if (!DecodeStatsResponse(Slice(resp), &stats).ok()) return 1;
  std::printf("epochs=%llu queue=%llu ingested=%llu staleness=%.3fs\n",
              (unsigned long long)stats.epochs_committed,
              (unsigned long long)stats.queue_depth,
              (unsigned long long)stats.batches_ingested, stats.staleness_s);
  std::printf("%s\n", stats.metrics_json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--graph") {
      opt.graph = next();
    } else if (arg == "--algo") {
      opt.algo = next();
    } else if (arg == "--mode") {
      opt.mode = next();
    } else if (arg == "--nodes") {
      opt.nodes = static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--threads") {
      opt.threads = static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--supersteps") {
      opt.supersteps = std::atoi(next());
    } else if (arg == "--source") {
      opt.source = static_cast<VertexId>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--tolerance") {
      opt.tolerance = std::strtod(next(), nullptr);
    } else if (arg == "--disk") {
      opt.disk = next();
    } else if (arg == "--compact-runs") {
      opt.compact_runs = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--metrics-csv") {
      opt.metrics_csv = next();
    } else if (arg == "--metrics-json") {
      opt.metrics_json = next();
    } else if (arg == "--stream") {
      opt.stream = static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--batch") {
      opt.batch = static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--deletes") {
      opt.deletes = std::strtod(next(), nullptr);
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--topk") {
      opt.topk = static_cast<uint32_t>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage();
      return 2;
    }
  }
  if (opt.graph.empty()) {
    Usage();
    return 2;
  }

  auto graph_r = LoadGraph(opt.graph);
  if (!graph_r.ok()) {
    std::fprintf(stderr, "cannot load graph: %s\n",
                 graph_r.status().ToString().c_str());
    return 1;
  }
  const EdgeListGraph& graph = *graph_r;
  std::printf("graph: %llu vertices, %llu edges\n",
              (unsigned long long)graph.num_vertices,
              (unsigned long long)graph.num_edges());

  JobConfig cfg;
  if (!ParseEngineMode(opt.mode, &cfg.mode).ok() ||
      !EngineModeStreamable(cfg.mode)) {
    std::fprintf(stderr, "unknown streaming mode: %s (streaming modes: %s)\n",
                 opt.mode.c_str(),
                 EngineModeNameList(/*streamable_only=*/true).c_str());
    return 2;
  }
  auto kind = ParseAlgoKind(opt.algo);
  Status st = kind.ok() ? CheckStreaming(cfg.mode, *kind) : kind.status();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  const AlgoSpec spec{.kind = *kind, .source = opt.source, .source_set = true,
                      .tolerance = opt.tolerance};
  cfg.num_nodes = opt.nodes;
  cfg.num_threads = opt.threads;
  cfg.max_supersteps = opt.supersteps;
  cfg.disk = opt.disk == "ssd" ? DiskProfile::Ssd() : DiskProfile::Hdd();

  auto engine_r = MakeEngine(cfg, spec);
  if (!engine_r.ok()) {
    std::fprintf(stderr, "cannot build engine: %s\n",
                 engine_r.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<AnyEngine> engine = std::move(*engine_r);
  st = engine->Load(graph);
  if (!st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return 1;
  }

  ServeServer::Options so;
  so.compact_min_runs = opt.compact_runs;
  so.metrics_csv_path = opt.metrics_csv;
  so.metrics_json_path = opt.metrics_json;
  ServeServer server(engine.get(), so);

  // Front-end transport: node 0 = server, node 1 = client side. The demo
  // stream stays in-process; external serving binds the TCP frame listener.
  std::unique_ptr<Transport> frontend;
  if (opt.stream > 0) {
    frontend = std::make_unique<InProcTransport>(2);
  } else {
    frontend = std::make_unique<TcpTransport>(2);
  }
  server.RegisterHandlers(frontend.get(), 0);
  st = frontend->Start();
  if (!st.ok()) {
    std::fprintf(stderr, "transport start failed: %s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("converging initial snapshot (%s, %s)...\n", opt.algo.c_str(),
              opt.mode.c_str());
  st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "initial convergence failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  std::printf("snapshot 0 published; %llu supersteps\n",
              (unsigned long long)engine->stats().supersteps_run);

  if (opt.stream > 0) {
    return SelfStream(opt, frontend.get(), &server, graph);
  }

  auto* tcp = static_cast<TcpTransport*>(frontend.get());
  std::printf("serving on 127.0.0.1:%u (RpcMethods: 9=INGEST 10=GET 11=TOPK "
              "12=STATS); close stdin to exit\n",
              tcp->port(0));
  // Block until stdin closes, then shut down cleanly.
  int c;
  while ((c = std::getchar()) != EOF) {
  }
  server.Stop();
  return 0;
}
