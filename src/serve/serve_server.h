// The hg_serve core: a long-lived streaming graph service over one
// AnyEngine running streaming epochs.
//
// Threading model:
//   - The *epoch thread* (owned here) is the only thread that ever touches
//     the engine after Start(): it pops ingest batches off the queue, runs
//     one epoch per batch, gathers the converged values into a fresh
//     immutable Snapshot, publishes it on the SnapshotBoard with one pointer
//     swap (the double-buffer commit), records EpochMetrics, and compacts
//     the overlay's delta-run backlog.
//   - Query handlers (kServeGet / kServeTopK / kServeStats) run in transport
//     dispatch threads and touch ONLY the SnapshotBoard and the metrics
//     mutex — never the engine — so a query during an in-flight epoch is
//     answered from the previous converged snapshot, never a torn state.
//   - kServeIngest handlers enqueue and return immediately with the queue
//     depth; ingestion is asynchronous by design (the paper's BSP engine is
//     batch-synchronous, so batches serialize behind the epoch thread).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/epoch_driver.h"
#include "hybridgraph/any_engine.h"
#include "net/transport.h"
#include "serve/serve_protocol.h"
#include "serve/snapshot.h"

namespace hybridgraph {

class ServeServer {
 public:
  struct Options {
    /// Post-commit compaction folds cells holding >= this many delta runs
    /// (0 disables compaction).
    uint64_t compact_min_runs = 4;
    /// When non-empty, per-epoch metrics are appended here as CSV after
    /// every commit (header written once).
    std::string metrics_csv_path;
    /// When non-empty, the full metrics array is rewritten here as JSON
    /// after every commit.
    std::string metrics_json_path;
  };

  /// `engine` must be Load()ed but not yet run, for an algorithm and mode
  /// that pass CheckStreaming; the server runs the cold initial convergence
  /// in Start(). The engine must outlive the server.
  ServeServer(AnyEngine* engine, Options options);
  ~ServeServer();

  /// Registers the four kServe* handlers for `node` on `transport`. Must be
  /// called before transport->Start() (and before this->Start()).
  void RegisterHandlers(Transport* transport, NodeId node);

  /// Runs the cold initial convergence, publishes snapshot 0, and starts
  /// the epoch thread.
  Status Start();

  /// Stops the epoch thread after the in-flight epoch (queued batches are
  /// dropped). Idempotent; also called by the destructor.
  void Stop();

  /// Enqueues one batch (the local equivalent of a kServeIngest frame).
  /// Returns the queue depth after the enqueue.
  uint64_t SubmitBatch(EdgeBatch batch);

  /// Blocks until the queue is empty and no epoch is in flight (test/tool
  /// helper). Returns the first epoch error, if any occurred.
  Status WaitIdle();

  const SnapshotBoard& board() const { return board_; }
  uint64_t epochs_committed() const;
  uint64_t queue_depth() const;
  /// Snapshot of the per-epoch metrics recorded so far.
  std::vector<EpochMetrics> metrics() const;
  /// The kServeStats view (also what the RPC handler serves).
  StatsResponse Stats() const;

 private:
  void EpochLoop();
  /// Gathers values from the engine and publishes a fresh snapshot.
  Status PublishSnapshot(uint64_t timestamp);
  Status AppendMetricsFiles();

  AnyEngine* engine_;
  Options options_;
  SnapshotBoard board_;

  mutable std::mutex mu_;               // queue + flags + metrics
  std::condition_variable queue_cv_;    // epoch thread wakeup
  std::condition_variable idle_cv_;     // WaitIdle wakeup
  std::deque<EdgeBatch> queue_;
  bool running_ = false;
  bool stop_ = false;
  bool epoch_in_flight_ = false;
  uint64_t batches_ingested_ = 0;
  std::vector<EpochMetrics> metrics_;
  Status first_error_;
  std::chrono::steady_clock::time_point last_publish_;
  std::thread epoch_thread_;
};

}  // namespace hybridgraph
