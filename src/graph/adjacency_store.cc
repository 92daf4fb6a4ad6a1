#include "graph/adjacency_store.h"

#include <algorithm>

#include "util/codec.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace hybridgraph {

AdjacencyStore::AdjacencyStore(StorageService* storage,
                               const RangePartition& partition, NodeId node)
    : storage_(storage), partition_(&partition), node_(node) {}

std::string AdjacencyStore::BlockKey(uint32_t global_vb) const {
  return StringFormat("node%u/adj/%06u", node_, global_vb);
}

uint32_t AdjacencyStore::LocalVb(uint32_t global_vb) const {
  return global_vb - partition_->FirstVblockOf(node_);
}

Result<std::unique_ptr<AdjacencyStore>> AdjacencyStore::Build(
    StorageService* storage, const RangePartition& partition, NodeId node,
    const std::vector<RawEdge>& local_edges) {
  std::unique_ptr<AdjacencyStore> store(
      new AdjacencyStore(storage, partition, node));
  const VertexRange node_range = partition.NodeRange(node);

  // Bucket out-edges per local vertex.
  std::vector<std::vector<Edge>> adj(node_range.size());
  for (const auto& e : local_edges) {
    if (!node_range.Contains(e.src)) {
      return Status::InvalidArgument("edge with non-local source in Build");
    }
    adj[e.src - node_range.begin].push_back({e.dst, e.weight});
  }

  const uint32_t first_vb = partition.FirstVblockOf(node);
  const uint32_t last_vb = partition.LastVblockOf(node);
  store->block_bytes_.resize(last_vb - first_vb, 0);
  store->block_edges_.resize(last_vb - first_vb, 0);

  for (uint32_t vb = first_vb; vb < last_vb; ++vb) {
    const VertexRange r = partition.VblockRange(vb);
    Buffer buf;
    Encoder enc(&buf);
    uint64_t edges = 0;
    for (VertexId v = r.begin; v < r.end; ++v) {
      const auto& out = adj[v - node_range.begin];
      enc.PutFixed32(v);
      enc.PutVarint64(out.size());
      for (const auto& edge : out) {
        enc.PutFixed32(edge.dst);
        enc.PutFloat(edge.weight);
      }
      edges += out.size();
    }
    HG_RETURN_IF_ERROR(
        storage->Write(store->BlockKey(vb), buf.AsSlice(), IoClass::kSeqWrite));
    store->block_bytes_[vb - first_vb] = buf.size();
    store->block_edges_[vb - first_vb] = edges;
  }
  return store;
}

Status AdjacencyStore::ReadBlock(uint32_t global_vb,
                                 std::vector<VertexAdj>* out,
                                 ReadPipeline* pipeline) {
  const std::string key = BlockKey(global_vb);
  const ReadOptions opts{.io_class = IoClass::kSeqRead};
  auto read = pipeline ? pipeline->Fetch(key, opts) : storage_->Read(key, opts);
  if (!read.ok()) return read.status();
  const std::vector<uint8_t>& raw = read->data;
  const VertexRange r = partition_->VblockRange(global_vb);
  Decoder dec{Slice(raw)};
  out->clear();
  out->reserve(r.size());
  for (uint32_t i = 0; i < r.size(); ++i) {
    VertexAdj va;
    uint64_t count = 0;
    HG_RETURN_IF_ERROR(dec.GetFixed32(&va.id));
    HG_RETURN_IF_ERROR(dec.GetVarint64(&count));
    va.out.resize(count);
    for (uint64_t k = 0; k < count; ++k) {
      HG_RETURN_IF_ERROR(dec.GetFixed32(&va.out[k].dst));
      HG_RETURN_IF_ERROR(dec.GetFloat(&va.out[k].weight));
    }
    out->push_back(std::move(va));
  }
  if (!dec.AtEnd()) return Status::Corruption("trailing bytes in adjacency block");
  return Status::OK();
}

void AdjacencyStore::PrefetchBlock(uint32_t global_vb, ReadPipeline* pipeline) {
  if (pipeline == nullptr) return;
  pipeline->Schedule(BlockKey(global_vb),
                     ReadOptions{.io_class = IoClass::kSeqRead});
}

Status AdjacencyStore::ApplyBatch(const std::vector<EdgeDelta>& deltas,
                                  DegreeDeltaMap* degree_delta) {
  const VertexRange node_range = partition_->NodeRange(node_);
  // Group per touched block, preserving batch order (deltas with the same
  // (src, dst) always share a block, so cross-block order is free).
  std::map<uint32_t, std::vector<EdgeDelta>> grouped;
  for (const auto& d : deltas) {
    if (!node_range.Contains(d.src)) {
      return Status::InvalidArgument("delta with non-local source in ApplyBatch");
    }
    grouped[partition_->VblockOf(d.src)].push_back(d);
  }
  std::vector<VertexAdj> block;
  for (auto& [vb, entries] : grouped) {
    HG_RETURN_IF_ERROR(ReadBlock(vb, &block, nullptr));
    const VertexRange r = partition_->VblockRange(vb);
    for (const auto& d : entries) {
      VertexAdj& va = block[d.src - r.begin];
      if (d.is_delete) {
        const size_t before = va.out.size();
        va.out.erase(std::remove_if(va.out.begin(), va.out.end(),
                                    [&](const Edge& e) {
                                      return e.dst == d.dst;
                                    }),
                     va.out.end());
        const size_t removed = before - va.out.size();
        if (removed > 0 && degree_delta != nullptr) {
          (*degree_delta)[d.src] -= static_cast<int64_t>(removed);
        }
      } else {
        va.out.push_back({d.dst, d.weight});
        if (degree_delta != nullptr) (*degree_delta)[d.src] += 1;
      }
    }
    Buffer buf;
    Encoder enc(&buf);
    uint64_t edges = 0;
    for (const auto& va : block) {
      enc.PutFixed32(va.id);
      enc.PutVarint64(va.out.size());
      for (const auto& edge : va.out) {
        enc.PutFixed32(edge.dst);
        enc.PutFloat(edge.weight);
      }
      edges += va.out.size();
    }
    HG_RETURN_IF_ERROR(
        storage_->Write(BlockKey(vb), buf.AsSlice(), IoClass::kSeqWrite));
    block_bytes_[LocalVb(vb)] = buf.size();
    block_edges_[LocalVb(vb)] = edges;
  }
  return Status::OK();
}

uint64_t AdjacencyStore::BlockBytes(uint32_t global_vb) const {
  return block_bytes_[LocalVb(global_vb)];
}

uint64_t AdjacencyStore::BlockEdges(uint32_t global_vb) const {
  return block_edges_[LocalVb(global_vb)];
}

uint64_t AdjacencyStore::TotalBytes() const {
  uint64_t t = 0;
  for (auto b : block_bytes_) t += b;
  return t;
}

uint64_t AdjacencyStore::TotalEdges() const {
  uint64_t t = 0;
  for (auto e : block_edges_) t += e;
  return t;
}

}  // namespace hybridgraph
