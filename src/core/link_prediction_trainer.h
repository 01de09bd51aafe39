// End-to-end link-prediction training (Sections 3 and 5.1).
//
// Supports every configuration the paper evaluates:
//  - decoder-only knowledge-graph models (empty fanouts: DistMult/TransE/ComplEx as in
//    Marius) and k-layer GNN encoders (GraphSage/GCN/GAT);
//  - in-memory training (the whole graph resident) and disk-based training through the
//    partition buffer with a COMET or BETA replacement policy;
//  - DENSE sampling (MariusGNN) or baseline layer-wise sampling + block execution
//    (in-memory only, mirroring DGL/PyG's capabilities);
//  - pipelined mini-batch construction.
//
// The model itself (encoder/decoder/optimizer/samplers) lives in the inherited
// ModelState (src/core/model.h); this class adds the embedding storage, the
// disk partition policies, and the training loop.
#ifndef SRC_CORE_LINK_PREDICTION_TRAINER_H_
#define SRC_CORE_LINK_PREDICTION_TRAINER_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/core/config.h"
#include "src/core/trainer_base.h"
#include "src/graph/graph.h"
#include "src/graph/partition.h"
#include "src/policy/policy.h"
#include "src/sampler/negative.h"
#include "src/storage/embedding_store.h"
#include "src/storage/partition_buffer.h"

namespace mariusgnn {

class LinkPredictionTrainer : public TrainerBase {
 public:
  LinkPredictionTrainer(const Graph* graph, TrainingConfig config);
  ~LinkPredictionTrainer() override;

  // Ranking MRR with shared uniform negatives, averaged over dst- and src-corruption.
  // Evaluates on up to max_edges test (or valid) edges. With filtered=true, negatives
  // that form true edges of the graph are excluded from the ranking (the standard
  // "filtered" knowledge-graph protocol); the default raw protocol matches the paper.
  double EvaluateMrr(int64_t num_negatives = 500, int64_t max_edges = 2000,
                     bool use_valid = false, bool filtered = false);

  const Partitioning* partitioning() const { return partitioning_.get(); }

 protected:
  EpochStats TrainEpochImpl() override;
  // Checkpoint extras: the embedding table (values + Adagrad state). In disk
  // mode the sections are streamed partition-by-partition through
  // PartitionBuffer::ExportPartition / ImportPartition, so the save/restore
  // path never materialises the full table in memory.
  void AppendCheckpointSections(CheckpointSaveRequest* request) override;
  void RestoreCheckpointSections(CheckpointReader& reader) override;
  size_t NumExtraCheckpointSections() const override { return 2; }

  // Streaming producer for one embedding section ("embeddings.values" or
  // "embeddings.state") in disk mode: exports each partition into a one-
  // partition scratch and scatters its rows to their node-indexed positions.
  CheckpointSectionSpec MakeBufferSectionSpec(const char* name, bool state_stream);

 private:
  struct PreparedBatch;

  // Pipeline stage 1 (worker threads): builds one mini batch of edge ids. Pure in
  // `batch_seed`: negatives and neighborhood samples come from seed-derived RNG
  // streams, so the batch does not depend on worker scheduling. The samplers must
  // already point at the active NeighborIndex (RunBatches sets this up).
  PreparedBatch PrepareBatch(const std::vector<int64_t>& edge_ids,
                             const UniformNegativeSampler& negatives,
                             uint64_t batch_seed) const;
  // Pipeline stage 3 (calling thread, in batch order): forward/backward, then
  // the update through the gradient-exchange seam (ExchangeApply), which also
  // folds the exchanged losses into `stats` and the determinism hash.
  void ConsumeBatch(PreparedBatch& batch, EpochStats* stats);

  // Builds the epoch's PipelineSession: one session spans all partition sets, so
  // the stage-1 workers launch once per epoch, not once per set. The producer
  // closure reads the run_* members below, which RunBatches swaps between
  // segments.
  std::unique_ptr<PipelineSession> MakeSession(EpochStats* stats);

  // Runs one partition set's batches of `edge_ids` (already shuffled) as a session
  // segment; config_.pipeline.enabled / pipeline.workers chose serial vs parallel
  // construction when the session was built. The segment's stage timings are
  // folded into `stats`.
  void RunBatches(const std::vector<int64_t>& edge_ids, const NeighborIndex& index,
                  const UniformNegativeSampler& negatives, PipelineSession* session,
                  EpochStats* stats);

  EpochStats TrainEpochInMemory();
  EpochStats TrainEpochDisk();

  // Representations of `nodes` for evaluation, using full-graph sampling over
  // `values` (the exported/in-memory base representations).
  Tensor InferReprs(const std::vector<int64_t>& nodes, const Tensor& values,
                    const NeighborIndex& index);

  // Current segment's producer state, swapped by RunBatches between partition
  // sets. Safe without locks: workers never claim an index beyond the announced
  // limit, so no producer runs while these change (ordered by the session's gate).
  const std::vector<int64_t>* run_ids_ = nullptr;
  const UniformNegativeSampler* run_negatives_ = nullptr;
  uint64_t run_seed_ = 0;
  int64_t run_batch_base_ = 0;
  int64_t run_total_ = 0;

  // In-memory state.
  std::unique_ptr<InMemoryEmbeddingStore> mem_store_;
  std::unique_ptr<NeighborIndex> full_index_;

  // Disk state.
  std::unique_ptr<Partitioning> partitioning_;
  std::unique_ptr<PartitionBuffer> buffer_;
  std::unique_ptr<BufferedEmbeddingStore> disk_store_;
  std::unique_ptr<OrderingPolicy> policy_;
  std::vector<char> is_train_edge_;

  // Lazily built true-edge set for the filtered MRR protocol.
  std::unordered_set<uint64_t> true_edges_;

  EmbeddingStore* store_ = nullptr;  // active store (memory or disk)
};

}  // namespace mariusgnn

#endif  // SRC_CORE_LINK_PREDICTION_TRAINER_H_
