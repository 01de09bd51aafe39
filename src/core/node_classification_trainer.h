// End-to-end node-classification training (Sections 3 and 5.2).
//
// Fixed node features feed a k-layer GNN encoder plus a linear/softmax head. Storage
// modes:
//  - in-memory: features and graph resident, full-graph neighbor sampling;
//  - disk: features stored per-partition on the simulated disk; training nodes are
//    packed into the leading partitions and cached in CPU memory for the whole epoch
//    (the Section 5.2 policy), with sampling restricted to the in-memory subgraph.
//
// The model itself (encoder/head/optimizer/samplers) lives in the inherited
// ModelState (src/core/model.h); this class adds the feature storage and the
// training loop.
#ifndef SRC_CORE_NODE_CLASSIFICATION_TRAINER_H_
#define SRC_CORE_NODE_CLASSIFICATION_TRAINER_H_

#include <memory>
#include <vector>

#include "src/core/config.h"
#include "src/core/trainer_base.h"
#include "src/graph/graph.h"
#include "src/graph/partition.h"
#include "src/policy/node_caching.h"
#include "src/storage/embedding_store.h"
#include "src/storage/partition_buffer.h"

namespace mariusgnn {

class NodeClassificationTrainer : public TrainerBase {
 public:
  NodeClassificationTrainer(const Graph* graph, TrainingConfig config);
  ~NodeClassificationTrainer() override;

  // Multi-class accuracy over a node split, computed with full-graph sampling.
  double EvaluateAccuracy(const std::vector<int64_t>& nodes);
  double EvaluateTestAccuracy() { return EvaluateAccuracy(graph_->test_nodes()); }
  double EvaluateValidAccuracy() { return EvaluateAccuracy(graph_->valid_nodes()); }

 protected:
  // Features are fixed inputs, so the checkpoint has no extra sections beyond
  // the model parameters (TrainerBase defaults).
  EpochStats TrainEpochImpl() override;

 private:
  struct PreparedBatch;

  // Pipeline stage 1 (worker threads): pure in `batch_seed`, read-only state; the
  // samplers must already point at the active NeighborIndex (RunBatches does this).
  PreparedBatch PrepareBatch(const std::vector<int64_t>& nodes, uint64_t batch_seed) const;
  // Pipeline stage 3 (calling thread, in batch order): forward/backward, then
  // the dense-weight update through the gradient-exchange seam (ExchangeApply).
  void ConsumeBatch(PreparedBatch& batch, EpochStats* stats);
  // Builds the epoch's PipelineSession (one session spans all partition sets; the
  // producer closure reads the run_* members RunBatches swaps between segments).
  std::unique_ptr<PipelineSession> MakeSession(EpochStats* stats);
  // Runs one partition set's batches as a session segment (serial when
  // !config_.pipeline.enabled) and folds its timings into `stats`.
  void RunBatches(const std::vector<int64_t>& nodes, const NeighborIndex& index,
                  PipelineSession* session, EpochStats* stats);
  Tensor GatherFeatures(const std::vector<int64_t>& nodes, bool from_graph);
  Tensor InferLogits(const std::vector<int64_t>& nodes, const NeighborIndex& index);

  // Current segment's producer state, swapped by RunBatches between partition
  // sets (safe: workers never claim an index beyond the announced limit).
  const std::vector<int64_t>* run_nodes_ = nullptr;
  uint64_t run_seed_ = 0;
  int64_t run_batch_base_ = 0;
  int64_t run_total_ = 0;

  std::unique_ptr<NeighborIndex> full_index_;

  // Disk state (features are read-only: no write-back).
  std::unique_ptr<Partitioning> partitioning_;
  std::unique_ptr<PartitionBuffer> buffer_;
  std::unique_ptr<BufferedEmbeddingStore> buffer_store_;  // chunked Gather over buffer_
  NodeCachingPolicy caching_policy_;
  bool use_buffer_features_ = false;  // true while training from resident partitions
};

}  // namespace mariusgnn

#endif  // SRC_CORE_NODE_CLASSIFICATION_TRAINER_H_
