#include "src/core/trainer_base.h"

#include <cstring>

#include "src/core/checkpoint.h"
#include "src/storage/embedding_store.h"
#include "src/storage/partition_buffer.h"
#include "src/util/check.h"

namespace mariusgnn {

TrainerBase::TrainerBase(const Graph* graph, TrainingConfig config, TaskKind kind)
    : graph_(graph),
      config_(std::move(config)),
      rng_(config_.seed),
      compute_(config_.MakeComputeContext(&compute_stats_)),
      model_(ModelState::Build(kind, *graph, config_.model_config(), rng_)) {
  model_.SetCompute(&compute_);
  exchange_ = config_.MakeGradientExchange();
  replica_.rank = exchange_->rank();
  replica_.world = exchange_->world();
  if (config_.checkpoint.every_n_epochs > 0) {
    MG_CHECK_MSG(!config_.checkpoint.path.empty(),
                 "checkpoint_every_n_epochs requires checkpoint_path");
  }
}

TrainerBase::~TrainerBase() = default;

EpochStats TrainerBase::TrainEpoch() {
  epoch_determinism_.Reset();
  const uint64_t rv_before = RvRuntime::Global().TotalViolations();
  EpochStats stats = TrainEpochImpl();
  last_determinism_hash_ = epoch_determinism_.value();
  stats.determinism_hash = last_determinism_hash_;
  // Cross-replica exchange-and-compare: every rank folded the identical loss
  // stream, so all hashes must agree with rank 0's; any disagreement reports a
  // comm.replica_hash violation inside the exchange (counted in rv_violations
  // below). Identity for world == 1.
  exchange_->ExchangeEpochHash(last_determinism_hash_);
  const CommStats comm = exchange_->ConsumeStats();
  stats.AccumulateComm(comm.blocking_seconds, comm.background_seconds,
                       stats.compute_seconds);
  stats.comm_bytes = comm.bytes_sent + comm.bytes_received;
  stats.rv_violations = RvRuntime::Global().TotalViolations() - rv_before;
  ++epochs_completed_;
  // Auto-save on rank 0 only: every replica runs the identical config, so with
  // world > 1 all ranks would otherwise race on the same checkpoint path (and
  // the same '<path>.tmp' staging file, which PruneCheckpoints also treats as
  // stale debris — a concurrent save from another rank could be corrupted or
  // deleted mid-write). Replica state is bitwise-identical at every epoch
  // boundary (asserted by the hash exchange above), so rank 0's snapshot is
  // everyone's snapshot. The hash exchange is also a rendezvous that runs
  // after the impl's synchronous flush, so rank 0 reads fully-written shared
  // storage. docs/DISTRIBUTED.md documents the contract.
  if (replica_.rank == 0 && config_.checkpoint.every_n_epochs > 0 &&
      epochs_completed_ % config_.checkpoint.every_n_epochs == 0) {
    if (config_.checkpoint.keep_last_k > 0) {
      // Keep-last-k retention: each save lands in its own per-epoch file, and
      // only after a successful Commit are the oldest files (and any stale
      // .tmp debris from crashed saves) pruned — the file just written is
      // never a deletion candidate.
      const std::string epoch_path =
          CheckpointEpochPath(config_.checkpoint.path, epochs_completed_);
      SaveCheckpoint(epoch_path);
      PruneCheckpoints(config_.checkpoint.path, config_.checkpoint.keep_last_k,
                       epoch_path);
    } else {
      SaveCheckpoint(config_.checkpoint.path);
    }
    stats.checkpoint_save_seconds = last_checkpoint_stats_.seconds;
    stats.checkpoint_peak_bytes = last_checkpoint_stats_.peak_bytes;
  }
  return stats;
}

void TrainerBase::SharedWritebackBarrier(PartitionBuffer* buffer) {
  if (buffer == nullptr || !buffer->partition_ownership_active()) {
    return;
  }
  // Local half: this rank's dirty evictions may still be queued in the IO
  // engine — only a completed write makes the shared file safe to re-read.
  buffer->DrainIo();
  // Global half: no rank proceeds (and thus re-admits a partition) until every
  // rank's own write-backs are durable.
  exchange_->Barrier();
}

void TrainerBase::ExchangeApply(bool has_batch, float loss,
                                const std::vector<int64_t>* sparse_nodes,
                                const Tensor* sparse_grads,
                                EmbeddingStore* sparse_store, float sparse_lr,
                                EpochStats* stats) {
  GradientStep step;
  step.has_batch = has_batch;
  step.loss = loss;
  step.dense = &model_.params;
  step.sparse_nodes = sparse_nodes;
  step.sparse_grads = sparse_grads;
  const ReducedStep& reduced = exchange_->Exchange(step);

  // Fold every contributed rank's loss in ascending rank order — the global
  // batch order — so all replicas hash and average the identical loss stream
  // (the in-order consumer makes this the epoch's determinism hash).
  const int32_t world = exchange_->world();
  for (int32_t r = 0; r < world; ++r) {
    if (reduced.contributed[static_cast<size_t>(r)] != 0) {
      epoch_determinism_.FoldFloat(reduced.losses[static_cast<size_t>(r)]);
      stats->loss += reduced.losses[static_cast<size_t>(r)];
      ++stats->num_global_batches;
    }
  }

  // Apply the merged sparse rows, then the reduced dense gradients — the two
  // touch disjoint parameters, preserving the historical sparse-then-dense
  // order inside the trainers' consume step.
  if (sparse_store != nullptr && reduced.sparse_nodes != nullptr &&
      !reduced.sparse_nodes->empty()) {
    sparse_store->ApplyGradients(*reduced.sparse_nodes, *reduced.sparse_grads,
                                 sparse_lr);
  }
  if (!model_.params.empty()) {
    if (reduced.dense != nullptr) {
      model_.weight_opt->StepAllFromReduced(model_.params, *reduced.dense);
    } else {
      model_.weight_opt->StepAll(model_.params);
    }
  }
}

void TrainerBase::AppendCheckpointSections(CheckpointSaveRequest* request) {
  (void)request;
}

void TrainerBase::RestoreCheckpointSections(CheckpointReader& reader) {
  (void)reader;
}

size_t TrainerBase::NumExtraCheckpointSections() const { return 0; }

void TrainerBase::SaveCheckpoint(const std::string& path) {
  CheckpointSaveRequest request;
  BuildTrainerCheckpointRequest(CheckpointKindName(model_.kind), config_.seed,
                                epochs_completed_, rng_, model_.params,
                                &request);
  // Last completed epoch's determinism hash, bitcast into the named-scalar
  // list (docs/CHECKPOINT_FORMAT.md): the resumed trainer re-exposes it, so a
  // replica can compare trajectories against the checkpointed run with one u64
  // and no new manifest version.
  int64_t hash_bits = 0;
  std::memcpy(&hash_bits, &last_determinism_hash_, sizeof(hash_bits));
  request.scalars.emplace_back("determinism_hash", hash_bits);
  AppendCheckpointSections(&request);
  last_checkpoint_stats_ = SaveCheckpointStreaming(request, path);
}

void TrainerBase::ResumeFrom(const std::string& path) {
  CheckpointReader reader;
  std::string error;
  MG_CHECK_MSG(reader.Open(path, &error), error.c_str());
  // Validate the full data block BEFORE touching any trainer state, preserving
  // the all-or-nothing restore contract the whole-file loader provided.
  MG_CHECK_MSG(reader.VerifyDataChecksum(&error), error.c_str());
  RestoreTrainerCheckpointCore(reader, CheckpointKindName(model_.kind),
                               config_.seed, NumExtraCheckpointSections(),
                               model_.params, &rng_, &epochs_completed_);
  const int64_t hash_bits = reader.manifest().scalar("determinism_hash", 0);
  std::memcpy(&last_determinism_hash_, &hash_bits, sizeof(last_determinism_hash_));
  RestoreCheckpointSections(reader);
}

}  // namespace mariusgnn
