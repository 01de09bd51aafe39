// Link-prediction score functions (decoders) over node representations.
//
// Training follows the Marius/DGL-KE scheme the paper uses: each positive edge
// (s, r, o) is scored against a set of shared negative nodes that corrupt the
// destination and (separately) the source; the loss is softmax cross-entropy with the
// positive in class 0, averaged over both corruption sides.
//
// Decoders implemented: DistMult (the paper's evaluation decoder), TransE and ComplEx
// (the specialised knowledge-graph models subsumed per Section 1).
#ifndef SRC_NN_DECODER_H_
#define SRC_NN_DECODER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/nn/parameter.h"
#include "src/tensor/tensor.h"
#include "src/util/compute.h"
#include "src/util/rng.h"

namespace mariusgnn {

class Decoder {
 public:
  virtual ~Decoder() = default;

  // Stage-3 parallel-compute handle. LossAndGrad splits the positive edges into
  // fixed chunks; each chunk scores and back-propagates into private gradient
  // partials that are folded in ascending chunk order, so the result is
  // bitwise-identical for any pool size (null = serial over the same chunks).
  void set_compute(const ComputeContext* compute) { compute_ = compute; }

  // Computes the mean softmax-CE ranking loss for `src_rows/dst_rows/rels` (parallel
  // arrays of edges; rows index into `reprs`) against shared negatives `neg_rows`.
  // Accumulates d loss / d reprs into *d_reprs (must be pre-sized reprs.rows() x dim)
  // and relation-parameter gradients. Returns the loss.
  float LossAndGrad(const Tensor& reprs, const std::vector<int64_t>& src_rows,
                    const std::vector<int64_t>& dst_rows, const std::vector<int32_t>& rels,
                    const std::vector<int64_t>& neg_rows, Tensor* d_reprs);

  // out[j] = score(src, rel, cand_j); used for MRR ranking. corrupt_src=true scores
  // (cand_j, rel, dst_row_or_src...) with the candidate on the source side.
  virtual void ScoreCandidates(const Tensor& reprs, int64_t fixed_row, int32_t rel,
                               const std::vector<int64_t>& cand_rows, bool corrupt_src,
                               std::vector<float>* out) const = 0;

  std::vector<Parameter*> Parameters() { return {&rel_}; }
  virtual std::string name() const = 0;

 protected:
  Decoder(int32_t num_relations, int64_t dim, float init_scale, Rng& rng)
      : dim_(dim), rel_(Tensor::Uniform(num_relations, dim, init_scale, rng)) {}

  // One corruption side of a batch, shared read-only by all of its chunks.
  struct Side {
    const Tensor& reprs;
    const std::vector<int64_t>& src_rows;
    const std::vector<int64_t>& dst_rows;
    const std::vector<int32_t>& rels;
    const std::vector<int64_t>& neg_rows;
    // The negatives' rows gathered dim-major: element d of negative j sits at
    // neg_block[d * block_stride + j]; block_stride pads neg_rows.size() with zero
    // columns up to a whole number of scoring lanes.
    const float* neg_block;
    int64_t block_stride;
    bool corrupt_src;
    float inv_b;  // loss scale / batch size
  };

  // Edges [begin, end) of one side: accumulates gradients into d_out/rel_grad (the
  // real accumulators with null remaps, or per-chunk compact partials indexed via
  // slot_of[global row] / rel_slot_of[relation]) and returns the unscaled loss sum.
  virtual double SideLossChunk(const Side& side, int64_t begin, int64_t end, Tensor* d_out,
                               Tensor* rel_grad, const int32_t* slot_of,
                               const int32_t* rel_slot_of) const = 0;

  int64_t dim_;
  Parameter rel_;  // num_relations x dim
  const ComputeContext* compute_ = nullptr;

 private:
  // One corruption side of the loss. Its gradients and returned loss are scaled by
  // side.inv_b (the side's weight over the batch size), so two sides can be averaged
  // without rescaling accumulated gradients.
  float SideLossAndGrad(const Side& side, Tensor* d_reprs);
};

// The per-edge loss kernel and candidate scoring, instantiated for one score
// function `Fn` (defined, with the kernels, in decoder.cc).
template <class Fn>
class ScoredDecoder : public Decoder {
 public:
  void ScoreCandidates(const Tensor& reprs, int64_t fixed_row, int32_t rel,
                       const std::vector<int64_t>& cand_rows, bool corrupt_src,
                       std::vector<float>* out) const override;

 protected:
  using Decoder::Decoder;

  double SideLossChunk(const Side& side, int64_t begin, int64_t end, Tensor* d_out,
                       Tensor* rel_grad, const int32_t* slot_of,
                       const int32_t* rel_slot_of) const override;

 private:
  template <bool kCorruptSrc>
  double SideChunk(const Side& side, int64_t begin, int64_t end, Tensor* d_out,
                   Tensor* rel_grad, const int32_t* slot_of, const int32_t* rel_slot_of) const;
};

struct DistMultScore;
struct TransEScore;
struct ComplExScore;
extern template class ScoredDecoder<DistMultScore>;
extern template class ScoredDecoder<TransEScore>;
extern template class ScoredDecoder<ComplExScore>;

// score(s, r, o) = sum_d s_d * r_d * o_d.
class DistMultDecoder : public ScoredDecoder<DistMultScore> {
 public:
  DistMultDecoder(int32_t num_relations, int64_t dim, Rng& rng)
      : ScoredDecoder(num_relations, dim, 0.5f, rng) {}

  std::string name() const override { return "DistMult"; }
};

// score(s, r, o) = -||s + r - o||^2.
class TransEDecoder : public ScoredDecoder<TransEScore> {
 public:
  TransEDecoder(int32_t num_relations, int64_t dim, Rng& rng)
      : ScoredDecoder(num_relations, dim, 0.5f, rng) {}

  std::string name() const override { return "TransE"; }
};

// score(s, r, o) = Re(<s, r, conj(o)>); dim must be even (first half real, second
// half imaginary).
class ComplExDecoder : public ScoredDecoder<ComplExScore> {
 public:
  ComplExDecoder(int32_t num_relations, int64_t dim, Rng& rng)
      : ScoredDecoder(num_relations, dim, 0.5f, rng) {
    MG_CHECK(dim % 2 == 0);
  }

  std::string name() const override { return "ComplEx"; }
};

std::unique_ptr<Decoder> MakeDecoder(const std::string& name, int32_t num_relations,
                                     int64_t dim, Rng& rng);

}  // namespace mariusgnn

#endif  // SRC_NN_DECODER_H_
