#include "src/nn/decoder.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/ops.h"
#include "src/util/check.h"
#include "src/util/slot_remap.h"

namespace mariusgnn {

namespace {

// Gradient row for `row`: direct, or through the chunk's compact-slot remap.
inline float* GradRow(Tensor* t, const int32_t* slot_of, int64_t row) {
  return t->RowPtr(slot_of == nullptr ? row : slot_of[static_cast<size_t>(row)]);
}

// Per-thread repr-row and relation remaps for the chunked loss kernel (see
// slot_remap.h): bumping a generation replaces the O(num_rows) sentinel fill a
// fresh remap would pay in every 128-edge chunk. SideLossChunk only dereferences
// rows the claim pass touched, so stale entries are never read.
thread_local SlotRemap decoder_row_remap;
thread_local SlotRemap decoder_rel_remap;

// Negatives scored per block: one accumulator each, four SSE registers.
constexpr int64_t kLanes = 16;

// out[l] = step(...step(step(0, 0, l), 1, l)..., steps - 1, l) for l < kLanes: every
// lane folds d in ascending order into its own accumulator.
template <class Step>
inline void SumLanes(int64_t steps, float* out, const Step& step) {
  float acc[kLanes] = {};
  for (int64_t d = 0; d < steps; ++d) {
    for (int64_t l = 0; l < kLanes; ++l) {
      acc[l] = step(acc[l], d, l);
    }
  }
  std::copy(acc, acc + kLanes, out);
}

}  // namespace

// Score functions. Each supplies the scalar Score (its sum over d is the order
// every other path reproduces), lane-blocked scoring of kLanes negatives at once,
// and the per-element gradient terms. Lane l of a block keeps its own accumulator
// and sums d in ascending order, so it rounds exactly like Score; only
// subexpressions that are a left operand in Score (evaluated first in C++) are
// hoisted out of the lanes. See docs/DETERMINISM.md, "Kernel rewrites that keep
// the bits".
//
// ScoreDst scores destination-side negatives, score(s, r, n_l), from
// h = Hoist(s, r); ScoreSrc scores source-side ones, score(n_l, r, o). `nb` points
// at the block's first lane in the dim-major negative block of row stride
// `stride`. GradS/GradR/GradO give element e of coeff * dScore/ds, /dr, /do: kParts
// floats, part p at offset p * elems of the row.
struct DistMultScore {
  static float Score(const float* s, const float* r, const float* o, int64_t dim) {
    float v = 0.0f;
    for (int64_t d = 0; d < dim; ++d) {
      v += s[d] * r[d] * o[d];
    }
    return v;
  }

  static void Hoist(const float* s, const float* r, int64_t dim, float* h) {
    for (int64_t d = 0; d < dim; ++d) {
      h[d] = s[d] * r[d];
    }
  }

  static void ScoreDst(const float* h, const float* nb, int64_t stride, int64_t dim,
                       float* out) {
    SumLanes(dim, out, [&](float v, int64_t d, int64_t l) {
      return v + h[d] * nb[d * stride + l];
    });
  }

  static void ScoreSrc(const float* r, const float* o, const float* nb, int64_t stride,
                       int64_t dim, float* out) {
    SumLanes(dim, out, [&](float v, int64_t d, int64_t l) {
      return v + nb[d * stride + l] * r[d] * o[d];
    });
  }

  static constexpr int kParts = 1;
  static void GradS(float c, const float* /*s*/, const float* r, const float* o, int64_t e,
                    int64_t /*elems*/, float* g) {
    g[0] = c * r[e] * o[e];
  }
  static void GradR(float c, const float* s, const float* /*r*/, const float* o, int64_t e,
                    int64_t /*elems*/, float* g) {
    g[0] = c * s[e] * o[e];
  }
  static void GradO(float c, const float* s, const float* r, const float* /*o*/, int64_t e,
                    int64_t /*elems*/, float* g) {
    g[0] = c * s[e] * r[e];
  }
};

struct TransEScore {
  static float Score(const float* s, const float* r, const float* o, int64_t dim) {
    float v = 0.0f;
    for (int64_t d = 0; d < dim; ++d) {
      const float diff = s[d] + r[d] - o[d];
      v -= diff * diff;
    }
    return v;
  }

  static void Hoist(const float* s, const float* r, int64_t dim, float* h) {
    for (int64_t d = 0; d < dim; ++d) {
      h[d] = s[d] + r[d];
    }
  }

  static void ScoreDst(const float* h, const float* nb, int64_t stride, int64_t dim,
                       float* out) {
    SumLanes(dim, out, [&](float v, int64_t d, int64_t l) {
      const float diff = h[d] - nb[d * stride + l];
      return v - diff * diff;
    });
  }

  static void ScoreSrc(const float* r, const float* o, const float* nb, int64_t stride,
                       int64_t dim, float* out) {
    SumLanes(dim, out, [&](float v, int64_t d, int64_t l) {
      const float diff = nb[d * stride + l] + r[d] - o[d];
      return v - diff * diff;
    });
  }

  static constexpr int kParts = 1;
  static void GradS(float c, const float* s, const float* r, const float* o, int64_t e,
                    int64_t /*elems*/, float* g) {
    g[0] = -2.0f * (s[e] + r[e] - o[e]) * c;
  }
  static void GradR(float c, const float* s, const float* r, const float* o, int64_t e,
                    int64_t elems, float* g) {
    GradS(c, s, r, o, e, elems, g);
  }
  // do -= g, written as do += -g: IEEE defines a - b as a + (-b).
  static void GradO(float c, const float* s, const float* r, const float* o, int64_t e,
                    int64_t elems, float* g) {
    GradS(c, s, r, o, e, elems, g);
    g[0] = -g[0];
  }
};

// Rows hold [real half | imaginary half].
struct ComplExScore {
  static float Score(const float* s, const float* r, const float* o, int64_t dim) {
    const int64_t half = dim / 2;
    const float* sr = s;
    const float* si = s + half;
    const float* rr = r;
    const float* ri = r + half;
    const float* onr = o;
    const float* oni = o + half;
    float v = 0.0f;
    for (int64_t d = 0; d < half; ++d) {
      v += (sr[d] * rr[d] - si[d] * ri[d]) * onr[d] + (sr[d] * ri[d] + si[d] * rr[d]) * oni[d];
    }
    return v;
  }

  // The two complex partial products of s * r: [Re | Im].
  static void Hoist(const float* s, const float* r, int64_t dim, float* h) {
    const int64_t half = dim / 2;
    for (int64_t d = 0; d < half; ++d) {
      h[d] = s[d] * r[d] - s[d + half] * r[d + half];
      h[d + half] = s[d] * r[d + half] + s[d + half] * r[d];
    }
  }

  static void ScoreDst(const float* h, const float* nb, int64_t stride, int64_t dim,
                       float* out) {
    const int64_t half = dim / 2;
    const float* nbi = nb + half * stride;
    SumLanes(half, out, [&](float v, int64_t d, int64_t l) {
      return v + (h[d] * nb[d * stride + l] + h[d + half] * nbi[d * stride + l]);
    });
  }

  static void ScoreSrc(const float* r, const float* o, const float* nb, int64_t stride,
                       int64_t dim, float* out) {
    const int64_t half = dim / 2;
    const float* nbi = nb + half * stride;
    SumLanes(half, out, [&](float v, int64_t d, int64_t l) {
      const float nr = nb[d * stride + l], ni = nbi[d * stride + l];
      return v + ((nr * r[d] - ni * r[d + half]) * o[d] +
                  (nr * r[d + half] + ni * r[d]) * o[d + half]);
    });
  }

  // Element e is the complex pair (e, e + half): kParts = 2, elems = half.
  static constexpr int kParts = 2;
  static void GradS(float c, const float* /*s*/, const float* r, const float* o, int64_t e,
                    int64_t half, float* g) {
    const float rr = r[e], ri = r[e + half], onr = o[e], oni = o[e + half];
    g[0] = c * (rr * onr + ri * oni);
    g[1] = c * (rr * oni - ri * onr);
  }
  static void GradR(float c, const float* s, const float* /*r*/, const float* o, int64_t e,
                    int64_t half, float* g) {
    const float sr = s[e], si = s[e + half], onr = o[e], oni = o[e + half];
    g[0] = c * (sr * onr + si * oni);
    g[1] = c * (sr * oni - si * onr);
  }
  static void GradO(float c, const float* s, const float* r, const float* /*o*/, int64_t e,
                    int64_t half, float* g) {
    const float sr = s[e], si = s[e + half], rr = r[e], ri = r[e + half];
    g[0] = c * (sr * rr - si * ri);
    g[1] = c * (sr * ri + si * rr);
  }
};

namespace {

// row[e + p * elems] += g[p], g = grad(e), for every element in ascending order.
template <int kParts, class Grad>
inline void AddToRow(int64_t elems, float* __restrict row, const Grad& grad) {
  for (int64_t e = 0; e < elems; ++e) {
    float g[kParts];
    grad(e, g);
    for (int p = 0; p < kParts; ++p) {
      row[e + p * elems] += g[p];
    }
  }
}

// Adds the pair (ps, r, po)'s own-row term (its source term when kOwnIsSource, else
// its destination term) into `own` and its relation term into `rel` in one pass.
template <class Fn, bool kOwnIsSource>
inline void AddOwnAndRelation(float c, const float* ps, const float* r, const float* po,
                              int64_t elems, float* __restrict own, float* __restrict rel) {
  constexpr int kParts = Fn::kParts;
  for (int64_t e = 0; e < elems; ++e) {
    float g[kParts];
    if constexpr (kOwnIsSource) {
      Fn::GradS(c, ps, r, po, e, elems, g);
    } else {
      Fn::GradO(c, ps, r, po, e, elems, g);
    }
    for (int p = 0; p < kParts; ++p) {
      own[e + p * elems] += g[p];
    }
    Fn::GradR(c, ps, r, po, e, elems, g);
    for (int p = 0; p < kParts; ++p) {
      rel[e + p * elems] += g[p];
    }
  }
}

}  // namespace

// One chunk of positive edges of one side: scores each edge against the shared
// negatives and accumulates d loss / d reprs into `d_out` and relation gradients
// into `rel_grad`. `d_out`/`rel_grad` are either the real accumulators (single
// chunk, slot_of == rel_slot_of == nullptr) or per-chunk compact partials indexed
// through the slot remaps (parallel), so the per-edge arithmetic is identical
// either way.
//
// Backward must equal adding each pair's terms (the positive, then the negatives in
// ascending order) into its source, relation and destination rows in turn, element
// by element. The relation row (its own tensor) and the edge's own row (the source
// on the destination side, the destination on the source side) never alias, so
// they update in one __restrict pass. The pair's third row may be the same reprs
// row as the edge's own (a negative equal to this edge's source or destination, or
// a self-loop) and gets its own pass, before or after, so that every element still
// takes the source, relation and destination terms in that order.
template <class Fn>
template <bool kCorruptSrc>
double ScoredDecoder<Fn>::SideChunk(const Side& side, int64_t begin, int64_t end,
                                    Tensor* d_out, Tensor* rel_grad, const int32_t* slot_of,
                                    const int32_t* rel_slot_of) const {
  const int64_t dim = dim_;
  const int64_t m = static_cast<int64_t>(side.neg_rows.size());
  const int64_t stride = side.block_stride;
  // logits past 1 + m are the padded lanes' scratch.
  std::vector<float> logits(static_cast<size_t>(stride) + 1);
  std::vector<float> probs(static_cast<size_t>(m) + 1);
  std::vector<float> hoist(static_cast<size_t>(dim));
  constexpr int kParts = Fn::kParts;
  const int64_t elems = dim / kParts;
  double loss = 0.0;
  for (int64_t i = begin; i < end; ++i) {
    const int64_t src_row = side.src_rows[static_cast<size_t>(i)];
    const int64_t dst_row = side.dst_rows[static_cast<size_t>(i)];
    const int32_t rel = side.rels[static_cast<size_t>(i)];
    const float* s = side.reprs.RowPtr(src_row);
    const float* o = side.reprs.RowPtr(dst_row);
    const float* r = rel_.value.RowPtr(rel);

    logits[0] = Fn::Score(s, r, o, dim);
    if constexpr (kCorruptSrc) {
      for (int64_t j = 0; j < stride; j += kLanes) {
        Fn::ScoreSrc(r, o, side.neg_block + j, stride, dim,
                     &logits[static_cast<size_t>(j) + 1]);
      }
    } else {
      Fn::Hoist(s, r, dim, hoist.data());
      for (int64_t j = 0; j < stride; j += kLanes) {
        Fn::ScoreDst(hoist.data(), side.neg_block + j, stride, dim,
                     &logits[static_cast<size_t>(j) + 1]);
      }
    }

    // Softmax CE with the positive in class 0.
    float maxv = logits[0];
    for (int64_t j = 1; j <= m; ++j) {
      maxv = std::max(maxv, logits[static_cast<size_t>(j)]);
    }
    double denom = 0.0;
    for (size_t j = 0; j < probs.size(); ++j) {
      probs[j] = std::exp(logits[j] - maxv);
      denom += probs[j];
    }
    const float inv_denom = static_cast<float>(1.0 / denom);
    for (auto& p : probs) {
      p *= inv_denom;
    }
    loss -= std::log(std::max(probs[0], 1e-12f));

    // dlogit_0 = (p0 - 1)/B, dlogit_j = p_j/B.
    float* ds = GradRow(d_out, slot_of, src_row);
    float* do_ = GradRow(d_out, slot_of, dst_row);
    float* dr = GradRow(rel_grad, rel_slot_of, rel);
    const float c0 = (probs[0] - 1.0f) * side.inv_b;
    AddOwnAndRelation<Fn, true>(c0, s, r, o, elems, ds, dr);
    AddToRow<kParts>(elems, do_, [&](int64_t e, float* g) { Fn::GradO(c0, s, r, o, e, elems, g); });

    for (int64_t j = 0; j < m; ++j) {
      const float coeff = probs[static_cast<size_t>(j) + 1] * side.inv_b;
      if (coeff == 0.0f) {
        continue;
      }
      const int64_t nrow = side.neg_rows[static_cast<size_t>(j)];
      const float* n = side.reprs.RowPtr(nrow);
      float* dn = GradRow(d_out, slot_of, nrow);
      if constexpr (kCorruptSrc) {  // the pair is (n, r, o)
        AddToRow<kParts>(elems, dn,
                         [&](int64_t e, float* g) { Fn::GradS(coeff, n, r, o, e, elems, g); });
        AddOwnAndRelation<Fn, false>(coeff, n, r, o, elems, do_, dr);
      } else {  // the pair is (s, r, n)
        AddOwnAndRelation<Fn, true>(coeff, s, r, n, elems, ds, dr);
        AddToRow<kParts>(elems, dn,
                         [&](int64_t e, float* g) { Fn::GradO(coeff, s, r, n, e, elems, g); });
      }
    }
  }
  return loss;
}

template <class Fn>
double ScoredDecoder<Fn>::SideLossChunk(const Side& side, int64_t begin, int64_t end,
                                        Tensor* d_out, Tensor* rel_grad,
                                        const int32_t* slot_of,
                                        const int32_t* rel_slot_of) const {
  return side.corrupt_src
             ? SideChunk<true>(side, begin, end, d_out, rel_grad, slot_of, rel_slot_of)
             : SideChunk<false>(side, begin, end, d_out, rel_grad, slot_of, rel_slot_of);
}

template <class Fn>
void ScoredDecoder<Fn>::ScoreCandidates(const Tensor& reprs, int64_t fixed_row, int32_t rel,
                                        const std::vector<int64_t>& cand_rows,
                                        bool corrupt_src, std::vector<float>* out) const {
  const float* fixed = reprs.RowPtr(fixed_row);
  const float* r = rel_.value.RowPtr(rel);
  out->resize(cand_rows.size());
  ForEachChunk(compute_, static_cast<int64_t>(cand_rows.size()), kComputeGrainCandidates,
               [&](int64_t, int64_t begin, int64_t end) {
                 for (int64_t j = begin; j < end; ++j) {
                   const float* c = reprs.RowPtr(cand_rows[static_cast<size_t>(j)]);
                   (*out)[static_cast<size_t>(j)] =
                       corrupt_src ? Fn::Score(c, r, fixed, dim_) : Fn::Score(fixed, r, c, dim_);
                 }
               });
}

template class ScoredDecoder<DistMultScore>;
template class ScoredDecoder<TransEScore>;
template class ScoredDecoder<ComplExScore>;

float Decoder::SideLossAndGrad(const Side& side, Tensor* d_reprs) {
  const int64_t batch = static_cast<int64_t>(side.src_rows.size());
  const int64_t chunks = ComputeChunkCount(batch, kComputeGrainEdges);
  if (chunks <= 1) {
    const double loss = SideLossChunk(side, 0, batch, d_reprs, &rel_.grad,
                                      /*slot_of=*/nullptr, /*rel_slot_of=*/nullptr);
    return static_cast<float>(loss * side.inv_b);
  }
  // Every edge writes the shared negative rows (and possibly shared src/dst/relation
  // rows), so chunks accumulate into private partials that are folded into the real
  // accumulators in ascending chunk order — deterministic for any pool size. The
  // partials are compact: a chunk only touches the shared negatives plus its own
  // src/dst rows, so its buffer holds just those rows (slot order: negatives first,
  // then first occurrence — a fixed function of the chunk layout, never the pool).
  std::vector<Tensor> d_partials(static_cast<size_t>(chunks));
  std::vector<std::vector<int64_t>> touched_rows(static_cast<size_t>(chunks));
  std::vector<Tensor> rel_partials(static_cast<size_t>(chunks));
  std::vector<std::vector<int64_t>> touched_rels(static_cast<size_t>(chunks));
  std::vector<double> loss_partials(static_cast<size_t>(chunks), 0.0);
  double loss = 0.0;
  ForEachChunkOrdered(
      compute_, batch, kComputeGrainEdges,
      [&](int64_t chunk, int64_t begin, int64_t end) {
        SlotRemap& row_remap = decoder_row_remap;
        row_remap.NextGeneration(d_reprs->rows());
        std::vector<int64_t> touched;
        for (int64_t row : side.neg_rows) {
          row_remap.Claim(row, &touched);
        }
        SlotRemap& rel_remap = decoder_rel_remap;
        rel_remap.NextGeneration(rel_.grad.rows());
        std::vector<int64_t> rels_touched;
        for (int64_t i = begin; i < end; ++i) {
          row_remap.Claim(side.src_rows[static_cast<size_t>(i)], &touched);
          row_remap.Claim(side.dst_rows[static_cast<size_t>(i)], &touched);
          rel_remap.Claim(side.rels[static_cast<size_t>(i)], &rels_touched);
        }
        Tensor d_partial(static_cast<int64_t>(touched.size()), d_reprs->cols());
        Tensor rel_partial(static_cast<int64_t>(rels_touched.size()), rel_.grad.cols());
        loss_partials[static_cast<size_t>(chunk)] =
            SideLossChunk(side, begin, end, &d_partial, &rel_partial,
                          row_remap.slot_of.data(), rel_remap.slot_of.data());
        d_partials[static_cast<size_t>(chunk)] = std::move(d_partial);
        touched_rows[static_cast<size_t>(chunk)] = std::move(touched);
        rel_partials[static_cast<size_t>(chunk)] = std::move(rel_partial);
        touched_rels[static_cast<size_t>(chunk)] = std::move(rels_touched);
      },
      [&](int64_t chunk) {
        auto fold = [](Tensor& acc, const Tensor& partial,
                       const std::vector<int64_t>& rows) {
          for (size_t s = 0; s < rows.size(); ++s) {
            float* dst = acc.RowPtr(rows[s]);
            const float* src = partial.RowPtr(static_cast<int64_t>(s));
            for (int64_t c = 0; c < acc.cols(); ++c) {
              dst[c] += src[c];
            }
          }
        };
        fold(*d_reprs, d_partials[static_cast<size_t>(chunk)],
             touched_rows[static_cast<size_t>(chunk)]);
        fold(rel_.grad, rel_partials[static_cast<size_t>(chunk)],
             touched_rels[static_cast<size_t>(chunk)]);
        loss += loss_partials[static_cast<size_t>(chunk)];
        // Free the folded partials eagerly.
        d_partials[static_cast<size_t>(chunk)] = Tensor();
        rel_partials[static_cast<size_t>(chunk)] = Tensor();
      });
  return static_cast<float>(loss * side.inv_b);
}

float Decoder::LossAndGrad(const Tensor& reprs, const std::vector<int64_t>& src_rows,
                           const std::vector<int64_t>& dst_rows,
                           const std::vector<int32_t>& rels,
                           const std::vector<int64_t>& neg_rows, Tensor* d_reprs) {
  MG_CHECK(d_reprs != nullptr);
  MG_CHECK(d_reprs->rows() == reprs.rows() && d_reprs->cols() == reprs.cols());
  MG_CHECK(src_rows.size() == dst_rows.size() && src_rows.size() == rels.size());
  const int64_t batch = static_cast<int64_t>(src_rows.size());
  const int64_t m = static_cast<int64_t>(neg_rows.size());
  MG_CHECK(batch > 0 && m > 0);

  // Both sides score the same negatives: gather them dim-major once.
  const int64_t stride = (m + kLanes - 1) / kLanes * kLanes;
  std::vector<float> block(static_cast<size_t>(dim_ * stride), 0.0f);
  for (int64_t j = 0; j < m; ++j) {
    const float* n = reprs.RowPtr(neg_rows[static_cast<size_t>(j)]);
    for (int64_t d = 0; d < dim_; ++d) {
      block[static_cast<size_t>(d * stride + j)] = n[d];
    }
  }

  // Each side's loss and gradients carry a factor 0.5, averaging the two sides.
  const float inv_b = 0.5f / static_cast<float>(batch);
  const Side dst_side{reprs,        src_rows, dst_rows, rels,  neg_rows,
                      block.data(), stride,   false,    inv_b};
  const Side src_side{reprs,        src_rows, dst_rows, rels, neg_rows,
                      block.data(), stride,   true,     inv_b};
  const float dst_loss = SideLossAndGrad(dst_side, d_reprs);
  const float src_loss = SideLossAndGrad(src_side, d_reprs);
  return dst_loss + src_loss;
}

std::unique_ptr<Decoder> MakeDecoder(const std::string& name, int32_t num_relations,
                                     int64_t dim, Rng& rng) {
  if (name == "distmult") {
    return std::make_unique<DistMultDecoder>(num_relations, dim, rng);
  }
  if (name == "transe") {
    return std::make_unique<TransEDecoder>(num_relations, dim, rng);
  }
  if (name == "complex") {
    return std::make_unique<ComplExDecoder>(num_relations, dim, rng);
  }
  MG_CHECK_MSG(false, "unknown decoder");
  return nullptr;
}

}  // namespace mariusgnn
