// Differentiable operations on Variables.
//
// Shape conventions:
//  * Rank-1 tensors [n] are vectors; rank-2 tensors [r,c] are row-major
//    matrices. Sequences of token representations are [T, D] with one row
//    per token.
//  * The row-wise ops (MatMul, Affine, AffineTanh, Softmax, Concat) take a
//    vector [n] as the one-row matrix [1,n] and return a vector: one
//    implementation, bit-identical to the one-row call.
//  * Every op returns a fresh node whose backward_fn accumulates into the
//    gradients of parents that require gradients.
//
// The op set is exactly what the surveyed NER architectures need: affine
// maps, pointwise nonlinearities, row/column broadcasts and reductions
// (including the log-sum-exp forms used by CRF dynamic programs), gather /
// stack / concat for embeddings and hybrid representations, pooling for
// char-CNNs, and dropout.
#ifndef DLNER_TENSOR_OPS_H_
#define DLNER_TENSOR_OPS_H_

#include <vector>

#include "tensor/rng.h"
#include "tensor/variable.h"

namespace dlner {

// ---------------------------------------------------------------------------
// Elementwise arithmetic.
// ---------------------------------------------------------------------------

/// Elementwise sum; shapes must match.
Var Add(const Var& a, const Var& b);
/// Elementwise difference; shapes must match.
Var Sub(const Var& a, const Var& b);
/// Elementwise (Hadamard) product; shapes must match.
Var Mul(const Var& a, const Var& b);
/// Multiplies every element by a constant.
Var Scale(const Var& a, Float s);
/// Elementwise negation.
Var Neg(const Var& a);

// ---------------------------------------------------------------------------
// Pointwise nonlinearities.
// ---------------------------------------------------------------------------

Var Tanh(const Var& a);
Var Sigmoid(const Var& a);
Var Relu(const Var& a);

// ---------------------------------------------------------------------------
// Linear algebra.
// ---------------------------------------------------------------------------

/// Matrix product of [m,k] and [k,n] -> [m,n]; a [k] gives [n].
Var MatMul(const Var& a, const Var& b);
/// Fused affine map: x [m,k] times w [k,n] plus row-broadcast bias b [n]
/// -> [m,n]; x [k] gives [n]. One node instead of a MatMul -> bias-add
/// chain.
Var Affine(const Var& x, const Var& w, const Var& b);
/// Affine followed by tanh, fused into a single node.
Var AffineTanh(const Var& x, const Var& w, const Var& b);
/// Matrix transpose.
Var Transpose(const Var& m);
/// Inner product of two equal-length vectors -> scalar [1].
Var Dot(const Var& a, const Var& b);

// ---------------------------------------------------------------------------
// Broadcasts.
// ---------------------------------------------------------------------------

/// Adds vector [r] element i to every entry of row i of matrix [r,c].
Var AddColBroadcast(const Var& m, const Var& v);

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------

/// Sum of all elements -> scalar [1].
Var Sum(const Var& a);
/// Column-wise max over rows of [r,c] -> [c] (max-over-time pooling).
Var MaxOverRows(const Var& m);
/// Column-wise mean over rows of [r,c] -> [c].
Var MeanOverRows(const Var& m);
/// log(sum(exp(x[i * stride]))) over n > 0 values, shifted by their max:
/// the one log-sum-exp sequence behind LogSumExp, LogSumExpOverRows,
/// LogSoftmax and the CRF marginals. A plain value, not a graph node.
Float LogSumExpOf(const Float* x, int n, int stride);
/// log(sum(exp(v))) of a vector -> scalar [1]; numerically stabilized.
Var LogSumExp(const Var& v);
/// Column-wise log-sum-exp over rows of [r,c] -> [c]; the inner step of the
/// CRF forward recursion.
Var LogSumExpOverRows(const Var& m);

// ---------------------------------------------------------------------------
// Softmax family.
// ---------------------------------------------------------------------------

/// Row-wise softmax of [r,c] -> [r,c] (attention weights), or of a
/// vector [n] -> [n].
Var Softmax(const Var& x);
/// Numerically-stable log-softmax of a vector [n] -> [n].
Var LogSoftmax(const Var& v);

// ---------------------------------------------------------------------------
// Indexing, reshaping, and structure.
// ---------------------------------------------------------------------------

/// Extracts row r of [rows,c] as a vector [c].
Var Row(const Var& m, int r);
/// Gathers rows by index (duplicates allowed) -> [ids.size(), c]. This is
/// the embedding-lookup primitive; gradients scatter-add back.
Var Rows(const Var& m, const std::vector<int>& ids);
/// Stacks equal-length vectors into a matrix [k, c].
Var StackRows(const std::vector<Var>& rows);
/// Joins vectors into one vector, or the columns of matrices with equal
/// row counts into one matrix; all parts have the same rank.
Var Concat(const std::vector<Var>& parts);
/// Element i of a vector -> scalar [1].
Var Pick(const Var& v, int i);
/// Element (r,c) of a matrix -> scalar [1].
Var PickAt(const Var& m, int r, int c);

// ---------------------------------------------------------------------------
// Regularization.
// ---------------------------------------------------------------------------

/// Inverted dropout: when `training`, zeroes elements with probability p and
/// scales survivors by 1/(1-p); identity otherwise.
Var Dropout(const Var& a, Float p, Rng* rng, bool training);

// ---------------------------------------------------------------------------
// Losses.
// ---------------------------------------------------------------------------

/// Negative log likelihood of class `target` under logits [n] -> scalar.
Var CrossEntropyWithLogits(const Var& logits, int target);

// ---------------------------------------------------------------------------
// Graph utilities.
// ---------------------------------------------------------------------------

/// Creates an op node. Exposed so higher layers can define custom fused ops.
Var MakeNode(Tensor value, std::vector<Var> parents,
             std::function<void(Variable*)> backward_fn);

}  // namespace dlner

#endif  // DLNER_TENSOR_OPS_H_
