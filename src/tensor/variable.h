// Reverse-mode automatic differentiation tape.
//
// A Variable is a node in a dynamically built computation graph. Operations
// in ops.h create new Variables whose `backward_fn` knows how to propagate
// the node's gradient into its parents. Backward() performs a topological
// traversal from a scalar root. The graph is rebuilt per training example
// (define-by-run), matching how the surveyed NER systems batch at sentence
// granularity.
#ifndef DLNER_TENSOR_VARIABLE_H_
#define DLNER_TENSOR_VARIABLE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace dlner {

class Variable;

/// Shared handle to a graph node. Ops accept and return Var.
using Var = std::shared_ptr<Variable>;

/// One node of the autodiff graph.
class Variable {
 public:
  Variable() = default;
  explicit Variable(Tensor value) : value(std::move(value)) {}

  // Graph nodes are identity objects; copying one would silently detach it
  // from the tape.
  Variable(const Variable&) = delete;
  Variable& operator=(const Variable&) = delete;

  /// Forward value.
  Tensor value;

  /// Gradient of the loss w.r.t. `value`. Allocated lazily by Backward().
  Tensor grad;

  /// True for trainable parameters and any node on a path to one.
  bool requires_grad = false;

  /// Parents in the computation graph (inputs of the op that produced this).
  std::vector<Var> parents;

  /// Propagates this->grad into parents' grads. Null for leaves.
  std::function<void(Variable*)> backward_fn;

  /// Optional name; set for parameters to support serialization.
  std::string name;

  /// Ensures `grad` is allocated (zero-filled, same shape as value).
  void EnsureGrad();

  /// Resets the gradient to zero (keeps allocation).
  void ZeroGrad();
};

/// Thread-local autograd mode. While disabled, MakeNode produces value-only
/// nodes: no backward closure and no parent edges, so intermediate results
/// are freed as soon as the forward pass moves past them. Inference entry
/// points (InferencePlan::Execute, behind NerModel::PredictCorpus) disable
/// gradients via NoGradGuard; each thread has its own flag, so parallel
/// inference never disturbs a training thread.
bool GradModeEnabled();

/// RAII guard that disables gradient recording on the current thread.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

/// Creates a leaf that does not require gradients (e.g. fixed input).
Var Constant(Tensor value);

/// Creates a trainable leaf parameter.
Var Parameter(Tensor value, std::string name = "");

/// Runs backpropagation from `root`, which must hold a single scalar.
/// Accumulates gradients into every reachable node with requires_grad.
void Backward(const Var& root);

}  // namespace dlner

#endif  // DLNER_TENSOR_VARIABLE_H_
