#include "tensor/rnn.h"

namespace dlner {

// ---------------------------------------------------------------------------
// LstmCell.
// ---------------------------------------------------------------------------

LstmCell::LstmCell(int in_dim, int hidden_dim, Rng* rng,
                   const std::string& name)
    : in_dim_(in_dim),
      hidden_dim_(hidden_dim),
      gates_(std::make_unique<Linear>(in_dim + hidden_dim, 4 * hidden_dim,
                                      rng, name + ".gates")) {
  // Initialize the forget-gate bias to 1 (standard practice: remember by
  // default early in training).
  Var bias = gates_->Parameters()[1];
  for (int j = hidden_dim; j < 2 * hidden_dim; ++j) bias->value[j] = 1.0;
}

RnnState LstmCell::InitialState() const {
  return {Constant(Tensor({hidden_dim_})), Constant(Tensor({hidden_dim_}))};
}

RnnState LstmCell::Step(const Var& x, const RnnState& prev) const {
  DLNER_CHECK_EQ(x->value.size(), in_dim_);
  Var z = Concat({x, prev.h});
  Var gates = gates_->Apply(z);  // [4*hid]
  Var i = Sigmoid(SliceVec(gates, 0, hidden_dim_));
  Var f = Sigmoid(SliceVec(gates, hidden_dim_, hidden_dim_));
  Var o = Sigmoid(SliceVec(gates, 2 * hidden_dim_, hidden_dim_));
  Var g = Tanh(SliceVec(gates, 3 * hidden_dim_, hidden_dim_));
  Var c = Add(Mul(f, prev.c), Mul(i, g));
  Var h = Mul(o, Tanh(c));
  return {h, c};
}

std::vector<Var> LstmCell::Parameters() const { return gates_->Parameters(); }

// ---------------------------------------------------------------------------
// GruCell.
// ---------------------------------------------------------------------------

GruCell::GruCell(int in_dim, int hidden_dim, Rng* rng, const std::string& name)
    : in_dim_(in_dim),
      hidden_dim_(hidden_dim),
      rz_(std::make_unique<Linear>(in_dim + hidden_dim, 2 * hidden_dim, rng,
                                   name + ".rz")),
      candidate_(std::make_unique<Linear>(in_dim + hidden_dim, hidden_dim,
                                          rng, name + ".cand")) {}

RnnState GruCell::InitialState() const {
  return {Constant(Tensor({hidden_dim_})), Constant(Tensor({hidden_dim_}))};
}

RnnState GruCell::Step(const Var& x, const RnnState& prev) const {
  DLNER_CHECK_EQ(x->value.size(), in_dim_);
  Var z_in = Concat({x, prev.h});
  Var rz = rz_->Apply(z_in);  // [2*hid]
  Var r = Sigmoid(SliceVec(rz, 0, hidden_dim_));
  Var z = Sigmoid(SliceVec(rz, hidden_dim_, hidden_dim_));
  Var cand_in = Concat({x, Mul(r, prev.h)});
  Var h_tilde = Tanh(candidate_->Apply(cand_in));
  // h = (1 - z) * h_prev + z * h_tilde
  Var ones = Constant(Tensor::Full({hidden_dim_}, 1.0));
  Var h = Add(Mul(Sub(ones, z), prev.h), Mul(z, h_tilde));
  return {h, prev.c};
}

std::vector<Var> GruCell::Parameters() const {
  return JoinParameters({rz_.get(), candidate_.get()});
}

// ---------------------------------------------------------------------------
// Sequence runners.
// ---------------------------------------------------------------------------

Var RunRnn(const RnnCell& cell, const Var& input, bool reverse) {
  return RunRnnWithState(cell, input, reverse).first;
}

std::pair<Var, RnnState> RunRnnWithState(const RnnCell& cell, const Var& input,
                                         bool reverse) {
  DLNER_CHECK_EQ(input->value.dim(), 2);
  const int t_len = input->value.rows();
  DLNER_CHECK_GT(t_len, 0);
  RnnState state = cell.InitialState();
  std::vector<Var> outputs(t_len);
  for (int step = 0; step < t_len; ++step) {
    const int t = reverse ? t_len - 1 - step : step;
    state = cell.Step(Row(input, t), state);
    outputs[t] = state.h;
  }
  return {StackRows(outputs), state};
}

// ---------------------------------------------------------------------------
// BiRnn.
// ---------------------------------------------------------------------------

BiRnn::BiRnn(const std::string& kind, int in_dim, int hidden_dim, Rng* rng,
             const std::string& name)
    : lstm_(kind == "lstm"),
      forward_(MakeRnnCell(kind, in_dim, hidden_dim, rng, name + ".fwd")),
      backward_(MakeRnnCell(kind, in_dim, hidden_dim, rng, name + ".bwd")) {}

Var BiRnn::Apply(const Var& input) const {
  Var fwd = RunRnn(*forward_, input, /*reverse=*/false);
  Var bwd = RunRnn(*backward_, input, /*reverse=*/true);
  return Concat({fwd, bwd});
}

void BiRnn::ApplyPacked(const Float* x, int in_dim,
                        const batched::BatchLayout& layout, Float* out,
                        Arena* arena) const {
  const int hidden = forward_->hidden_dim();
  if (lstm_) {
    batched::BiLstm(x, in_dim, hidden, layout,
                    static_cast<const LstmCell&>(*forward_).packed(),
                    static_cast<const LstmCell&>(*backward_).packed(), out,
                    arena);
  } else {
    batched::BiGru(x, in_dim, hidden, layout,
                   static_cast<const GruCell&>(*forward_).packed(),
                   static_cast<const GruCell&>(*backward_).packed(), out,
                   arena);
  }
}

std::vector<Var> BiRnn::Parameters() const {
  return JoinParameters({forward_.get(), backward_.get()});
}

std::unique_ptr<RnnCell> MakeRnnCell(const std::string& kind, int in_dim,
                                     int hidden_dim, Rng* rng,
                                     const std::string& name) {
  if (kind == "lstm") {
    return std::make_unique<LstmCell>(in_dim, hidden_dim, rng, name);
  }
  if (kind == "gru") {
    return std::make_unique<GruCell>(in_dim, hidden_dim, rng, name);
  }
  DLNER_CHECK_MSG(false, "unknown rnn cell kind: " << kind);
}

}  // namespace dlner
