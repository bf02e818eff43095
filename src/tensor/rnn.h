// Recurrent cells and sequence runners (LSTM, GRU).
//
// These are the survey's RNN context-encoder substrate (Section 3.3.2) and
// also power char-level representations (Fig. 3b), neural language models
// (Section 3.3.4), and RNN tag decoders (Section 3.4.3).
#ifndef DLNER_TENSOR_RNN_H_
#define DLNER_TENSOR_RNN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/batched.h"
#include "tensor/nn.h"

namespace dlner {

/// Hidden state of a recurrent cell: (h, c) for LSTM; c unused by GRU.
struct RnnState {
  Var h;
  Var c;
};

/// Interface shared by LSTM and GRU cells.
class RnnCell : public Module {
 public:
  /// Zero initial state.
  virtual RnnState InitialState() const = 0;
  /// One step: consumes input vector [in_dim] and previous state.
  virtual RnnState Step(const Var& x, const RnnState& prev) const = 0;
  virtual int in_dim() const = 0;
  virtual int hidden_dim() const = 0;
};

/// Long short-term memory cell with a single fused gate matrix.
class LstmCell : public RnnCell {
 public:
  LstmCell(int in_dim, int hidden_dim, Rng* rng,
           const std::string& name = "lstm");

  RnnState InitialState() const override;
  RnnState Step(const Var& x, const RnnState& prev) const override;
  std::vector<Var> Parameters() const override;
  int in_dim() const override { return in_dim_; }
  int hidden_dim() const override { return hidden_dim_; }
  const Linear& gates() const { return *gates_; }
  /// The live parameters as the packed kernels read them.
  batched::LstmDir packed() const {
    return {&gates_->weight()->value, &gates_->bias()->value};
  }

 private:
  int in_dim_;
  int hidden_dim_;
  std::unique_ptr<Linear> gates_;  // [in+hid] -> [4*hid]: i, f, o, g
};

/// Gated recurrent unit cell.
class GruCell : public RnnCell {
 public:
  GruCell(int in_dim, int hidden_dim, Rng* rng,
          const std::string& name = "gru");

  RnnState InitialState() const override;
  RnnState Step(const Var& x, const RnnState& prev) const override;
  std::vector<Var> Parameters() const override;
  int in_dim() const override { return in_dim_; }
  int hidden_dim() const override { return hidden_dim_; }
  const Linear& rz() const { return *rz_; }
  const Linear& candidate() const { return *candidate_; }
  /// The live parameters as the packed kernels read them.
  batched::GruDir packed() const {
    return {&rz_->weight()->value, &rz_->bias()->value,
            &candidate_->weight()->value, &candidate_->bias()->value};
  }

 private:
  int in_dim_;
  int hidden_dim_;
  std::unique_ptr<Linear> rz_;         // [in+hid] -> [2*hid]: r, z
  std::unique_ptr<Linear> candidate_;  // [in+hid] -> [hid]
};

/// Runs a cell over a sequence [T, in] and stacks hidden states -> [T, hid].
/// When `reverse` is true the input is consumed right-to-left but the output
/// rows stay aligned with the input rows.
Var RunRnn(const RnnCell& cell, const Var& input, bool reverse);

/// Runs a cell and also returns the final state (used by encoders that need
/// a whole-sequence summary and by RNN decoders).
std::pair<Var, RnnState> RunRnnWithState(const RnnCell& cell,
                                         const Var& input, bool reverse);

/// Bidirectional wrapper: concatenates forward and backward runs -> [T, 2*hid].
class BiRnn : public Module {
 public:
  /// `kind` is "lstm" or "gru".
  BiRnn(const std::string& kind, int in_dim, int hidden_dim, Rng* rng,
        const std::string& name = "birnn");

  /// Input [T, in] -> [T, 2*hidden].
  Var Apply(const Var& input) const;
  /// Apply over every segment of a packed batch at once, bit-identical to
  /// Apply per segment: x [layout.rows(), in_dim] -> out [layout.rows(),
  /// out_dim()] through batched::BiLstm or batched::BiGru.
  void ApplyPacked(const Float* x, int in_dim,
                   const batched::BatchLayout& layout, Float* out,
                   Arena* arena) const;
  /// "bilstm" or "bigru".
  const char* kind() const { return lstm_ ? "bilstm" : "bigru"; }

  std::vector<Var> Parameters() const override;
  int out_dim() const { return 2 * forward_->hidden_dim(); }
  const RnnCell& forward_cell() const { return *forward_; }
  const RnnCell& backward_cell() const { return *backward_; }

 private:
  bool lstm_;  // both cells are LstmCells, else both GruCells
  std::unique_ptr<RnnCell> forward_;
  std::unique_ptr<RnnCell> backward_;
};

/// Factory for a cell by kind ("lstm" or "gru").
std::unique_ptr<RnnCell> MakeRnnCell(const std::string& kind, int in_dim,
                                     int hidden_dim, Rng* rng,
                                     const std::string& name);

}  // namespace dlner

#endif  // DLNER_TENSOR_RNN_H_
