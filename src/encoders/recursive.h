// Bidirectional recursive neural network over constituency-like structure
// (survey Section 3.3.3, Fig. 8; Li et al. 2017).
//
// The bottom-up direction computes the semantic composition of each node's
// subtree; the top-down direction propagates to each node the structure
// containing it; each token's representation concatenates its leaf's
// bottom-up and top-down states.
//
// Substitution note (DESIGN.md Section 2): Li et al. traverse gold
// constituency parses. With no parser in scope, trees come from a
// deterministic heuristic bracketing — sentences split at punctuation into
// segments, each segment covered by a balanced binary tree — which
// preserves the mechanism under study (recursive composition over a
// hierarchy) without requiring parsed data. Encode builds that bracketing
// from the sentence's tokens itself, so every caller of the ContextEncoder
// interface (training, eager inference, the default EncodePacked bridge)
// runs the same tree.
#ifndef DLNER_ENCODERS_RECURSIVE_H_
#define DLNER_ENCODERS_RECURSIVE_H_

#include <memory>
#include <string>
#include <vector>

#include "encoders/encoder.h"

namespace dlner::encoders {

/// A binary bracketing over [0, num_tokens). Node 0..num_tokens-1 are
/// leaves; internal nodes follow. The root is the last node.
struct BinaryTree {
  struct Node {
    int left = -1;    // child node index (-1 for leaves)
    int right = -1;
    int parent = -1;  // -1 for the root
    int start = 0;    // covered token span [start, end)
    int end = 0;
  };
  std::vector<Node> nodes;
  int num_tokens = 0;

  int root() const { return static_cast<int>(nodes.size()) - 1; }
  bool IsLeaf(int i) const { return nodes[i].left < 0; }
};

/// Heuristic bracketing: punctuation-delimited segments, balanced within
/// (a sentence without punctuation gets one balanced tree).
BinaryTree BuildHeuristicTree(const std::vector<std::string>& tokens);

/// The Fig. 8 encoder. Output per token: [bottom_up_leaf, top_down_leaf]
/// -> [T, 2*hidden].
class RecursiveEncoder : public ContextEncoder {
 public:
  RecursiveEncoder(int in_dim, int hidden_dim, Rng* rng,
                   const std::string& name = "brnn_enc");

  /// Encodes over BuildHeuristicTree(tokens); `tokens` must have one entry
  /// per input row.
  Var Encode(const Var& input, const std::vector<std::string>& tokens,
             bool training) const override;

  int out_dim() const override { return 2 * hidden_dim_; }
  std::vector<Var> Parameters() const override;

 private:
  int hidden_dim_;
  std::unique_ptr<Linear> leaf_;       // in_dim -> hidden (bottom-up leaf)
  std::unique_ptr<Linear> compose_;    // [2*hidden] -> hidden (bottom-up)
  std::unique_ptr<Linear> root_top_;   // hidden -> hidden (top-down seed)
  std::unique_ptr<Linear> down_left_;  // [hidden(td parent)+hidden(bu)] -> hidden
  std::unique_ptr<Linear> down_right_;
};

}  // namespace dlner::encoders

#endif  // DLNER_ENCODERS_RECURSIVE_H_
