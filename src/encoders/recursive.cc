#include "encoders/recursive.h"

#include <functional>

#include "obs/trace.h"
#include "tensor/ops.h"

namespace dlner::encoders {
namespace {

bool IsPunct(const std::string& tok) {
  return tok == "." || tok == "," || tok == ";" || tok == ":" ||
         tok == "!" || tok == "?";
}

// Builds a balanced tree over leaves [start, end) that already exist as
// nodes 0..n-1; returns the covering node index.
int BuildBalancedRange(BinaryTree* tree, int start, int end) {
  DLNER_CHECK_LT(start, end);
  if (end - start == 1) return start;
  const int mid = (start + end) / 2;
  const int left = BuildBalancedRange(tree, start, mid);
  const int right = BuildBalancedRange(tree, mid, end);
  BinaryTree::Node node;
  node.left = left;
  node.right = right;
  node.start = tree->nodes[left].start;
  node.end = tree->nodes[right].end;
  const int idx = static_cast<int>(tree->nodes.size());
  tree->nodes.push_back(node);
  tree->nodes[left].parent = idx;
  tree->nodes[right].parent = idx;
  return idx;
}

void AddLeaves(BinaryTree* tree, int num_tokens) {
  tree->num_tokens = num_tokens;
  for (int t = 0; t < num_tokens; ++t) {
    BinaryTree::Node leaf;
    leaf.start = t;
    leaf.end = t + 1;
    tree->nodes.push_back(leaf);
  }
}

// Joins a list of subtree roots left-to-right into one root.
int JoinRoots(BinaryTree* tree, const std::vector<int>& roots) {
  DLNER_CHECK(!roots.empty());
  int acc = roots[0];
  for (size_t i = 1; i < roots.size(); ++i) {
    BinaryTree::Node node;
    node.left = acc;
    node.right = roots[i];
    node.start = tree->nodes[acc].start;
    node.end = tree->nodes[roots[i]].end;
    const int idx = static_cast<int>(tree->nodes.size());
    tree->nodes.push_back(node);
    tree->nodes[acc].parent = idx;
    tree->nodes[roots[i]].parent = idx;
    acc = idx;
  }
  return acc;
}

}  // namespace

BinaryTree BuildHeuristicTree(const std::vector<std::string>& tokens) {
  const int n = static_cast<int>(tokens.size());
  DLNER_CHECK_GT(n, 0);
  BinaryTree tree;
  AddLeaves(&tree, n);
  // Segment at punctuation (the punctuation token closes its segment).
  std::vector<int> roots;
  int seg_start = 0;
  for (int t = 0; t < n; ++t) {
    if (IsPunct(tokens[t]) || t == n - 1) {
      roots.push_back(BuildBalancedRange(&tree, seg_start, t + 1));
      seg_start = t + 1;
    }
  }
  JoinRoots(&tree, roots);
  return tree;
}

RecursiveEncoder::RecursiveEncoder(int in_dim, int hidden_dim, Rng* rng,
                                   const std::string& name)
    : hidden_dim_(hidden_dim),
      leaf_(std::make_unique<Linear>(in_dim, hidden_dim, rng,
                                     name + ".leaf")),
      compose_(std::make_unique<Linear>(2 * hidden_dim, hidden_dim, rng,
                                        name + ".compose")),
      root_top_(std::make_unique<Linear>(hidden_dim, hidden_dim, rng,
                                         name + ".root_top")),
      down_left_(std::make_unique<Linear>(2 * hidden_dim, hidden_dim, rng,
                                          name + ".down_left")),
      down_right_(std::make_unique<Linear>(2 * hidden_dim, hidden_dim, rng,
                                           name + ".down_right")) {}

Var RecursiveEncoder::Encode(const Var& input,
                             const std::vector<std::string>& tokens,
                             bool /*training*/) const {
  obs::ScopedSpan span("encode/brnn");
  const BinaryTree tree = BuildHeuristicTree(tokens);
  const int t_len = input->value.rows();
  DLNER_CHECK_EQ(t_len, tree.num_tokens);
  const int num_nodes = static_cast<int>(tree.nodes.size());

  // Bottom-up: children before parents. Nodes are created in exactly that
  // order by construction (leaves first, parents appended after children).
  std::vector<Var> up(num_nodes);
  for (int i = 0; i < num_nodes; ++i) {
    const auto& node = tree.nodes[i];
    if (tree.IsLeaf(i)) {
      up[i] = Tanh(leaf_->Apply(Row(input, node.start)));
    } else {
      up[i] = Tanh(compose_->Apply(Concat({up[node.left], up[node.right]})));
    }
  }
  // Top-down: parents before children (reverse order).
  std::vector<Var> down(num_nodes);
  down[tree.root()] = Tanh(root_top_->Apply(up[tree.root()]));
  for (int i = num_nodes - 1; i >= 0; --i) {
    const auto& node = tree.nodes[i];
    if (tree.IsLeaf(i)) continue;
    down[node.left] = Tanh(down_left_->Apply(Concat({down[i], up[node.left]})));
    down[node.right] =
        Tanh(down_right_->Apply(Concat({down[i], up[node.right]})));
  }
  // Leaf outputs, aligned with token positions.
  std::vector<Var> rows(t_len);
  for (int t = 0; t < t_len; ++t) {
    rows[t] = Concat({up[t], down[t]});
  }
  return StackRows(rows);
}

std::vector<Var> RecursiveEncoder::Parameters() const {
  return JoinParameters({leaf_.get(), compose_.get(), root_top_.get(),
                         down_left_.get(), down_right_.get()});
}

}  // namespace dlner::encoders
