#include "encode/ite_tree.h"

#include <algorithm>
#include <cassert>

namespace satfr::encode {
namespace {

std::unique_ptr<IteTreeNode> Leaf(int value) {
  auto node = std::make_unique<IteTreeNode>();
  node->leaf_value = value;
  return node;
}

std::unique_ptr<IteTreeNode> LinearRange(int lo, int hi) {
  if (lo == hi) return Leaf(lo);
  auto node = std::make_unique<IteTreeNode>();
  node->split_var = lo;  // chain position i is steered by variable i
  node->then_branch = Leaf(lo);
  node->else_branch = LinearRange(lo + 1, hi);
  return node;
}

std::unique_ptr<IteTreeNode> BalancedRange(int lo, int hi, int depth) {
  const int count = hi - lo + 1;
  if (count == 1) return Leaf(lo);
  auto node = std::make_unique<IteTreeNode>();
  node->split_var = depth;  // all nodes at one depth share a variable
  const int then_count = (count + 1) / 2;
  node->then_branch = BalancedRange(lo, lo + then_count - 1, depth + 1);
  node->else_branch = BalancedRange(lo + then_count, hi, depth + 1);
  return node;
}

void CollectCubes(const IteTreeNode& node, Cube& path,
                  std::vector<Cube>& out) {
  if (node.IsLeaf()) {
    out[static_cast<std::size_t>(node.leaf_value)] = path;
    return;
  }
  path.push_back(sat::Lit::Pos(node.split_var));
  CollectCubes(*node.then_branch, path, out);
  path.back() = sat::Lit::Neg(node.split_var);
  CollectCubes(*node.else_branch, path, out);
  path.pop_back();
}

void Render(const IteTreeNode& node, const std::string& prefix,
            const std::string& branch_label, std::string& out) {
  out += prefix;
  out += branch_label;
  if (node.IsLeaf()) {
    out.append("v").append(std::to_string(node.leaf_value)).append("\n");
    return;
  }
  out.append("ITE(i").append(std::to_string(node.split_var)).append(")\n");
  std::string child_prefix = prefix;
  if (!branch_label.empty()) child_prefix.append("|   ");
  Render(*node.then_branch, child_prefix, "+-1-", out);
  Render(*node.else_branch, child_prefix, "+-0-", out);
}

}  // namespace

std::unique_ptr<IteTreeNode> BuildLinearIteTree(int count) {
  assert(count >= 1);
  return LinearRange(0, count - 1);
}

std::unique_ptr<IteTreeNode> BuildBalancedIteTree(int count) {
  assert(count >= 1);
  return BalancedRange(0, count - 1, 0);
}

std::vector<Cube> TreeCubes(const IteTreeNode& root, int count) {
  std::vector<Cube> cubes(static_cast<std::size_t>(count));
  Cube path;
  path.reserve(static_cast<std::size_t>(TreeMaxDepth(root)));
  CollectCubes(root, path, cubes);
  return cubes;
}

int TreeMaxDepth(const IteTreeNode& root) {
  if (root.IsLeaf()) return 0;
  return 1 + std::max(TreeMaxDepth(*root.then_branch),
                      TreeMaxDepth(*root.else_branch));
}

int TreeMinDepth(const IteTreeNode& root) {
  if (root.IsLeaf()) return 0;
  return 1 + std::min(TreeMinDepth(*root.then_branch),
                      TreeMinDepth(*root.else_branch));
}

int TreeNumVars(const IteTreeNode& root) {
  if (root.IsLeaf()) return 0;
  return std::max({static_cast<int>(root.split_var) + 1,
                   TreeNumVars(*root.then_branch),
                   TreeNumVars(*root.else_branch)});
}

std::string RenderIteTree(const IteTreeNode& root) {
  std::string out;
  Render(root, "", "", out);
  return out;
}

LevelEncoding IteLinearEncoder::Encode(int count) const {
  assert(count >= 1);
  LevelEncoding enc;
  const auto tree = BuildLinearIteTree(count);
  enc.num_vars = count - 1;
  enc.cubes = TreeCubes(*tree, count);
  enc.exactly_one = true;
  return enc;
}

std::vector<Cube> IteLinearEncoder::ReducedCubes([[maybe_unused]] int count,
                                                int reduced) const {
  assert(reduced >= 1 && reduced <= count);
  const auto tree = BuildLinearIteTree(reduced);
  return TreeCubes(*tree, reduced);
}

LevelEncoding IteLogEncoder::Encode(int count) const {
  assert(count >= 1);
  LevelEncoding enc;
  const auto tree = BuildBalancedIteTree(count);
  enc.num_vars = TreeNumVars(*tree);
  enc.cubes = TreeCubes(*tree, count);
  enc.exactly_one = true;
  return enc;
}

std::vector<Cube> IteLogEncoder::ReducedCubes([[maybe_unused]] int count,
                                             int reduced) const {
  assert(reduced >= 1 && reduced <= count);
  const auto tree = BuildBalancedIteTree(reduced);
  return TreeCubes(*tree, reduced);
}

}  // namespace satfr::encode
