// E1 — Reproduces Table 1 of the paper: the exact clause sets the log,
// direct, and muldirect encodings generate for a graph-coloring problem
// with two adjacent vertices v and w, each with domain {0, 1, 2} (i.e. two
// electrically distinct 2-pin nets through a 3-track connection block).
#include <cstdio>
#include <string>

#include "encode/csp_to_cnf.h"
#include "encode/registry.h"
#include "sat/clause_sink.h"

namespace {

using namespace satfr;

// Pretty-prints a literal in the paper's x_{v i} style: variables of vertex
// v are x_v0.., of vertex w x_w0.. (log encoding uses l_v1/l_v2 naming).
std::string LitName(sat::Lit l, int vars_per_vertex, bool log_style) {
  const int vertex = l.var() / vars_per_vertex;
  const int local = l.var() % vars_per_vertex;
  const char vertex_name = vertex == 0 ? 'v' : 'w';
  std::string name;
  if (log_style) {
    name = std::string("l_") + vertex_name + std::to_string(local + 1);
  } else {
    name = std::string("x_") + vertex_name + std::to_string(local);
  }
  return (l.negated() ? "~" : "") + name;
}

void PrintEncoding(const char* encoding_name, bool log_style) {
  graph::Graph g(2);
  g.AddEdge(0, 1);
  const encode::EncodedColoring enc =
      EncodeColoring(g, 3, encode::GetEncoding(encoding_name));
  std::printf("Encoding: %s  (%d Boolean vars, %zu clauses)\n",
              encoding_name, enc.cnf.num_vars(), enc.cnf.num_clauses());
  for (const sat::Clause& clause : enc.cnf.clauses()) {
    std::string line = "  (";
    for (std::size_t i = 0; i < clause.size(); ++i) {
      if (i > 0) line += " \\/ ";
      line += LitName(clause[i], enc.domain.num_vars, log_style);
    }
    line += ")";
    std::printf("%s\n", line.c_str());
  }
  const std::vector<std::size_t> histogram = enc.cnf.ClauseLengthHistogram();
  std::string profile = "  clause lengths:";
  for (std::size_t len = 0; len < histogram.size(); ++len) {
    if (histogram[len] == 0) continue;
    profile.append(" ").append(std::to_string(histogram[len]));
    profile.append("x").append(std::to_string(len));
  }
  // Cross-check: the allocation-free CountingSink sees the same stream the
  // collector materialized (Table 1 counts are sink-independent).
  sat::CountingSink counting;
  encode::EncodeColoringToSink(g, 3, encode::GetEncoding(encoding_name), {},
                               counting);
  bool counts_match = counting.num_clauses() == enc.cnf.num_clauses();
  for (std::size_t len = 0; len < histogram.size(); ++len) {
    counts_match =
        counts_match && counting.NumClausesOfSize(len) == histogram[len];
  }
  profile += counts_match ? "  [counting-sink: match]"
                          : "  [counting-sink: MISMATCH]";
  std::printf("%s\n\n", profile.c_str());
}

}  // namespace

int main() {
  std::printf(
      "== Table 1: previously used CSP-to-SAT encodings on the 2-vertex, "
      "3-value example ==\n\n");
  PrintEncoding("log", /*log_style=*/true);
  PrintEncoding("direct", /*log_style=*/false);
  PrintEncoding("muldirect", /*log_style=*/false);
  std::printf(
      "Expected per Table 1: log = 3 conflict + 2 excluded-illegal-value "
      "clauses;\n"
      "direct = 2 at-least-one + 6 at-most-one + 3 conflict; muldirect = "
      "direct\nwithout the at-most-one clauses.\n");
  return 0;
}
