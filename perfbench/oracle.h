// Answers computed outside the engine: plain walks over a global Graph's
// CSR, sharing no code with the planner, runtime or reference evaluator.
#pragma once

#include <cstdint>

#include "graph/graph.h"

namespace perfbench {

/// Label ids of the LDBC-like schema the walks need.
struct Schema {
  rpqd::LabelId person = 0;
  rpqd::LabelId post = 0;
  rpqd::LabelId comment = 0;
  rpqd::LabelId knows = 0;
  rpqd::LabelId reply_of = 0;

  static Schema of(const rpqd::Graph& graph);
};

/// `(p1:Person) -/:knows{1,2}/- (p2:Person) WHERE ID(p1) = k`: distinct
/// Persons at the end of an undirected 1- or 2-step knows walk from k
/// (k itself when some 2-step walk returns to it).
std::uint64_t knows_1_2(const rpqd::Graph& graph, const Schema& schema,
                        rpqd::VertexId k);

/// `(p:Post) <-/:replyOf*/- (m) WHERE ID(p) = k`: the size of k's reply
/// subtree, k included.
std::uint64_t reply_subtree(const rpqd::Graph& graph, const Schema& schema,
                            rpqd::VertexId k);

/// Edges labelled `elabel`, counted by walking the out-adjacency.
std::uint64_t count_edges(const rpqd::Graph& graph, rpqd::LabelId elabel);

/// Alive vertices labelled `label`.
std::uint64_t count_vertices(const rpqd::Graph& graph, rpqd::LabelId label);

}  // namespace perfbench
