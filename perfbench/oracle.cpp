#include "oracle.h"

#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

namespace perfbench {
namespace {

rpqd::LabelId vertex_label(const rpqd::Graph& graph, const char* name) {
  const auto id = graph.catalog().find_vertex_label(name);
  if (!id) throw std::runtime_error(std::string("no vertex label ") + name);
  return *id;
}

rpqd::LabelId edge_label(const rpqd::Graph& graph, const char* name) {
  const auto id = graph.catalog().find_edge_label(name);
  if (!id) throw std::runtime_error(std::string("no edge label ") + name);
  return *id;
}

/// Appends v's neighbours over `elabel` edges in `adj`.
void neighbours(const rpqd::Adjacency& adj, rpqd::VertexId v,
                rpqd::LabelId elabel, std::vector<rpqd::VertexId>& out) {
  const auto [b, e] = adj.range(v);
  for (std::size_t i = b; i < e; ++i) {
    const rpqd::AdjEntry& entry = adj.entry(i);
    if (entry.elabel == elabel) out.push_back(entry.other);
  }
}

std::vector<rpqd::VertexId> undirected(const rpqd::Graph& graph,
                                       rpqd::VertexId v,
                                       rpqd::LabelId elabel) {
  std::vector<rpqd::VertexId> out;
  neighbours(graph.out(), v, elabel, out);
  neighbours(graph.in(), v, elabel, out);
  return out;
}

}  // namespace

Schema Schema::of(const rpqd::Graph& graph) {
  Schema s;
  s.person = vertex_label(graph, "Person");
  s.post = vertex_label(graph, "Post");
  s.comment = vertex_label(graph, "Comment");
  s.knows = edge_label(graph, "knows");
  s.reply_of = edge_label(graph, "replyOf");
  return s;
}

std::uint64_t knows_1_2(const rpqd::Graph& graph, const Schema& schema,
                        rpqd::VertexId k) {
  if (k >= graph.num_vertices() || !graph.alive(k) ||
      graph.label(k) != schema.person) {
    return 0;
  }
  std::unordered_set<rpqd::VertexId> reached;
  for (const rpqd::VertexId one : undirected(graph, k, schema.knows)) {
    reached.insert(one);
    for (const rpqd::VertexId two : undirected(graph, one, schema.knows)) {
      reached.insert(two);
    }
  }
  std::uint64_t persons = 0;
  for (const rpqd::VertexId v : reached) {
    if (graph.label(v) == schema.person) ++persons;
  }
  return persons;
}

std::uint64_t reply_subtree(const rpqd::Graph& graph, const Schema& schema,
                            rpqd::VertexId k) {
  if (k >= graph.num_vertices() || !graph.alive(k) ||
      graph.label(k) != schema.post) {
    return 0;
  }
  std::unordered_set<rpqd::VertexId> seen{k};
  std::vector<rpqd::VertexId> stack{k};
  std::vector<rpqd::VertexId> replies;
  while (!stack.empty()) {
    const rpqd::VertexId v = stack.back();
    stack.pop_back();
    replies.clear();
    neighbours(graph.in(), v, schema.reply_of, replies);
    for (const rpqd::VertexId r : replies) {
      if (seen.insert(r).second) stack.push_back(r);
    }
  }
  return seen.size();
}

std::uint64_t count_edges(const rpqd::Graph& graph, rpqd::LabelId elabel) {
  std::uint64_t edges = 0;
  const rpqd::Adjacency& out = graph.out();
  for (std::size_t i = 0; i < out.num_entries(); ++i) {
    if (out.entry(i).elabel == elabel) ++edges;
  }
  return edges;
}

std::uint64_t count_vertices(const rpqd::Graph& graph, rpqd::LabelId label) {
  std::uint64_t n = 0;
  for (rpqd::VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (graph.alive(v) && graph.label(v) == label) ++n;
  }
  return n;
}

}  // namespace perfbench
