#include "anneal/embedding.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

namespace nck {

std::size_t Embedding::total_qubits() const {
  std::size_t n = 0;
  for (const auto& chain : chains) n += chain.size();
  return n;
}

std::size_t Embedding::max_chain_length() const {
  std::size_t n = 0;
  for (const auto& chain : chains) n = std::max(n, chain.size());
  return n;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One shortest-path field: distance from a source chain to every qubit,
// where entering qubit q costs weight[q]. parent[q] reconstructs the path
// back towards the source chain (source qubits have parent == themselves).
struct DistField {
  std::vector<double> dist;
  std::vector<Graph::Vertex> parent;
};

DistField dijkstra_from_chain(const Graph& physical,
                              const std::vector<Graph::Vertex>& sources,
                              const std::vector<double>& weight) {
  const std::size_t n = physical.num_vertices();
  DistField field;
  field.dist.assign(n, kInf);
  field.parent.assign(n, 0);
  using Item = std::pair<double, Graph::Vertex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  for (Graph::Vertex s : sources) {
    field.dist[s] = 0.0;  // already part of the chain: free
    field.parent[s] = s;
    pq.emplace(0.0, s);
  }
  while (!pq.empty()) {
    const auto [d, q] = pq.top();
    pq.pop();
    if (d > field.dist[q]) continue;
    for (Graph::Vertex w : physical.neighbors(q)) {
      const double nd = d + weight[w];
      if (nd < field.dist[w]) {
        field.dist[w] = nd;
        field.parent[w] = q;
        pq.emplace(nd, w);
      }
    }
  }
  return field;
}

// BFS order over the logical graph from a max-degree root: neighbors get
// routed near each other on the first pass instead of landing at random.
std::vector<Graph::Vertex> logical_bfs_order(const Graph& g) {
  const std::size_t n = g.num_vertices();
  std::vector<bool> seen(n, false);
  std::vector<Graph::Vertex> order;
  order.reserve(n);
  for (std::size_t round = 0; round < n; ++round) {
    // Pick the unseen vertex of highest degree as the next component root.
    std::size_t best = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (!seen[v] && (best == n || g.degree(static_cast<Graph::Vertex>(v)) >
                                        g.degree(static_cast<Graph::Vertex>(best)))) {
        best = v;
      }
    }
    if (best == n) break;
    std::vector<Graph::Vertex> queue{static_cast<Graph::Vertex>(best)};
    seen[best] = true;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const Graph::Vertex v = queue[head];
      order.push_back(v);
      for (Graph::Vertex w : g.neighbors(v)) {
        if (!seen[w]) {
          seen[w] = true;
          queue.push_back(w);
        }
      }
    }
  }
  return order;
}

class Embedder {
 public:
  Embedder(const Graph& logical, const Graph& physical, Rng& rng)
      : logical_(logical), physical_(physical), rng_(rng) {}

  std::optional<Embedding> run() {
    const std::size_t n = logical_.num_vertices();
    chains_.assign(n, {});
    usage_.assign(physical_.num_vertices(), 0);

    double penalty = kEmbedPenaltyBase;
    std::vector<Graph::Vertex> order = logical_bfs_order(logical_);

    std::size_t best_overuse = std::numeric_limits<std::size_t>::max();
    std::size_t stalled_passes = 0;

    for (std::size_t pass = 0; pass < kEmbedMaxPasses; ++pass) {
      // Pass 0 (and periodic diversification passes) reroute everything;
      // otherwise only the chains competing for overused qubits move, so
      // settled chains stay settled (minorminer's improvement stage).
      const bool full_pass = pass % 8 == 0;
      for (Graph::Vertex v : order) {
        if (full_pass || chains_[v].empty() || chain_contested(v)) {
          route_variable(v, penalty);
        }
      }
      if (overuse() == 0 && all_embedded()) {
        trim_chains();
        Embedding result;
        result.chains = chains_;
        return result;
      }
      // Stall detection: once chains tangle into a knot that encloses some
      // neighbor chains, sequential rerouting cannot untangle it (every
      // candidate root pays a forced crossing). Rip everything up and start
      // the attempt over with a fresh random order.
      const std::size_t current = overuse();
      if (current < best_overuse) {
        best_overuse = current;
        stalled_passes = 0;
      } else if (++stalled_passes >= 6) {
        for (std::size_t v = 0; v < chains_.size(); ++v) {
          drop_chain(static_cast<Graph::Vertex>(v));
        }
        penalty = kEmbedPenaltyBase;
        best_overuse = std::numeric_limits<std::size_t>::max();
        stalled_passes = 0;
        rng_.shuffle(order);
        continue;
      }

      rng_.shuffle(order);  // explore different routings on later passes
      penalty *= kEmbedPenaltyBase;
      // The penalty must keep growing: a capped penalty lets high-degree
      // variables *buy* overlap (sitting on a neighbor chain saves many
      // distance terms at a one-off cost), which never converges. Chain
      // ballooning under large penalties is prevented by the Steiner-style
      // segment reuse in route_variable.
      penalty = std::min(penalty, 1e9);
    }
    return std::nullopt;
  }

 private:
  bool all_embedded() const {
    return std::none_of(chains_.begin(), chains_.end(),
                        [](const auto& c) { return c.empty(); });
  }

  std::size_t overuse() const {
    std::size_t over = 0;
    for (unsigned u : usage_) {
      if (u > 1) over += u - 1;
    }
    return over;
  }

  bool chain_contested(Graph::Vertex v) const {
    for (Graph::Vertex q : chains_[v]) {
      if (usage_[q] > 1) return true;
    }
    return false;
  }

  // Removes redundant chain qubits: a qubit can go if it is a leaf of the
  // chain's induced subgraph (so the chain stays connected) and every
  // logical edge it helps realize is still realized by another chain qubit.
  // Union-of-shortest-paths chains routinely carry such slack.
  void trim_chains() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t v = 0; v < chains_.size(); ++v) {
        auto& chain = chains_[v];
        if (chain.size() <= 1) continue;
        for (std::size_t idx = 0; idx < chain.size(); ++idx) {
          const Graph::Vertex q = chain[idx];
          // Leaf check: at most one chain-internal neighbor.
          std::size_t internal = 0;
          for (Graph::Vertex w : physical_.neighbors(q)) {
            for (Graph::Vertex cq : chain) {
              if (cq == w) {
                ++internal;
                break;
              }
            }
          }
          if (internal > 1) continue;
          // Coupler check: every logical neighbor must stay reachable.
          bool needed = false;
          for (Graph::Vertex u : logical_.neighbors(static_cast<Graph::Vertex>(v))) {
            bool via_q = false, via_other = false;
            for (Graph::Vertex uq : chains_[u]) {
              if (physical_.has_edge(q, uq)) via_q = true;
            }
            if (!via_q) continue;
            for (Graph::Vertex cq : chain) {
              if (cq == q) continue;
              for (Graph::Vertex uq : chains_[u]) {
                if (physical_.has_edge(cq, uq)) {
                  via_other = true;
                  break;
                }
              }
              if (via_other) break;
            }
            if (!via_other) {
              needed = true;
              break;
            }
          }
          if (needed) continue;
          --usage_[q];
          chain.erase(chain.begin() + static_cast<std::ptrdiff_t>(idx));
          --idx;
          changed = true;
        }
      }
    }
  }

  void drop_chain(Graph::Vertex v) {
    for (Graph::Vertex q : chains_[v]) --usage_[q];
    chains_[v].clear();
  }

  void adopt_chain(Graph::Vertex v, std::vector<Graph::Vertex> chain) {
    chains_[v] = std::move(chain);
    for (Graph::Vertex q : chains_[v]) ++usage_[q];
  }

  // Weight of stepping onto a qubit: usable qubits cost penalty^usage;
  // isolated (defective) qubits are unreachable by construction.
  std::vector<double> qubit_weights(double penalty) const {
    std::vector<double> w(physical_.num_vertices());
    for (std::size_t q = 0; q < w.size(); ++q) {
      w[q] = std::pow(penalty, static_cast<double>(usage_[q]));
    }
    return w;
  }

  void route_variable(Graph::Vertex v, double penalty) {
    drop_chain(v);

    // Collect embedded neighbors.
    std::vector<Graph::Vertex> nbrs;
    for (Graph::Vertex u : logical_.neighbors(v)) {
      if (!chains_[u].empty()) nbrs.push_back(u);
    }

    const std::vector<double> weight = qubit_weights(penalty);

    if (nbrs.empty()) {
      // Nothing to connect to yet: claim the least-used usable qubit.
      Graph::Vertex best = 0;
      double best_w = kInf;
      for (std::size_t q = 0; q < weight.size(); ++q) {
        if (physical_.degree(static_cast<Graph::Vertex>(q)) == 0) continue;
        const double jitter = weight[q] * (1.0 + 0.01 * rng_.uniform());
        if (jitter < best_w) {
          best_w = jitter;
          best = static_cast<Graph::Vertex>(q);
        }
      }
      adopt_chain(v, {best});
      return;
    }

    // One shortest-path field per embedded neighbor chain.
    std::vector<DistField> fields;
    fields.reserve(nbrs.size());
    for (Graph::Vertex u : nbrs) {
      fields.push_back(dijkstra_from_chain(physical_, chains_[u], weight));
    }

    // Root = usable qubit minimizing (own weight + sum of distances).
    // A small random jitter breaks ties so chains don't pile onto the
    // lowest-index corner of the device.
    Graph::Vertex root = 0;
    double best_cost = kInf;
    for (std::size_t q = 0; q < weight.size(); ++q) {
      if (physical_.degree(static_cast<Graph::Vertex>(q)) == 0) continue;
      double cost = weight[q];
      for (const auto& f : fields) {
        if (f.dist[q] == kInf) {
          cost = kInf;
          break;
        }
        cost += f.dist[q];
      }
      if (cost < kInf) cost *= 1.0 + 0.05 * rng_.uniform();
      if (cost < best_cost) {
        best_cost = cost;
        root = static_cast<Graph::Vertex>(q);
      }
    }
    if (best_cost == kInf) {
      // Physically unreachable this pass; leave unembedded and let later
      // passes (with different orders) try again.
      return;
    }

    // Chain construction, greedy-Steiner style: connect neighbor chains in
    // ascending distance-from-root order, and let each path start from the
    // *closest point of the chain built so far* (the distance fields cover
    // every qubit, so this costs nothing extra). This reuses path segments
    // instead of building a star of independent paths, which keeps chains
    // from ballooning.
    std::vector<std::size_t> by_distance(nbrs.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) by_distance[i] = i;
    std::sort(by_distance.begin(), by_distance.end(),
              [&](std::size_t a, std::size_t b) {
                return fields[a].dist[root] < fields[b].dist[root];
              });

    std::vector<bool> in_chain(physical_.num_vertices(), false);
    std::vector<Graph::Vertex> chain;
    auto add = [&](Graph::Vertex q) {
      if (!in_chain[q]) {
        in_chain[q] = true;
        chain.push_back(q);
      }
    };
    add(root);
    for (std::size_t i : by_distance) {
      // Closest contact point between the current chain and neighbor i.
      Graph::Vertex start = chain.front();
      for (Graph::Vertex q : chain) {
        if (fields[i].dist[q] < fields[i].dist[start]) start = q;
      }
      Graph::Vertex q = start;
      while (fields[i].dist[q] > 0.0) {
        const Graph::Vertex p = fields[i].parent[q];
        if (fields[i].dist[p] > 0.0) add(p);  // stop at the neighbor chain
        q = p;
      }
    }
    adopt_chain(v, std::move(chain));
  }

  const Graph& logical_;
  const Graph& physical_;
  Rng& rng_;
  std::vector<std::vector<Graph::Vertex>> chains_;
  std::vector<unsigned> usage_;
};

}  // namespace

namespace {

// BFS ball of roughly `target` usable qubits around a random usable center.
std::vector<Graph::Vertex> bfs_ball(const Graph& physical, std::size_t target,
                                    Rng& rng) {
  const std::size_t n = physical.num_vertices();
  Graph::Vertex center = 0;
  for (std::size_t attempts = 0; attempts < 64; ++attempts) {
    center = static_cast<Graph::Vertex>(rng.below(n));
    if (physical.degree(center) > 0) break;
  }
  std::vector<bool> seen(n, false);
  std::vector<Graph::Vertex> ball{center};
  seen[center] = true;
  for (std::size_t head = 0; head < ball.size() && ball.size() < target;
       ++head) {
    for (Graph::Vertex w : physical.neighbors(ball[head])) {
      if (!seen[w]) {
        seen[w] = true;
        ball.push_back(w);
        if (ball.size() >= target) break;
      }
    }
  }
  return ball;
}

}  // namespace

Graph interaction_graph(const Qubo& qubo) {
  Graph g(qubo.num_variables());
  for (const auto& [i, j, c] : qubo.quadratic_terms()) g.add_edge(i, j);
  return g;
}

std::optional<Embedding> find_embedding(const Graph& logical,
                                        const Graph& physical, Rng& rng) {
  if (logical.num_vertices() == 0) return Embedding{};

  for (std::size_t attempt = 0; attempt < kEmbedTries; ++attempt) {
    // Working on a compact subregion of a large device is dramatically
    // faster (Dijkstra fields shrink) *and* yields shorter chains; the
    // region grows geometrically across attempts, ending at the full
    // device.
    const std::size_t want =
        std::max<std::size_t>(128, logical.num_vertices() * 16)
        << (2 * attempt);
    if (want < physical.num_vertices() && attempt + 1 < kEmbedTries) {
      const auto region = bfs_ball(physical, want, rng);
      const Graph sub = physical.induced_subgraph(region);
      Embedder embedder(logical, sub, rng);
      if (auto result = embedder.run()) {
        for (auto& chain : result->chains) {
          for (auto& q : chain) q = region[q];  // back to device ids
        }
        return result;
      }
      continue;
    }
    Embedder embedder(logical, physical, rng);
    if (auto result = embedder.run()) return result;
  }
  return std::nullopt;
}

EmbeddingCheck validate_embedding(const Graph& logical, const Graph& physical,
                                  const Embedding& embedding) {
  EmbeddingCheck check;
  if (embedding.chains.size() != logical.num_vertices()) {
    check.error = "chain count != logical vertex count";
    return check;
  }
  std::vector<int> owner(physical.num_vertices(), -1);
  for (std::size_t v = 0; v < embedding.chains.size(); ++v) {
    const auto& chain = embedding.chains[v];
    if (chain.empty()) {
      check.error = "empty chain for variable " + std::to_string(v);
      return check;
    }
    for (Graph::Vertex q : chain) {
      if (q >= physical.num_vertices()) {
        check.error = "chain qubit out of range";
        return check;
      }
      if (owner[q] != -1) {
        check.error = "qubit " + std::to_string(q) + " shared by chains " +
                      std::to_string(owner[q]) + " and " + std::to_string(v);
        return check;
      }
      owner[q] = static_cast<int>(v);
    }
    // Connectivity within the chain.
    std::vector<Graph::Vertex> stack{chain[0]};
    std::vector<bool> seen(physical.num_vertices(), false);
    seen[chain[0]] = true;
    std::size_t reached = 1;
    while (!stack.empty()) {
      const Graph::Vertex q = stack.back();
      stack.pop_back();
      for (Graph::Vertex w : physical.neighbors(q)) {
        if (!seen[w] && owner[w] == static_cast<int>(v)) {
          seen[w] = true;
          ++reached;
          stack.push_back(w);
        }
      }
    }
    if (reached != chain.size()) {
      check.error = "chain for variable " + std::to_string(v) +
                    " is not connected";
      return check;
    }
  }
  for (const auto& [a, b] : logical.edges()) {
    bool coupled = false;
    for (Graph::Vertex qa : embedding.chains[a]) {
      for (Graph::Vertex qb : embedding.chains[b]) {
        if (physical.has_edge(qa, qb)) {
          coupled = true;
          break;
        }
      }
      if (coupled) break;
    }
    if (!coupled) {
      check.error = "logical edge (" + std::to_string(a) + "," +
                    std::to_string(b) + ") has no physical coupler";
      return check;
    }
  }
  check.ok = true;
  return check;
}

}  // namespace nck
