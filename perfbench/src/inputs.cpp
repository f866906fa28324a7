#include "inputs.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/compile.hpp"
#include "core/parse.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "problems/coloring.hpp"
#include "problems/cover.hpp"
#include "problems/ksat.hpp"
#include "problems/max_cut.hpp"
#include "problems/vertex_cover.hpp"

namespace perfbench {
namespace {

/// Blocks of the decomposition instance, which is also its minimum cover.
constexpr std::size_t kSetCoverOptimum = 41;

/// Uniform in [lo, hi].
std::size_t draw(nck::Rng& rng, std::size_t lo, std::size_t hi) {
  return lo + static_cast<std::size_t>(rng.below(hi - lo + 1));
}

/// Connected random graph on n vertices with between n and 2n edges (capped
/// at the complete graph).
nck::Graph random_graph(nck::Rng& rng, std::size_t n) {
  const std::size_t max_edges = n * (n - 1) / 2;
  const std::size_t m = std::min(draw(rng, n, 2 * n), max_edges);
  return nck::random_connected_gnm(n, m, rng);
}

Program make(std::string label, nck::Env env, nck::GroundTruth truth) {
  Program p;
  p.label = std::move(label);
  p.text = env.to_string();
  p.env = std::move(env);
  p.truth = truth;
  return p;
}

Program max_cut(nck::Rng& rng, std::size_t n) {
  const nck::MaxCutProblem problem{random_graph(rng, n)};
  // One soft constraint per edge; the optimum cuts the maximum cut.
  return make("max-cut/" + std::to_string(n), problem.encode(),
              {true, nck::maximum_cut_size(problem.graph)});
}

Program vertex_cover(nck::Rng& rng, std::size_t n) {
  const nck::VertexCoverProblem problem{random_graph(rng, n)};
  // One soft per vertex; the optimum leaves the minimum cover unmet.
  return make("vertex-cover/" + std::to_string(n), problem.encode(),
              {true, n - nck::minimum_vertex_cover_size(problem.graph)});
}

}  // namespace

std::vector<Program> load_corpus(const std::string& dir, std::size_t max_vars) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw std::runtime_error("program corpus " + dir + " is missing");
  }
  std::vector<fs::path> files;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ".nck") {
      files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<Program> corpus;
  for (const fs::path& path : files) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    Program p;
    p.label = path.filename().string();
    p.text = text.str();
    p.env = nck::parse_program(p.text);
    if (p.env.num_vars() > max_vars) continue;
    p.truth = exhaustive_truth(p.env);
    corpus.push_back(std::move(p));
  }
  if (corpus.empty()) {
    throw std::runtime_error("program corpus " + dir +
                             " holds no program of at most " +
                             std::to_string(max_vars) + " variables");
  }
  return corpus;
}

Program cold_program(nck::Rng& rng, std::size_t index) {
  switch (index % 5) {
    case 0:
      return max_cut(rng, draw(rng, 6, 14));
    case 1:
      return vertex_cover(rng, draw(rng, 6, 16));
    case 2: {
      const std::size_t elements = draw(rng, 6, 8);
      const std::size_t blocks = draw(rng, 3, elements / 2);
      const std::size_t extras = draw(rng, 3, 6);
      const nck::MinSetCoverProblem problem{
          nck::random_set_system(elements, blocks, extras, rng)};
      const std::size_t subsets = problem.system.subsets.size();
      return make("min-set-cover/" + std::to_string(subsets), problem.encode(),
                  {true, subsets - problem.optimal_cover_size()});
    }
    case 3: {
      const std::size_t n = draw(rng, 6, 8);
      // Planted: random_ksat repairs every clause its hidden assignment
      // falsifies, so the hard-only program is satisfiable.
      const nck::KSatProblem problem{nck::random_ksat(n, n, 3, rng)};
      return make("3-sat/" + std::to_string(n), problem.encode_repeated(),
                  {true, 0});
    }
    default: {
      for (;;) {
        const std::size_t n = draw(rng, 3, 6);
        const nck::MapColoringProblem problem{random_graph(rng, n), 3};
        if (!nck::k_colorable(problem.graph, 3)) continue;  // keep feasible
        return make("3-coloring/" + std::to_string(n), problem.encode(),
                    {true, 0});
      }
    }
  }
}

Program qaoa_program(nck::Rng& rng, nck::SynthEngine& engine,
                     std::size_t index) {
  // Every run of 6 consecutive programs covers both problems at each of the
  // sizes 10, 13 and 16 once: state-vector cost doubles per qubit, so a
  // fixed size profile keeps batches comparable across seeds, and an odd
  // number of sizes puts the median solve inside a size class instead of
  // in the gap between two.
  const std::size_t n = 10 + 3 * ((index / 2) % 3);
  for (;;) {
    Program p = index % 2 == 0 ? max_cut(rng, n) : vertex_cover(rng, n);
    const std::size_t qubo_vars = nck::compile(p.env, engine).num_qubo_vars();
    if (qubo_vars >= 10 && qubo_vars <= 20) return p;
  }
}

Program set_cover_instance() {
  const nck::MinSetCoverProblem problem{
      nck::chained_set_system(kSetCoverOptimum, 8, 2, 4)};
  const std::size_t subsets = problem.system.subsets.size();
  return make("chained-set-cover/" + std::to_string(subsets), problem.encode(),
              {true, subsets - kSetCoverOptimum});
}

Program warmup_program() {
  Program p;
  p.label = "xor-gate";
  p.text =
      "nck({a, b, c}, {0, 2}) /\\ nck({a}, {1}, soft) /\\ nck({b}, {0}, soft)";
  p.env = nck::parse_program(p.text);
  p.truth = exhaustive_truth(p.env);
  return p;
}

std::string texts_digest(const std::vector<Program>& programs) {
  Digest d;
  for (const Program& p : programs) d.add(p.text);
  return d.hex();
}

}  // namespace perfbench
