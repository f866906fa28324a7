// Workload inputs. The corpus comes from the source tree's
// examples/programs; everything else is generated from the workload seed
// with the problems/ encoders, and every program carries a truth from an
// oracle that is independent of the Solver.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "bench.hpp"
#include "synth/engine.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Every *.nck file of `dir`, sorted by name, that has at most `max_vars`
/// variables, with its exhaustive truth. Throws when the directory is
/// missing or yields no program: the benchmark never substitutes a
/// built-in corpus for the real one.
std::vector<Program> load_corpus(const std::string& dir, std::size_t max_vars);

/// Cold-batch program `index`: max-cut, vertex cover, min set cover,
/// planted 3-SAT and 3-coloring in turn, at 6-18 variables. Truths come from
/// branch-and-bound cut/cover, exhaustive set cover, the planted
/// assignment and exact colorability.
Program cold_program(nck::Rng& rng, std::size_t index);

/// QAOA program `index`: max-cut or vertex cover whose compiled QUBO has
/// 10, 13 or 16 variables, so every circuit solve takes the dense
/// state-vector path. `engine` only sizes the QUBO.
Program qaoa_program(nck::Rng& rng, nck::SynthEngine& engine,
                     std::size_t index);

/// The decomposition instance: chained_set_system(41, 8, 2, 4) as a
/// minimum set cover, 203 variables in one interaction component, provable
/// optimum 41 subsets (162 satisfied softs).
Program set_cover_instance();

/// The set-up solve of the Solver-based workloads: the XOR gate of the
/// paper's Eq. 3 with two soft preferences (general synthesis path, one
/// ancilla), with its exhaustive truth.
Program warmup_program();

/// Digest of every program text, in order (the workload digest).
std::string texts_digest(const std::vector<Program>& programs);

}  // namespace perfbench
