#include "anneal/sampler.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>

#include "anneal/packed.hpp"
#include "qubo/ising.hpp"

namespace nck {
namespace {

double max_abs_coefficient(const IsingModel& ising) {
  double m = 0.0;
  for (double h : ising.h) m = std::max(m, std::abs(h));
  for (const auto& [a, b, c] : ising.j) m = std::max(m, std::abs(c));
  return m;
}

}  // namespace

AnnealSampleResult sample_annealer(const IsingModel& logical,
                                   const EmbeddedProblem& problem,
                                   const AnnealerSamplerOptions& options,
                                   Rng& rng, obs::Trace* trace) {
  return sample_annealer(logical, problem, options, rng, trace,
                         lockstep_lanes());
}

AnnealSampleResult sample_annealer(const IsingModel& logical,
                                   const EmbeddedProblem& problem,
                                   const AnnealerSamplerOptions& options,
                                   Rng& rng, obs::Trace* trace,
                                   std::size_t lanes) {
  obs::Span sample_span(trace, "anneal.sample");
  AnnealSampleResult result;
  result.reads.resize(options.num_reads);

  // Rejected here, not by a workspace inside the parallel region.
  if (lanes != 1 && lanes != lockstep_lanes()) {
    throw std::invalid_argument("sample_annealer: " + std::to_string(lanes) +
                                " lanes on a host that runs " +
                                std::to_string(lockstep_lanes()));
  }
  const PackedIsing packed(problem.ising);

  const double scale = max_abs_coefficient(problem.ising);
  // Spin-reversal transform gauges the clean program first; the ICE control
  // errors then act on the gauged program, so their effective sign pattern
  // varies per read instead of biasing every read identically. Like the
  // hardware, the program is auto-scaled to the unit coefficient range so
  // the temperature ladder is meaningful regardless of problem scale.
  ReadProgram program;
  program.gauge = options.spin_reversal_transform;
  program.sigma = options.ice_sigma * scale;
  program.scale = scale;

  // Per-read streams split serially from the master before the parallel
  // region: read r's gauge, noise, anneal, readout, and chain-tie draws all
  // come from streams[r], so neither the schedule, the thread count nor the
  // lockstep group a read lands in can change any read's outcome.
  std::vector<Rng> streams;
  streams.reserve(options.num_reads);
  for (std::size_t r = 0; r < options.num_reads; ++r) {
    streams.push_back(rng.split());
  }

  const Qubo logical_qubo =
      options.postprocess ? ising_to_qubo(logical) : Qubo();
  // Read g * lanes + l is lane l of group g, one OpenMP work item per group.
  const std::size_t num_groups = (options.num_reads + lanes - 1) / lanes;

#pragma omp parallel
  {
    // One workspace per thread, sized by the problem and reused across that
    // thread's groups, so the hot loop is allocation-free after the first.
    LockstepWorkspace workspace(packed, lanes);
    std::vector<bool> physical(packed.num_spins());
#pragma omp for schedule(dynamic)
    for (std::int64_t g = 0; g < static_cast<std::int64_t>(num_groups); ++g) {
      const std::size_t first = static_cast<std::size_t>(g) * lanes;
      const std::size_t count = std::min(lanes, options.num_reads - first);
      workspace.anneal(std::span<Rng>(streams).subspan(first, count), program,
                       options.num_replicas, options.num_sweeps);
      for (std::size_t lane = 0; lane < count; ++lane) {
        const std::size_t r = first + lane;
        Rng& stream = streams[r];
        // Readout errors flip individual qubits after the anneal; then the
        // gauge is undone.
        for (std::size_t q = 0; q < physical.size(); ++q) {
          bool bit = workspace.up(lane, q);
          if (stream.bernoulli(options.readout_error)) bit = !bit;
          if (workspace.gauge_bit(lane, q)) bit = !bit;
          physical[q] = bit;
        }
        AnnealRead& read = result.reads[r];
        read.read_index = r;
        UnembedStats unembed_stats;
        read.logical =
            unembed_sample(physical, problem, &unembed_stats, &stream);
        read.chain_breaks = unembed_stats.chain_breaks;
        read.chain_ties = unembed_stats.ties;
        if (options.postprocess) {
          // Zero tabu moves is greedy_descent.
          read.logical = tabu_search(logical_qubo, read.logical,
                                     options.postprocess_tabu_iters)
                             .x;
        }
        read.logical_energy = logical.energy(read.logical);
      }
    }
  }

  std::stable_sort(result.reads.begin(), result.reads.end(),
                   [](const AnnealRead& a, const AnnealRead& b) {
                     return a.logical_energy < b.logical_energy;
                   });

  result.timing.num_reads = options.num_reads;
  result.timing.programming_us = kAdvantageTiming.programming_us;
  result.timing.sampling_us =
      kAdvantageTiming.sampling_time_us(options.num_reads);
  // The postprocessing tail is only spent when postprocessing actually
  // runs; the model's default charged it unconditionally.
  result.timing.postprocess_us =
      options.postprocess ? kAdvantageTiming.postprocess_us : 0.0;
  result.timing.total_us = result.timing.programming_us +
                           result.timing.sampling_us +
                           result.timing.postprocess_us;

  if (trace) {
    std::size_t total_breaks = 0;
    std::size_t total_ties = 0;
    for (const AnnealRead& read : result.reads) {
      total_breaks += read.chain_breaks;
      total_ties += read.chain_ties;
    }
    const std::size_t num_chains = problem.chain.size();
    obs::Registry& reg = trace->registry();
    reg.add("anneal.reads", static_cast<double>(options.num_reads));
    reg.add("anneal.chain_breaks", static_cast<double>(total_breaks));
    reg.add("anneal.chain_break_ties", static_cast<double>(total_ties));
    reg.set("anneal.chain_break_rate",
            options.num_reads && num_chains
                ? static_cast<double>(total_breaks) /
                      static_cast<double>(options.num_reads * num_chains)
                : 0.0);
    reg.set("anneal.ice_sigma", program.sigma);
    reg.set("anneal.replicas",
            static_cast<double>(std::max<std::size_t>(1, options.num_replicas)));
    reg.set("anneal.lanes", static_cast<double>(lanes));
    trace->record_modeled("device.programming", result.timing.programming_us);
    trace->record_modeled("device.sampling", result.timing.sampling_us);
    trace->record_modeled("device.postprocess", result.timing.postprocess_us);
  }
  return result;
}

}  // namespace nck
