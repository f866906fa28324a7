#include "fuzz/differential.hpp"

#include <map>
#include <memory>
#include <sstream>

#include "analysis/certify.hpp"
#include "classical/exact_solver.hpp"
#include "runtime/solver.hpp"
#include "synth/builtin.hpp"
#include "synth/lp_synth.hpp"
#include "synth/pattern.hpp"
#if NCK_HAVE_Z3
#include "synth/z3_synth.hpp"
#endif

namespace nck::fuzz {
namespace {

/// FailureKinds a healthy pipeline may legitimately report for a small
/// generated program: typed rejections, capacity limits, and the empty
/// sample set. Anything else (kBadOptions on sane options, fault-injection
/// kinds with no injector armed, ...) is a divergence.
bool expected_failure(FailureKind kind) noexcept {
  switch (kind) {
    case FailureKind::kAnalysisRejected:
    case FailureKind::kInfeasible:
    case FailureKind::kNoEmbedding:
    case FailureKind::kDeviceTooSmall:
    case FailureKind::kNoSamples:
      return true;
    default:
      return false;
  }
}

void check_one_synthesis(const ConstraintPattern& pattern,
                         ConstraintSynthesizer& synth,
                         const DifferentialOptions& options,
                         DifferentialReport& report) {
  std::optional<SynthesizedQubo> result;
  try {
    result = synth.synthesize(pattern);
  } catch (const std::exception& e) {
    report.divergences.push_back("synth " + synth.name() + " threw on " +
                                 pattern.key() + ": " + e.what());
    return;
  }
  if (!result) return;  // budget-inadmissible: not an error
  ++report.syntheses_checked;
  if (options.synth_mutator) options.synth_mutator(*result);
  const ConstraintCertificate cert = certify_synthesis(pattern, *result);
  if (!cert.ok) {
    report.divergences.push_back("synth " + synth.name() + " on " +
                                 pattern.key() +
                                 " failed certification: " + cert.error);
  }
}

void run_synthesis_oracle(const Env& env, const DifferentialOptions& options,
                          DifferentialReport& report) {
  // Engines are constructed once per run: Z3 keeps an incremental context,
  // and the oracle's cost is dominated by certification enumeration anyway.
  BuiltinSynthesizer builtin;
  LpSynthesizer lp;
#if NCK_HAVE_Z3
  Z3Synthesizer z3;
#endif
  std::map<std::string, ConstraintPattern> patterns;
  for (const Constraint& c : env.constraints()) {
    ConstraintPattern p = c.pattern();
    patterns.emplace(p.key(), std::move(p));
  }
  for (const auto& [key, pattern] : patterns) {
    ++report.patterns_checked;
    check_one_synthesis(pattern, builtin, options, report);
    check_one_synthesis(pattern, lp, options, report);
#if NCK_HAVE_Z3
    check_one_synthesis(pattern, z3, options, report);
#endif
  }
}

void check_backend_report(const Env& env, BackendKind backend,
                          const SolveReport& solved, const GroundTruth& truth,
                          DifferentialReport& report) {
  const std::string who = std::string(backend_name(backend)) + ": ";
  if (!solved.ran) {
    if (!expected_failure(solved.failure)) {
      report.divergences.push_back(who + "unexpected failure kind '" +
                                   failure_kind_name(solved.failure) + "': " +
                                   solved.failure_message());
    }
    if (solved.failure == FailureKind::kInfeasible && truth.feasible) {
      report.divergences.push_back(
          who + "reported infeasible but brute force found a feasible "
                "assignment");
    }
    if (backend == BackendKind::kClassical && !truth.feasible &&
        solved.failure != FailureKind::kInfeasible &&
        solved.failure != FailureKind::kAnalysisRejected) {
      report.divergences.push_back(
          who + "program is infeasible but the failure was '" +
          std::string(failure_kind_name(solved.failure)) + "'");
    }
    return;
  }
  if (!truth.feasible) {
    report.divergences.push_back(
        who + "produced samples for a brute-force-infeasible program");
    return;
  }
  if (solved.truth_exact &&
      (solved.truth.feasible != truth.feasible ||
       solved.truth.best_soft_satisfied != truth.best_soft_satisfied)) {
    std::ostringstream os;
    os << who << "solver truth (feasible=" << solved.truth.feasible
       << ", best_soft=" << solved.truth.best_soft_satisfied
       << ") != brute force (feasible=" << truth.feasible
       << ", best_soft=" << truth.best_soft_satisfied << ")";
    report.divergences.push_back(os.str());
  }
  if (solved.best_assignment.size() != env.num_vars()) {
    std::ostringstream os;
    os << who << "best assignment has " << solved.best_assignment.size()
       << " variables, program has " << env.num_vars();
    report.divergences.push_back(os.str());
    return;
  }
  const Evaluation eval = env.evaluate(solved.best_assignment);
  if (eval.feasible() && eval.soft_satisfied > truth.best_soft_satisfied) {
    std::ostringstream os;
    os << who << "sample satisfies " << eval.soft_satisfied
       << " softs, brute-forced optimum is " << truth.best_soft_satisfied;
    report.divergences.push_back(os.str());
  }
  if (classify(eval, truth) != solved.best_quality) {
    report.divergences.push_back(
        who + "reported quality '" + quality_name(solved.best_quality) +
        "' but the best assignment re-classifies as '" +
        quality_name(classify(eval, truth)) + "' against brute-forced truth");
  }
  if (backend == BackendKind::kClassical &&
      solved.best_quality != Quality::kOptimal) {
    report.divergences.push_back(
        who + "exact classical solve returned a non-optimal result ('" +
        quality_name(solved.best_quality) + "')");
  }
}

void run_backend_oracle(const Env& env, const DifferentialOptions& options,
                        DifferentialReport& report) {
  const ClassicalSolution brute = solve_brute_force(env);
  const GroundTruth truth{brute.feasible, brute.soft_satisfied};
  bool classical_rejected_analysis = false;
  bool others_ran = false;
  for (const BackendKind backend :
       {BackendKind::kClassical, BackendKind::kAnnealer,
        BackendKind::kCircuit}) {
    Solver solver(options.solver_seed);
    solver.annealer_options().sampler.num_reads = options.anneal_reads;
    solver.circuit_options().shots = options.circuit_shots;
    const SolveReport solved = solver.solve(env, backend);
    ++report.backends_checked;
    check_backend_report(env, backend, solved, truth, report);
    if (backend == BackendKind::kClassical) {
      classical_rejected_analysis =
          !solved.ran && solved.failure == FailureKind::kAnalysisRejected;
    } else if (solved.ran) {
      others_ran = true;
    }
  }
  // Program-level analysis errors are backend-agnostic: if the classical
  // path (which has no embedding or device prechecks) rejected, a
  // hardware-targeting backend accepting the same program means the two
  // analysis passes disagree about the program itself.
  if (classical_rejected_analysis && others_ran) {
    report.divergences.emplace_back(
        "classical rejected the program at analysis but another backend "
        "solved it");
  }
}

}  // namespace

std::string DifferentialReport::to_string() const {
  std::ostringstream os;
  for (const std::string& d : divergences) os << d << '\n';
  return os.str();
}

DifferentialReport run_differential(const Env& env,
                                    const DifferentialOptions& options) {
  DifferentialReport report;
  if (options.check_synthesis) {
    run_synthesis_oracle(env, options, report);
  }
  if (options.check_backends && env.num_vars() <= options.max_truth_vars) {
    run_backend_oracle(env, options, report);
  }
  return report;
}

}  // namespace nck::fuzz
