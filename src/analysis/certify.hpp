// Semantic QUBO certification (the sound core of the V-series passes).
//
// Per constraint, the certificate is an exhaustive proof over all 2^(d+a)
// assignments of the synthesized QUBO that, after projecting out the a
// ancillas by minimization,
//   * every satisfying x of nck(N, K) reaches ground energy 0, and
//   * every violating x costs at least the declared gap,
// i.e. argmin(E) == sat(nck(N, K)). The observed penalty gap (minimum
// violating energy minus maximum valid ground energy) is recorded as a
// structured artifact.
//
// Per program, the certificates compose: compile() scales soft constraints
// to 1/gap and hard ones to hard_scale/gap, so the certified per-constraint
// bounds interval-propagate into
//   * S_max — an upper bound on the total soft energy of ANY assignment
//     (sum of certified worst-case projected minima, normalized), and
//   * G_i  — a lower bound on the energy any assignment violating hard
//     constraint i pays (hard_scale * observed_gap_i / declared_gap_i).
// G_i > S_max proves hard constraint i cannot be drowned by soft
// preferences. report_certificate() turns failures of that dominance into
// NCK-V001 (error: drownable) and NCK-V002 (warning: margin below the
// annealer noise floor) — the sound replacement for the heuristic NCK-P007.
// Certification failures themselves become NCK-V000 errors.
//
// certify_program() is deliberately the only expensive entry point;
// report_certificate() is pure arithmetic over the artifact, so cached
// certificates (runtime::Solver stores them in the backend PlanCache keyed
// by program fingerprint) re-emit diagnostics without re-enumeration.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "core/compile.hpp"
#include "core/env.hpp"
#include "synth/engine.hpp"

namespace nck {

struct CertifyOptions {
  /// Dominance is computed against hard_scale = S_max + hard_margin. The
  /// default is the margin compile() applies; another value asks what the
  /// certificate would say under that margin (`nck_cli certify
  /// --hard-margin`).
  double hard_margin = kHardMargin;
};

/// Exhaustive proof artifact for one constraint's synthesized QUBO.
struct ConstraintCertificate {
  std::size_t constraint = 0;  // index into Env::constraints()
  bool ok = false;
  bool soft = false;
  std::size_t num_vars = 0;      // d
  std::size_t num_ancillas = 0;  // a
  double declared_gap = 0.0;     // synth.gap
  /// min over violating x of min_z f(x, z); == declared_gap for tautologies.
  double observed_gap = 0.0;
  /// max over satisfying x of |min_z f(x, z)| — proven <= 1e-6 when ok.
  double worst_valid_ground = 0.0;
  /// max over ALL x of min_z f(x, z) — the constraint's worst-case energy
  /// contribution (drives the program-level soft-energy bound).
  double max_min_penalty = 0.0;
  double max_abs_coefficient = 0.0;  // of the unscaled synthesized QUBO
  std::string method;  // synthesis path that produced the QUBO
  std::string error;   // non-empty iff !ok
};

/// Interval-propagated whole-program artifact.
struct ProgramCertificate {
  bool ok = false;  // every per-constraint certificate ok
  std::vector<ConstraintCertificate> constraints;
  /// Upper bound on total normalized soft energy of any assignment (S_max);
  /// equals CompiledQubo::max_soft_energy for the same program.
  double max_soft_energy = 0.0;
  /// S_max + hard_margin — the scale compile() applies per unit hard gap.
  double hard_scale = 0.0;
  /// Largest absolute coefficient of the compiled (scaled) QUBO, bounded
  /// from the per-constraint coefficients; 0 when certification failed.
  double max_abs_scaled_coefficient = 0.0;

  /// Structured artifact: {"ok":...,"hard_scale":...,"constraints":[...]}.
  std::string to_json() const;
};

/// Certifies one synthesized QUBO against its pattern. Never throws on a
/// semantic mismatch — the failure is recorded in the certificate.
ConstraintCertificate certify_synthesis(const ConstraintPattern& pattern,
                                        const SynthesizedQubo& synth);

/// Certifies every constraint of the program (synthesizing through
/// `engine`, so warm synth caches are reused) and interval-propagates the
/// program-level bounds. Synthesis failures are recorded per constraint,
/// not thrown.
ProgramCertificate certify_program(const Env& env, SynthEngine& engine,
                                   const CertifyOptions& options = {});

/// Re-derives the NCK-V000/V001/V002 diagnostics from a certificate.
/// Enumeration-free: safe to call on a cache-recalled artifact.
void report_certificate(const Env& env, const ProgramCertificate& cert,
                        AnalysisReport& report);

struct LintedCertificate {
  ProgramCertificate certificate;  // empty when the lint found errors
  AnalysisReport report;
};

/// The `certify` recipe of nck_cli and nck_serve: the program passes on
/// `engine` with NCK-P007 yielding to the certificate, then, unless they
/// found an error (a provably broken program is not worth enumerating),
/// certify_program on the same engine and its NCK-V* diagnostics.
LintedCertificate lint_and_certify(const Env& env, SynthEngine& engine,
                                   const CertifyOptions& options = {});

}  // namespace nck
