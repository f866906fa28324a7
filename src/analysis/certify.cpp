#include "analysis/certify.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "analysis/analyzer.hpp"
#include "anneal/sampler.hpp"
#include "qubo/brute_force.hpp"
#include "util/json_escape.hpp"

namespace nck {

namespace {

// Energy slack for float comparisons (valid grounds within kEps of 0).
constexpr double kEps = 1e-6;
// Constraints with d + a beyond this are refused (2^(d+a) enumeration).
constexpr std::size_t kMaxEnumVars = 24;

}  // namespace

ConstraintCertificate certify_synthesis(const ConstraintPattern& pattern,
                                        const SynthesizedQubo& synth) {
  ConstraintCertificate cert;
  const std::size_t d = synth.num_vars;
  const std::size_t a = synth.num_ancillas;
  cert.num_vars = d;
  cert.num_ancillas = a;
  cert.declared_gap = synth.gap;
  cert.method = synth.method;
  cert.max_abs_coefficient = synth.qubo.max_abs_coefficient();

  if (d != pattern.num_vars()) {
    cert.error = "synthesized variable count mismatches the pattern";
    return cert;
  }
  if (synth.qubo.num_variables() > d + a) {
    cert.error = "QUBO touches variables beyond d + a";
    return cert;
  }
  if (d + a > kMaxEnumVars) {
    std::ostringstream os;
    os << "constraint too wide to certify: d + a = " << (d + a) << " > "
       << kMaxEnumVars;
    cert.error = os.str();
    return cert;
  }
  if (synth.gap <= 0.0) {
    cert.error = "declared gap is not positive";
    return cert;
  }

  const std::vector<double> minima =
      ancilla_projected_minima(synth.qubo, d, a);
  double min_violating = std::numeric_limits<double>::infinity();
  for (std::uint32_t xb = 0; xb < (1u << d); ++xb) {
    const double best = minima[xb];
    cert.max_min_penalty = std::max(cert.max_min_penalty, best);
    if (pattern.satisfied(xb)) {
      cert.worst_valid_ground =
          std::max(cert.worst_valid_ground, std::abs(best));
      if (std::abs(best) > kEps) {
        std::ostringstream os;
        os << "satisfying assignment " << xb << " has ground energy " << best
           << " (expected 0)";
        cert.error = os.str();
        return cert;
      }
    } else {
      min_violating = std::min(min_violating, best);
      if (best < synth.gap - kEps) {
        std::ostringstream os;
        os << "violating assignment " << xb << " reaches energy " << best
           << " below the declared gap " << synth.gap;
        cert.error = os.str();
        return cert;
      }
    }
  }
  // A tautology has no violating assignment; its gap is vacuously the
  // declared one.
  cert.observed_gap =
      std::isinf(min_violating) ? synth.gap : min_violating;
  cert.ok = true;
  return cert;
}

ProgramCertificate certify_program(const Env& env, SynthEngine& engine,
                                   const CertifyOptions& options) {
  ProgramCertificate program;
  program.ok = true;
  for (std::size_t ci = 0; ci < env.constraints().size(); ++ci) {
    const Constraint& c = env.constraints()[ci];
    ConstraintCertificate cert;
    try {
      const SynthesizedQubo synth = engine.synthesize(c.pattern());
      cert = certify_synthesis(c.pattern(), synth);
    } catch (const std::exception& e) {
      cert.error = std::string("synthesis failed: ") + e.what();
    }
    cert.constraint = ci;
    cert.soft = c.soft();
    program.ok = program.ok && cert.ok;
    program.constraints.push_back(std::move(cert));
  }

  // Interval propagation mirrors compile(): soft at weight 1/gap, hard at
  // hard_scale/gap. S_max sums certified worst-case projected minima.
  if (program.ok) {
    for (const ConstraintCertificate& cert : program.constraints) {
      if (cert.soft) {
        program.max_soft_energy += cert.max_min_penalty / cert.declared_gap;
      }
    }
    program.hard_scale = program.max_soft_energy + options.hard_margin;
    for (const ConstraintCertificate& cert : program.constraints) {
      const double scale = cert.soft ? 1.0 / cert.declared_gap
                                     : program.hard_scale / cert.declared_gap;
      program.max_abs_scaled_coefficient =
          std::max(program.max_abs_scaled_coefficient,
                   scale * cert.max_abs_coefficient);
    }
  }
  return program;
}

void report_certificate(const Env& env, const ProgramCertificate& cert,
                        AnalysisReport& report) {
  for (const ConstraintCertificate& c : cert.constraints) {
    if (c.ok) continue;
    report.add({Severity::kError, DiagCode::kCertificationFailed,
                DiagLocation::constraint(
                    c.constraint,
                    constraint_label(env, env.constraints()[c.constraint])),
                "QUBO ground states do not coincide with the constraint's "
                "satisfying assignments: " +
                    c.error,
                "the compiled objective would optimize the wrong predicate; "
                "report the synthesis path (" +
                    (c.method.empty() ? std::string("unknown") : c.method) +
                    ") with the output of `nck_cli certify --json "
                    "<program>`"});
  }
  if (!cert.ok) return;

  // Gap dominance. Any assignment violating hard constraint i costs at
  // least G_i; any feasible assignment costs at most S_max; G_i > S_max is
  // the sound criterion that soft preferences cannot drown the constraint.
  const double s_max = cert.max_soft_energy;
  const double noise =
      kDefaultIceSigma * kResolutionFactor * cert.max_abs_scaled_coefficient;
  for (const ConstraintCertificate& c : cert.constraints) {
    if (c.soft) continue;
    const double scaled_gap =
        cert.hard_scale * c.observed_gap / c.declared_gap;
    const DiagLocation loc = DiagLocation::constraint(
        c.constraint, constraint_label(env, env.constraints()[c.constraint]));
    if (scaled_gap <= s_max + kEps) {
      std::ostringstream msg;
      msg << "certified penalty gap " << scaled_gap
          << " does not exceed the soft-energy bound " << s_max
          << "; an optimum may violate this hard constraint";
      report.add({Severity::kError, DiagCode::kGapDominatedBySoft, loc,
                  msg.str(),
                  "use a positive hard margin (compile() applies 1) so "
                  "every hard gap clears the total soft energy"});
    } else if (scaled_gap - s_max < noise) {
      std::ostringstream msg;
      msg << "dominance margin " << (scaled_gap - s_max)
          << " is below the annealer noise floor " << noise
          << " (ice_sigma * resolution_factor * max |coefficient|)";
      report.add({Severity::kWarning, DiagCode::kGapMarginThin, loc,
                  msg.str(),
                  "reduce the soft-constraint count, aggregate preferences "
                  "into fewer constraints, or target the classical backend, "
                  "where coefficients are exact"});
    }
  }
}

LintedCertificate lint_and_certify(const Env& env, SynthEngine& engine,
                                   const CertifyOptions& options) {
  LintedCertificate out;
  out.report = Analyzer().analyze(env, engine, AnalysisTarget{},
                                  /*scale_separation=*/false);
  if (!out.report.has_errors()) {
    out.certificate = certify_program(env, engine, options);
    report_certificate(env, out.certificate, out.report);
  }
  return out;
}

std::string ProgramCertificate::to_json() const {
  std::ostringstream os;
  os << "{\"ok\":" << (ok ? "true" : "false")
     << ",\"max_soft_energy\":" << json_number(max_soft_energy)
     << ",\"hard_scale\":" << json_number(hard_scale)
     << ",\"max_abs_scaled_coefficient\":"
     << json_number(max_abs_scaled_coefficient) << ",\"constraints\":[";
  for (std::size_t i = 0; i < constraints.size(); ++i) {
    const ConstraintCertificate& c = constraints[i];
    if (i) os << ",";
    os << "{\"constraint\":" << c.constraint
       << ",\"ok\":" << (c.ok ? "true" : "false")
       << ",\"soft\":" << (c.soft ? "true" : "false")
       << ",\"num_vars\":" << c.num_vars
       << ",\"num_ancillas\":" << c.num_ancillas
       << ",\"declared_gap\":" << json_number(c.declared_gap)
       << ",\"observed_gap\":" << json_number(c.observed_gap)
       << ",\"worst_valid_ground\":" << json_number(c.worst_valid_ground)
       << ",\"max_min_penalty\":" << json_number(c.max_min_penalty)
       << ",\"max_abs_coefficient\":" << json_number(c.max_abs_coefficient)
       << ",\"method\":\"" << json_escape(c.method) << "\""
       << ",\"error\":\"" << json_escape(c.error) << "\"}";
  }
  os << "]}";
  return os.str();
}

}  // namespace nck
