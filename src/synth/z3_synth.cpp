#include "synth/z3_synth.hpp"

#if NCK_HAVE_Z3

#include <z3++.h>

#include <cstdint>
#include <string>
#include <vector>

namespace nck {
namespace {

// Coefficient magnitude bounds: the first attempt per ancilla count, and
// the last before giving up (the bound doubles between attempts).
constexpr long long kInitialBound = 4;
constexpr long long kMaxBound = 64;

}  // namespace

// The incremental SMT session: context, solver, and coefficient-variable
// pools persist across synthesize() calls; per-attempt state (coefficient
// bounds, ground/gap assertions) lives in a push/pop scope. Z3 constants
// are context-level and unscoped — variables from larger past attempts
// are simply unconstrained inside later scopes, which is harmless.
struct Z3Synthesizer::Incremental {
  z3::context ctx;
  z3::solver solver;
  z3::expr offset;
  std::vector<z3::expr> lin;
  std::vector<std::vector<z3::expr>> quad;  // quad[i][j - i - 1], i < j

  Incremental() : solver(ctx), offset(ctx.int_const("c")) {}

  const z3::expr& linear(std::size_t i) {
    while (lin.size() <= i) {
      const std::string name = "a" + std::to_string(lin.size());
      lin.push_back(ctx.int_const(name.c_str()));
    }
    return lin[i];
  }

  const z3::expr& quadratic(std::size_t i, std::size_t j) {
    while (quad.size() <= i) quad.emplace_back();
    std::vector<z3::expr>& row = quad[i];
    while (row.size() < j - i) {
      const std::size_t jj = i + 1 + row.size();
      const std::string name =
          "b" + std::to_string(i) + "_" + std::to_string(jj);
      row.push_back(ctx.int_const(name.c_str()));
    }
    return row[j - i - 1];
  }

  // Symbolic energy f(bits) = offset + sum a_i + sum b_ij over the
  // monomials active in `bits`.
  z3::expr energy(std::uint32_t bits, std::size_t v) {
    z3::expr e = offset;
    for (std::size_t i = 0; i < v; ++i) {
      if (!((bits >> i) & 1u)) continue;
      e = e + linear(i);
      for (std::size_t j = i + 1; j < v; ++j) {
        if ((bits >> j) & 1u) e = e + quadratic(i, j);
      }
    }
    return e;
  }
};

Z3Synthesizer::Z3Synthesizer(std::size_t max_ancillas)
    : max_ancillas_(max_ancillas) {}

Z3Synthesizer::~Z3Synthesizer() = default;

bool Z3Synthesizer::release_session() noexcept {
  const bool held = inc_ != nullptr;
  inc_.reset();
  return held;
}

std::optional<SynthesizedQubo> Z3Synthesizer::synthesize(
    const ConstraintPattern& pattern) {
  const std::size_t d = pattern.num_vars();

  std::vector<std::uint32_t> valid = pattern.valid_assignments();
  if (valid.empty()) return std::nullopt;

  if (!inc_) inc_ = std::make_unique<Incremental>();
  Incremental& inc = *inc_;

  for (std::size_t a = 0; a <= max_ancillas_; ++a) {
    const std::size_t v = d + a;
    if (v > kZ3MaxVars) break;
    const std::uint32_t num_z = 1u << a;

    for (long long bound = kInitialBound; bound <= kMaxBound; bound *= 2) {
      inc.solver.push();

      auto bound_var = [&](const z3::expr& e) {
        inc.solver.add(
            e >= inc.ctx.int_val(static_cast<std::int64_t>(-bound)) &&
            e <= inc.ctx.int_val(static_cast<std::int64_t>(bound)));
      };
      bound_var(inc.offset);
      for (std::size_t i = 0; i < v; ++i) bound_var(inc.linear(i));
      for (std::size_t i = 0; i < v; ++i) {
        for (std::size_t j = i + 1; j < v; ++j) bound_var(inc.quadratic(i, j));
      }

      for (std::uint32_t x = 0; x < (1u << d); ++x) {
        const bool ok = pattern.satisfied(x);
        z3::expr_vector ground_options(inc.ctx);
        for (std::uint32_t z = 0; z < num_z; ++z) {
          const std::uint32_t bits = x | (z << d);
          z3::expr f = inc.energy(bits, v);
          if (ok) {
            inc.solver.add(f >= 0);
            ground_options.push_back(f == 0);
          } else {
            inc.solver.add(f >= 1);
          }
        }
        if (ok) inc.solver.add(z3::mk_or(ground_options));
      }

      if (inc.solver.check() != z3::sat) {
        inc.solver.pop();
        continue;
      }

      z3::model model = inc.solver.get_model();
      auto value = [&](const z3::expr& e) {
        return static_cast<double>(model.eval(e, true).get_numeral_int64());
      };
      SynthesizedQubo out;
      out.num_vars = d;
      out.num_ancillas = a;
      out.gap = 1.0;
      out.method = "z3";
      out.qubo = dense_qubo(
          v, value(inc.offset),
          [&](std::size_t i) { return value(inc.linear(i)); },
          [&](std::size_t i, std::size_t j) {
            return value(inc.quadratic(i, j));
          });
      inc.solver.pop();
      return out;
    }
  }
  return std::nullopt;
}

}  // namespace nck

#endif  // NCK_HAVE_Z3
