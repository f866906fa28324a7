#include "synth/lp_synth.hpp"

#include <cstdint>
#include <cstdio>

#include "synth/simplex.hpp"

namespace nck {
namespace {

// The minimum energy every violating assignment must pay.
constexpr double kGap = 1.0;

// Coefficient layout for v = d + a QUBO variables:
//   index 0: constant offset
//   1 .. v: linear coefficients
//   v+1 ..: quadratic coefficients (i < j in row-major pair order)
struct CoeffLayout {
  std::size_t v;
  std::size_t count;

  explicit CoeffLayout(std::size_t v_) : v(v_), count(1 + v_ + v_ * (v_ - 1) / 2) {}

  std::size_t offset() const { return 0; }
  std::size_t linear(std::size_t i) const { return 1 + i; }
  std::size_t quadratic(std::size_t i, std::size_t j) const {
    if (i > j) std::swap(i, j);
    // Pairs ordered (0,1),(0,2),...,(0,v-1),(1,2),...
    return 1 + v + i * v - i * (i + 1) / 2 + (j - i - 1);
  }
};

// Row of the LP for evaluating f at assignment `bits` over v variables:
// coefficient k gets weight 1 if its monomial is active.
std::vector<Rational> eval_row(const CoeffLayout& lay, std::uint32_t bits) {
  std::vector<Rational> row(lay.count, Rational(0));
  row[lay.offset()] = Rational(1);
  for (std::size_t i = 0; i < lay.v; ++i) {
    if (!((bits >> i) & 1u)) continue;
    row[lay.linear(i)] = Rational(1);
    for (std::size_t j = i + 1; j < lay.v; ++j) {
      if ((bits >> j) & 1u) row[lay.quadratic(i, j)] = Rational(1);
    }
  }
  return row;
}

// Free coefficients are split as coeff = pos - neg with pos, neg >= 0; the
// LP variable vector is [pos_0..pos_{c-1}, neg_0..neg_{c-1}].
std::vector<Rational> split_row(const std::vector<Rational>& row) {
  std::vector<Rational> out;
  out.reserve(row.size() * 2);
  for (const auto& r : row) out.push_back(r);
  for (const auto& r : row) out.push_back(-r);
  return out;
}

struct SearchContext {
  const ConstraintPattern& pattern;
  CoeffLayout lay;
  std::size_t num_ancillas;
  Rational gap;
  // Constant part of the LP (inequalities shared by all branches).
  LinearProgram base;
  std::vector<std::uint32_t> valid;  // satisfying assignments over d vars

  SearchContext(const ConstraintPattern& p, std::size_t a, Rational g)
      : pattern(p), lay(p.num_vars() + a), num_ancillas(a), gap(g) {
    base.num_vars = lay.count * 2;
    const std::size_t d = p.num_vars();
    const std::uint32_t num_z = 1u << a;
    for (std::uint32_t x = 0; x < (1u << d); ++x) {
      const bool ok = p.satisfied(x);
      if (ok) valid.push_back(x);
      for (std::uint32_t z = 0; z < num_z; ++z) {
        const std::uint32_t bits = x | (z << d);
        base.add_ge(split_row(eval_row(lay, bits)), ok ? Rational(0) : gap);
      }
    }
  }

  // Solves the LP with ground-state equalities for valid rows [0, chosen.size())
  // fixed to the given ancilla values. `minimize_l1` adds the L1 objective.
  // The per-node equalities are pushed onto the persistent base program and
  // rewound after the solve (mark/rewind scoping) — the DFS never copies the
  // 2^(d+a)-row inequality block.
  LpResult solve(const std::vector<std::uint32_t>& chosen, bool minimize_l1) {
    const LinearProgram::Mark scope = base.mark();
    const std::size_t d = pattern.num_vars();
    for (std::size_t i = 0; i < chosen.size(); ++i) {
      const std::uint32_t bits = valid[i] | (chosen[i] << d);
      base.add_eq(split_row(eval_row(lay, bits)), Rational(0));
    }
    if (minimize_l1) {
      base.c.assign(base.num_vars, Rational(1));
    }
    LpResult result = solve_lp(base);
    base.rewind(scope);
    base.c.clear();
    return result;
  }

  // Depth-first search over per-valid-row ancilla ground choices.
  bool search(std::vector<std::uint32_t>& chosen) {
    if (chosen.size() == valid.size()) return true;
    const std::uint32_t num_z = 1u << num_ancillas;
    for (std::uint32_t z = 0; z < num_z; ++z) {
      chosen.push_back(z);
      if (solve(chosen, /*minimize_l1=*/false).status == LpStatus::kOptimal &&
          search(chosen)) {
        return true;
      }
      chosen.pop_back();
    }
    return false;
  }
};

}  // namespace

std::optional<SynthesizedQubo> LpSynthesizer::synthesize(
    const ConstraintPattern& pattern) {
  const std::size_t d = pattern.num_vars();
  const Rational gap(static_cast<long long>(kGap));

  for (std::size_t a = 0; a <= max_ancillas_; ++a) {
    if (d + a > kLpMaxVars) break;
    try {
      SearchContext ctx(pattern, a, gap);
      if (ctx.valid.empty()) {
        // Unsatisfiable constraint: cannot be expressed as a gap-respecting
        // QUBO with a zero ground state. Callers reject these earlier.
        return std::nullopt;
      }
      std::vector<std::uint32_t> chosen;
      if (!ctx.search(chosen)) continue;  // needs more ancillas
      LpResult final = ctx.solve(chosen, /*minimize_l1=*/true);
      if (final.status != LpStatus::kOptimal) {
        // Feasible during search but objective failed -> internal issue.
        std::fprintf(stderr,
                     "[nck WARN] lp_synth: L1 phase failed for %s; retrying "
                     "feasibility only\n",
                     pattern.key().c_str());
        final = ctx.solve(chosen, /*minimize_l1=*/false);
        if (final.status != LpStatus::kOptimal) continue;
      }

      SynthesizedQubo out;
      out.num_vars = d;
      out.num_ancillas = a;
      out.gap = kGap;
      out.method = "lp";
      const CoeffLayout& lay = ctx.lay;
      auto coeff = [&](std::size_t k) {
        return (final.x[k] - final.x[lay.count + k]).to_double();
      };
      out.qubo = dense_qubo(
          d + a, coeff(lay.offset()),
          [&](std::size_t i) { return coeff(lay.linear(i)); },
          [&](std::size_t i, std::size_t j) {
            return coeff(lay.quadratic(i, j));
          });
      return out;
    } catch (const RationalOverflow&) {
      std::fprintf(stderr,
                   "[nck WARN] lp_synth: rational overflow for %s with %zu "
                   "ancillas\n",
                   pattern.key().c_str(), a);
      return std::nullopt;
    }
  }
  return std::nullopt;
}

}  // namespace nck
