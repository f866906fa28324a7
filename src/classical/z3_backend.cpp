#include "classical/z3_backend.hpp"

#if NCK_HAVE_Z3

#include <z3++.h>

#include <cstdio>

#include <stdexcept>

namespace nck {
namespace {

// Weighted TRUE count of a constraint's collection as a Z3 integer term.
z3::expr count_expr(z3::context& ctx, const Constraint& c,
                    const std::vector<z3::expr>& vars) {
  z3::expr count = ctx.int_val(0);
  for (VarId v : c.collection()) {
    count = count + z3::ite(vars[v], ctx.int_val(1), ctx.int_val(0));
  }
  return count;
}

// Membership of `count` in the selection set as a disjunction.
z3::expr selection_expr(z3::context& ctx, const Constraint& c,
                        const z3::expr& count) {
  z3::expr_vector options(ctx);
  for (unsigned k : c.selection()) {
    options.push_back(count == ctx.int_val(static_cast<int>(k)));
  }
  return z3::mk_or(options);
}

}  // namespace

ClassicalSolution solve_with_z3(const Env& env) {
  z3::context ctx;
  std::vector<z3::expr> vars;
  vars.reserve(env.num_vars());
  for (std::size_t i = 0; i < env.num_vars(); ++i) {
    vars.push_back(ctx.bool_const(("v" + std::to_string(i)).c_str()));
  }

  ClassicalSolution solution;
  solution.soft_total = env.num_soft();

  const bool use_optimize = env.num_soft() > 0;
  z3::optimize opt(ctx);
  z3::solver solver(ctx);

  for (const auto& c : env.constraints()) {
    const z3::expr member = selection_expr(ctx, c, count_expr(ctx, c, vars));
    if (c.soft()) {
      if (use_optimize) opt.add_soft(member, 1);
    } else if (use_optimize) {
      opt.add(member);
    } else {
      solver.add(member);
    }
  }

  z3::check_result result =
      use_optimize ? opt.check() : solver.check();
  if (result == z3::unknown) {
    throw std::runtime_error("solve_with_z3: solver returned unknown");
  }
  if (result == z3::unsat) return solution;  // infeasible

  z3::model model = use_optimize ? opt.get_model() : solver.get_model();
  solution.feasible = true;
  solution.assignment.resize(env.num_vars());
  for (std::size_t i = 0; i < env.num_vars(); ++i) {
    solution.assignment[i] = model.eval(vars[i], true).is_true();
  }
  solution.soft_satisfied = env.evaluate(solution.assignment).soft_satisfied;
  return solution;
}

QuboSolveResult solve_qubo_with_z3(const Qubo& q, unsigned timeout_ms) {
  z3::context ctx;
  if (timeout_ms > 0) ctx.set("timeout", static_cast<int>(timeout_ms));
  z3::optimize opt(ctx);

  std::vector<z3::expr> bits;
  bits.reserve(q.num_variables());
  for (std::size_t i = 0; i < q.num_variables(); ++i) {
    bits.push_back(ctx.bool_const(("x" + std::to_string(i)).c_str()));
  }

  // The objective must stay *linear* for Z3's optimizer to guarantee a true
  // optimum: monomials become ite-selected constants, never real products.
  auto coeff = [&ctx](double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return ctx.real_val(buf);
  };
  const z3::expr zero = ctx.real_val(0);
  z3::expr objective = coeff(q.offset());
  for (std::size_t i = 0; i < q.num_variables(); ++i) {
    const double a = q.linear(static_cast<Qubo::Var>(i));
    if (a != 0.0) {
      objective = objective + z3::ite(bits[i], coeff(a), zero);
    }
  }
  for (const auto& [i, j, c] : q.quadratic_terms()) {
    objective = objective + z3::ite(bits[i] && bits[j], coeff(c), zero);
  }

  opt.minimize(objective);
  if (opt.check() != z3::sat) {
    throw std::runtime_error("solve_qubo_with_z3: optimization failed");
  }
  z3::model model = opt.get_model();
  QuboSolveResult result;
  result.assignment.resize(q.num_variables());
  for (std::size_t i = 0; i < q.num_variables(); ++i) {
    result.assignment[i] = model.eval(bits[i], true).is_true();
  }
  result.energy = q.energy(result.assignment);
  return result;
}

}  // namespace nck

#endif  // NCK_HAVE_Z3
