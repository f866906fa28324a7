// Command-line NchooseK runner: reads a program in the text format of
// core/parse.hpp from a file (or stdin with "-") and executes it on the
// chosen backend, or statically analyzes it without running anything.
//
//   nck_cli [solve] [--backend=classical|annealer|circuit] [--seed=N]
//           [--reads=N] [--sweeps=N] [--replicas=N] [--shots=N]
//           [--trace[=table|json]]
//           [--decompose] [--subproblem-vars=N] [--max-rounds=N]
//           [--faults=SPEC] [--fault-seed=N] [--max-retries=N]
//           [--deadline-ms=X] [--fallback=b1,b2,...] <program-file|->
//
// `--decompose` turns on the qbsolv-style large-neighborhood loop
// (DESIGN.md §3i): programs whose post-presolve size exceeds the
// per-sub-QUBO cap (`--subproblem-vars`, default 65) are partitioned,
// clamped to the incumbent, and iterated for at most `--max-rounds`
// rounds. The size flags imply `--decompose`.
//   nck_cli solve --batch [--backend=...|portfolio] [--threads=N]
//           <program-file>...
//   nck_cli lint [--json] [--target=program|annealer|circuit|all]
//           <program-file|->
//   nck_cli certify [--json] [--hard-margin=X] <program-file|->
//   nck_cli simplify [--json] [--emit=FILE] <program-file|->
//
// `lint` runs the nck::analysis passes; `certify` additionally proves,
// by exhaustive enumeration, that every constraint's synthesized QUBO
// has exactly the constraint's satisfying assignments as its ground
// states, and that every certified hard penalty gap dominates the total
// soft energy (NCK-V000/V001/V002). --json emits the machine-readable
// report; for certify it wraps the structured certificate artifact and
// the diagnostics in one document.
//
// `simplify` runs the abstract-interpretation presolve (dataflow fixpoint
// plus the analysis/reduce catalog) and prints the reduction steps, the
// equivalence-certification verdict, and the reduced program in the same
// text format this tool parses. `--emit=FILE` additionally writes the
// reduced program to FILE (so a downstream `lint`/`certify`/`solve` can
// consume it); `--json` emits a machine-readable document that includes
// the original and reduced ground truths on enumerable instances, letting
// CI assert `original.best == reduced.best + soft_always_satisfied`.
//
// The subcommands share one exit-code contract:
//   0  no error-severity diagnostic (simplify: a sound, possibly identity,
//      reduction),
//   1  error diagnostics / the program is provably broken (simplify:
//      presolve proved the hard constraints unsatisfiable, or the reduction
//      failed its equivalence certification),
//   2  the analysis itself could not run: unreadable/unparsable program,
//      bad usage, or constraint QUBO synthesis failure (NCK-Q000 /
//      a "synthesis failed" certificate).
//
// The resilience flags exercise the fault-tolerant solve layer:
// `--faults` takes the spec grammar of resilience/fault.hpp (e.g.
// "dead:2@1" kills two embedded qubits on the first attempt),
// `--max-retries` allows that many extra attempts per backend with
// modeled exponential backoff, `--deadline-ms` sets the modeled session
// budget (sample counts are halved under pressure), and `--fallback`
// names the backends tried after the primary one gives up. When any
// attempt failed or recovered, the per-attempt resilience log is printed
// after the result.
//
// `--trace` prints the per-stage observability trace of the solve
// (compile/synth/embed/anneal or transpile/sample spans, synthesis cache
// counters, chain-break metrics) as aligned tables; `--trace=json` emits
// the nck-trace-v1 JSON document instead.
//
// `--batch` solves every listed program concurrently on a SolverPool
// (`--threads=N`, default: hardware concurrency) sharing one plan cache;
// results are printed in input order and are independent of the thread
// count. `--backend=portfolio` races classical, annealer, and circuit per
// program and keeps the best-classified result. In batch mode `--trace`
// prints the stitched batch trace (one `taskN` root per program).
//
// Example program:
//   # minimum vertex cover of a triangle
//   nck({a, b}, {1, 2}) /\ nck({a, c}, {1, 2}) /\ nck({b, c}, {1, 2})
//   nck({a}, {0}, soft) nck({b}, {0}, soft) nck({c}, {0}, soft)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/certify.hpp"
#include "analysis/reduce/reduce.hpp"
#include "circuit/coupling.hpp"
#include "core/parse.hpp"
#include "obs/json.hpp"
#include "runtime/pool.hpp"
#include "runtime/solver.hpp"
#include "serve/stdio.hpp"
#include "util/json_escape.hpp"

using namespace nck;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: nck_cli [solve] [--backend=classical|annealer|circuit] "
               "[--seed=N] [--reads=N] [--sweeps=N] [--replicas=N] "
               "[--shots=N] [--trace[=table|json]] "
               "[--decompose] [--subproblem-vars=N] [--max-rounds=N] "
               "[--faults=SPEC] [--fault-seed=N] [--max-retries=N] "
               "[--deadline-ms=X] [--fallback=b1,b2,...] <program-file|->\n"
               "       nck_cli solve --batch [--backend=...|portfolio] "
               "[--threads=N] <program-file>...\n"
               "       nck_cli lint [--json] "
               "[--target=program|annealer|circuit|all] <program-file|->\n"
               "       nck_cli certify [--json] [--hard-margin=X] "
               "<program-file|->\n"
               "       nck_cli simplify [--json] [--emit=FILE] "
               "<program-file|->\n"
               "       nck_cli serve [--workers=N] [--queue-depth=N] "
               "[--seed=N] [--default-deadline-ms=X] [--stuck-after-ms=X]\n");
  return 2;
}

bool read_program(const char* path, Env& env) {
  try {
    if (std::strcmp(path, "-") == 0) {
      env = parse_program(std::cin);
    } else {
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "nck_cli: cannot open '%s'\n", path);
        return false;
      }
      env = parse_program(in);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nck_cli: %s\n", e.what());
    return false;
  }
  return true;
}

int run_lint(int argc, char** argv) {
  bool json = false;
  std::string target = "all";
  const char* path = nullptr;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--target=", 0) == 0) {
      target = arg.substr(9);
      if (target != "program" && target != "annealer" && target != "circuit" &&
          target != "all") {
        return usage();
      }
    } else if (!path) {
      path = argv[i];
    } else {
      return usage();
    }
  }
  if (!path) return usage();

  Env env;
  if (!read_program(path, env)) return 2;

  Analyzer analyzer;
  AnalysisReport report;
  if (target == "program") {
    report = analyzer.analyze(env);
  } else {
    AnalysisTarget hw;
    if (target == "annealer" || target == "all") {
      hw.annealer = &shared_advantage_4_1();
    }
    if (target == "circuit" || target == "all") {
      hw.coupling = &shared_brooklyn_coupling();
    }
    SynthEngine engine;
    report = analyzer.analyze(env, engine, hw);
  }

  if (json) {
    std::cout << report.to_json() << "\n";
  } else {
    report.print(std::cout);
  }
  if (report.has_code(DiagCode::kSynthesisFailed)) return 2;
  return report.has_errors() ? 1 : 0;
}

int run_certify(int argc, char** argv) {
  bool json = false;
  CertifyOptions options;
  const char* path = nullptr;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--hard-margin=", 0) == 0) {
      try {
        options.hard_margin = std::stod(arg.substr(14));
      } catch (const std::exception&) {
        return usage();
      }
    } else if (!path) {
      path = argv[i];
    } else {
      return usage();
    }
  }
  if (!path) return usage();

  Env env;
  if (!read_program(path, env)) return 2;

  // Program-level lint first (a provably broken program is not worth
  // enumerating), with the heuristic NCK-P007 suppressed in favor of the
  // sound NCK-V001/V002 dominance check below.
  SynthEngine engine;
  Analyzer analyzer;
  analyzer.options().program.scale_separation = false;
  analyzer.options().program.synth_var_budget = engine.general_var_budget();
  analyzer.options().program.synth_builtin = engine.builtin_enabled();
  AnalysisReport report = analyzer.analyze(env);

  ProgramCertificate cert;
  bool internal_failure = false;
  if (!report.has_errors()) {
    cert = certify_program(env, engine, options);
    report_certificate(env, cert, options, report);
    for (const ConstraintCertificate& c : cert.constraints) {
      internal_failure = internal_failure ||
                         c.error.rfind("synthesis failed", 0) == 0;
    }
  }

  if (json) {
    std::cout << "{\"certificate\":" << cert.to_json()
              << ",\"report\":" << report.to_json() << "}\n";
  } else {
    std::printf("certificate: %s (%zu constraint(s), max_soft_energy=%g, "
                "hard_scale=%g)\n",
                cert.ok ? "ok" : "FAILED", cert.constraints.size(),
                cert.max_soft_energy, cert.hard_scale);
    for (const ConstraintCertificate& c : cert.constraints) {
      std::printf("  #%zu %-4s %-7s d=%zu a=%zu gap=%g observed=%g via %s%s%s\n",
                  c.constraint, c.soft ? "soft" : "hard",
                  c.ok ? "proved" : "FAILED", c.num_vars, c.num_ancillas,
                  c.declared_gap, c.observed_gap, c.method.c_str(),
                  c.error.empty() ? "" : ": ", c.error.c_str());
    }
    report.print(std::cout);
  }
  if (internal_failure) return 2;
  return report.has_errors() ? 1 : 0;
}

int run_simplify(int argc, char** argv) {
  bool json = false;
  const char* emit_path = nullptr;
  const char* path = nullptr;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg.rfind("--emit=", 0) == 0) {
      emit_path = argv[i] + 7;
      if (*emit_path == '\0') return usage();
    } else if (!path) {
      path = argv[i];
    } else {
      return usage();
    }
  }
  if (!path) return usage();

  Env env;
  if (!read_program(path, env)) return 2;

  const ReduceOptions options;
  const ReduceResult result = reduce_program(env, options);
  const ReductionVerdict verdict = verify_reduction(env, result);
  PresolveSummary summary = summarize_reduction(env, result);
  summary.verified = verdict.checked && verdict.ok;
  summary.rejected = verdict.checked && !verdict.ok;

  // The ground truths back the CI equivalence gate: on enumerable
  // instances, original.best must equal reduced.best plus the constant
  // soft_always_satisfied tallied by decided-soft removal.
  const bool truth_checked =
      !result.proved_unsat && !summary.rejected &&
      env.num_vars() <= kVerifyMaxVars &&
      result.reduced.num_vars() <= kVerifyMaxVars;
  GroundTruth original_truth, reduced_truth;
  if (truth_checked) {
    original_truth = ground_truth(env);
    reduced_truth = ground_truth(result.reduced);
  }

  const std::string reduced_text =
      result.proved_unsat ? std::string() : result.reduced.to_string();
  if (emit_path && !result.proved_unsat && !summary.rejected) {
    std::ofstream out(emit_path);
    if (!out) {
      std::fprintf(stderr, "nck_cli: cannot write '%s'\n", emit_path);
      return 2;
    }
    out << reduced_text;
    if (!reduced_text.empty() && reduced_text.back() != '\n') out << "\n";
  }

  if (json) {
    std::ostringstream os;
    os << "{\"original\":{\"vars\":" << env.num_vars()
       << ",\"hard\":" << env.num_hard() << ",\"soft\":" << env.num_soft()
       << "},\"reduced\":{\"vars\":" << result.reduced.num_vars()
       << ",\"hard\":" << result.reduced.num_hard()
       << ",\"soft\":" << result.reduced.num_soft()
       << "},\"changed\":" << (result.changed() ? "true" : "false")
       << ",\"proved_unsat\":" << (result.proved_unsat ? "true" : "false")
       << ",\"needed_pairs\":" << (result.needed_pairs ? "true" : "false")
       << ",\"components\":" << result.components << ",\"forced\":[";
    bool first = true;
    for (std::size_t v = 0; v < result.trace.forced.size(); ++v) {
      if (result.trace.forced[v] == ForcedValue::kUnknown) continue;
      if (!first) os << ",";
      first = false;
      os << "{\"var\":\"" << json_escape(env.var_name(static_cast<VarId>(v)))
         << "\",\"value\":"
         << (result.trace.forced[v] == ForcedValue::kTrue ? "true" : "false")
         << "}";
    }
    os << "],\"steps\":[";
    for (std::size_t i = 0; i < result.steps.size(); ++i) {
      const ReductionStep& s = result.steps[i];
      if (i) os << ",";
      os << "{\"rule\":\"" << reduction_rule_name(s.rule)
         << "\",\"index\":" << s.index << ",\"other\":" << s.other
         << ",\"detail\":\"" << json_escape(s.detail) << "\"}";
    }
    os << "],\"soft_always_satisfied\":" << result.trace.soft_always_satisfied
       << ",\"soft_never_satisfied\":" << result.trace.soft_never_satisfied
       << ",\"verification\":{\"checked\":"
       << (verdict.checked ? "true" : "false")
       << ",\"ok\":" << (verdict.ok ? "true" : "false") << ",\"detail\":\""
       << json_escape(verdict.detail) << "\"}"
       << ",\"truth\":{\"checked\":" << (truth_checked ? "true" : "false");
    if (truth_checked) {
      os << ",\"original\":{\"feasible\":"
         << (original_truth.feasible ? "true" : "false")
         << ",\"best_soft_satisfied\":" << original_truth.best_soft_satisfied
         << "},\"reduced\":{\"feasible\":"
         << (reduced_truth.feasible ? "true" : "false")
         << ",\"best_soft_satisfied\":" << reduced_truth.best_soft_satisfied
         << "}";
    }
    os << "},\"reduced_program\":\"" << json_escape(reduced_text) << "\"}";
    std::cout << os.str() << "\n";
  } else {
    std::printf("presolve: %zu -> %zu variable(s), %zu -> %zu constraint(s)"
                "%s%s\n",
                summary.original_vars, summary.reduced_vars,
                summary.original_constraints, summary.reduced_constraints,
                result.needed_pairs ? ", via pair mining" : "",
                result.proved_unsat ? ", UNSATISFIABLE" : "");
    for (const ReductionStep& s : result.steps) {
      const std::string other = s.other == s.index
                                    ? std::string()
                                    : " (by #" + std::to_string(s.other) + ")";
      std::printf("  %-20s #%zu%s %s\n", reduction_rule_name(s.rule), s.index,
                  other.c_str(), s.detail.c_str());
    }
    if (result.components >= 2) {
      std::printf("  reduced program splits into %zu independent "
                  "component(s)\n", result.components);
    }
    if (result.trace.soft_always_satisfied ||
        result.trace.soft_never_satisfied) {
      std::printf("  soft offsets: +%zu always satisfied, %zu never "
                  "satisfiable\n", result.trace.soft_always_satisfied,
                  result.trace.soft_never_satisfied);
    }
    if (!verdict.checked) {
      std::printf("verification: skipped (program too large to enumerate; "
                  "per-rule invariants only)\n");
    } else if (verdict.ok) {
      std::printf("verification: equivalence proved by exhaustive "
                  "enumeration\n");
    } else {
      std::printf("verification: REJECTED: %s\n", verdict.detail.c_str());
    }
    if (truth_checked) {
      std::printf("ground truth: original %s best=%zu, reduced %s best=%zu "
                  "(+%zu always-satisfied)\n",
                  original_truth.feasible ? "feasible" : "infeasible",
                  original_truth.best_soft_satisfied,
                  reduced_truth.feasible ? "feasible" : "infeasible",
                  reduced_truth.best_soft_satisfied,
                  result.trace.soft_always_satisfied);
    }
    if (!result.proved_unsat) {
      std::printf("reduced program:\n%s%s", reduced_text.c_str(),
                  (!reduced_text.empty() && reduced_text.back() != '\n')
                      ? "\n"
                      : "");
    }
  }
  return (result.proved_unsat || summary.rejected) ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "lint") == 0) {
    return run_lint(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "certify") == 0) {
    return run_certify(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "simplify") == 0) {
    return run_simplify(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
    // The daemon mode (identical to the standalone nck_serve binary):
    // line-delimited JSON requests on stdin, responses on stdout.
    return serve::run_serve_cli(argc, argv, 2);
  }

  BackendKind backend = BackendKind::kClassical;
  std::uint64_t seed = 1234;
  std::size_t reads = 100, shots = 4000;
  std::size_t sweeps = 0, replicas = 0;  // 0 = sampler defaults
  enum class TraceMode { kOff, kTable, kJson };
  TraceMode trace_mode = TraceMode::kOff;
  ResilienceOptions resilience;
  decompose::DecomposeOptions decompose;
  bool batch = false;
  bool portfolio = false;
  std::size_t threads = 0;  // 0 = hardware concurrency
  std::vector<const char*> paths;

  // "solve" is an optional subcommand name (symmetry with "lint").
  const int first_arg = argc >= 2 && std::strcmp(argv[1], "solve") == 0 ? 2 : 1;
  for (int i = first_arg; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--backend=", 0) == 0) {
      if (arg.substr(10) == "portfolio") {
        portfolio = true;
      } else if (!parse_backend_kind(arg.substr(10), &backend)) {
        return usage();
      }
    } else if (arg == "--batch") {
      batch = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::stoull(arg.substr(10));
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::stoull(arg.substr(7));
    } else if (arg.rfind("--reads=", 0) == 0) {
      reads = std::stoull(arg.substr(8));
    } else if (arg.rfind("--sweeps=", 0) == 0) {
      sweeps = std::stoull(arg.substr(9));
    } else if (arg.rfind("--replicas=", 0) == 0) {
      replicas = std::stoull(arg.substr(11));
    } else if (arg.rfind("--shots=", 0) == 0) {
      shots = std::stoull(arg.substr(8));
    } else if (arg == "--decompose") {
      decompose.enabled = true;
    } else if (arg.rfind("--subproblem-vars=", 0) == 0) {
      decompose.enabled = true;
      decompose.subproblem_vars = std::stoull(arg.substr(18));
    } else if (arg.rfind("--max-rounds=", 0) == 0) {
      decompose.enabled = true;
      decompose.max_rounds = std::stoull(arg.substr(13));
    } else if (arg == "--trace" || arg == "--trace=table") {
      trace_mode = TraceMode::kTable;
    } else if (arg == "--trace=json") {
      trace_mode = TraceMode::kJson;
    } else if (arg.rfind("--faults=", 0) == 0) {
      try {
        resilience.faults = FaultPlan::parse(arg.substr(9));
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "nck_cli: %s\n", e.what());
        return usage();
      }
    } else if (arg.rfind("--fault-seed=", 0) == 0) {
      resilience.fault_seed = std::stoull(arg.substr(13));
    } else if (arg.rfind("--max-retries=", 0) == 0) {
      resilience.retry.max_retries = std::stoull(arg.substr(14));
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      resilience.retry.deadline_ms = std::stod(arg.substr(14));
    } else if (arg.rfind("--fallback=", 0) == 0) {
      // An explicitly empty chain flows through as kBadOptions (the
      // solver owns option validation, not the CLI).
      resilience.fallback.emplace();
      const std::string chain = arg.substr(11);
      std::size_t start = 0;
      while (start < chain.size()) {
        const std::size_t comma = chain.find(',', start);
        const std::size_t end = comma == std::string::npos ? chain.size()
                                                           : comma;
        BackendKind rung;
        if (!parse_backend_kind(chain.substr(start, end - start), &rung)) {
          return usage();
        }
        resilience.fallback->push_back(rung);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (portfolio) batch = true;  // a portfolio race always runs on the pool
  if (paths.empty()) return usage();
  if (!batch && paths.size() > 1) return usage();

  if (batch) {
    std::vector<Env> envs(paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
      if (!read_program(paths[i], envs[i])) return 1;
    }

    PoolOptions options;
    options.num_threads = threads;
    options.seed = seed;
    options.annealer.sampler.num_reads = reads;
    if (sweeps > 0) options.annealer.sampler.num_sweeps = sweeps;
    if (replicas > 0) options.annealer.sampler.num_replicas = replicas;
    options.circuit.qaoa.shots = shots;
    if (resilience.active()) options.resilience = resilience;
    if (decompose.enabled) {
      SolveOptions solve_options;
      solve_options.decompose = decompose;
      options.solve = solve_options;
    }
    SolverPool pool(options);
    std::printf("batch: %zu program(s), backend=%s\n", envs.size(),
                portfolio ? "portfolio" : backend_name(backend));
    const BatchReport report = portfolio ? pool.solve_portfolio(envs)
                                         : pool.solve_all(envs, backend);

    for (std::size_t i = 0; i < envs.size(); ++i) {
      const SolveReport& r = report.reports[i];
      if (!r.ran) {
        std::printf("task%zu %-24s did not run [%s]: %s\n", i, paths[i],
                    failure_kind_name(r.failure), r.failure_message().c_str());
        continue;
      }
      std::printf("task%zu %-24s %-9s %-10s", i, paths[i],
                  backend_name(r.backend), quality_name(r.best_quality));
      if (r.num_samples > 1) {
        std::printf("  %zu/%zu samples optimal", r.counts.optimal,
                    r.counts.total());
      }
      std::printf("\n");
      if (portfolio) {
        for (const SolveReport& c : report.candidates[i]) {
          std::printf("    %-9s %s\n", backend_name(c.backend),
                      c.ran ? quality_name(c.best_quality)
                            : failure_kind_name(c.failure));
        }
      }
    }
    std::printf("plan cache: %zu hits, %zu misses, %zu evictions, "
                "%zu bytes in %zu entries\n",
                report.cache.hits, report.cache.misses,
                report.cache.evictions, report.cache.bytes,
                report.cache.entries);

    if (trace_mode == TraceMode::kTable) {
      std::printf("\ntrace:\n");
      obs::print_trace(std::cout, report.trace);
    } else if (trace_mode == TraceMode::kJson) {
      std::cout << obs::trace_to_json(report.trace) << "\n";
    }
    return report.solved() == envs.size() ? 0 : 1;
  }

  Env env;
  if (!read_program(paths.front(), env)) return 1;

  std::printf("program: %zu variables, %zu hard + %zu soft constraints "
              "(%zu non-symmetric classes)\n",
              env.num_vars(), env.num_hard(), env.num_soft(),
              env.num_nonsymmetric());

  Solver solver(seed);
  solver.annealer_options().sampler.num_reads = reads;
  if (sweeps > 0) solver.annealer_options().sampler.num_sweeps = sweeps;
  if (replicas > 0) solver.annealer_options().sampler.num_replicas = replicas;
  solver.circuit_options().qaoa.shots = shots;
  solver.resilience_options() = resilience;
  solver.solve_options().decompose = decompose;
  const SolveReport report = solver.solve(env, backend);
  if (!report.analysis.empty()) {
    std::fprintf(stderr, "static analysis:\n");
    report.analysis.print(std::cerr);
  }
  const auto print_trace = [&] {
    if (trace_mode == TraceMode::kTable) {
      std::printf("\ntrace:\n");
      obs::print_trace(std::cout, report.trace);
    } else if (trace_mode == TraceMode::kJson) {
      std::cout << obs::trace_to_json(report.trace) << "\n";
    }
  };

  const auto print_resilience = [&] {
    if (!report.resilience.empty()) report.resilience.print(std::cout);
  };

  if (!report.ran) {
    std::printf("%s backend did not run [%s]: %s\n",
                backend_name(report.backend),
                failure_kind_name(report.failure),
                report.failure_message().c_str());
    print_resilience();
    print_trace();
    return 1;
  }

  std::printf("backend: %s\nresult:  %s\n", backend_name(report.backend),
              quality_name(report.best_quality));
  for (std::size_t v = 0; v < env.num_vars(); ++v) {
    std::printf("  %s = %d\n", env.var_name(static_cast<VarId>(v)).c_str(),
                static_cast<int>(report.best_assignment[v]));
  }
  if (report.num_samples > 1) {
    std::printf("samples: %zu optimal, %zu suboptimal, %zu incorrect of %zu\n",
                report.counts.optimal, report.counts.suboptimal,
                report.counts.incorrect, report.counts.total());
  }
  if (report.qubits_used) {
    std::printf("qubits used: %zu\n", report.qubits_used);
  }
  if (report.decompose) {
    const auto& d = *report.decompose;
    std::printf("decompose: %zu subproblem(s) over %zu variable(s), "
                "%zu round(s)%s%s\n",
                d.subproblems, d.num_vars, d.rounds,
                d.converged ? ", converged" : "",
                d.truth_exact ? "" : " (truth referenced to incumbent)");
  }
  print_resilience();
  print_trace();
  return report.best_quality == Quality::kIncorrect ? 1 : 0;
}
