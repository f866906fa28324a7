#include "runtime/solver.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "anneal/topology.hpp"
#include "circuit/coupling.hpp"
#include "classical/adapter.hpp"
#include "runtime/pool.hpp"
#include "util/timer.hpp"

namespace nck {
namespace {

/// A decomposed solve gets exact ground truth component-wise when every
/// interaction component has at most this many variables; otherwise the
/// report's truth is referenced to the final incumbent (truth_exact ==
/// false). It also caps each sub-solve's own exact truth.
constexpr std::size_t kTruthComponentVars = 30;

void fail(SolveReport& report, FailureKind kind, std::string detail) {
  report.failure = kind;
  report.failure_detail = std::move(detail);
}

/// Folds one successful execute() into the report. single_answer backends
/// (classical witness, circuit lowest-energy sample) report their front
/// sample; sampling backends report the first optimal sample, else the
/// first suboptimal, else the first (annealer reads are ordered by
/// ascending logical energy).
///
/// With `deferred_truth` the report carries no exact ground truth: the best
/// sample is selected by direct Definition 6 comparison (fewest violated
/// hards, then most satisfied softs, earliest wins) and *becomes* the
/// truth reference, so the batch classifies against the solve's own best.
void fill_report(SolveReport& report, const backend::ExecutionResult& res,
                 bool deferred_truth) {
  report.ran = true;
  report.qubits_used = res.qubits_used;
  report.circuit_depth = res.circuit_depth;
  report.num_samples = res.samples.size();
  report.backend_seconds = res.device_seconds;
  std::size_t best_idx = 0;
  if (deferred_truth) {
    if (!res.single_answer) {
      for (std::size_t i = 1; i < res.evaluations.size(); ++i) {
        if (decompose::improves(res.evaluations[i],
                                res.evaluations[best_idx])) {
          best_idx = i;
        }
      }
    }
    const Evaluation& best_eval = res.evaluations[best_idx];
    report.truth = {best_eval.feasible(), best_eval.soft_satisfied};
    report.truth_exact = false;
    report.counts = classify_all(res.evaluations, report.truth);
    report.best_assignment = res.samples[best_idx];
    report.best_quality = classify(best_eval, report.truth);
    return;
  }
  report.counts = classify_all(res.evaluations, report.truth);
  Quality best = Quality::kIncorrect;
  if (res.single_answer) {
    best = classify(res.evaluations.front(), report.truth);
  } else {
    for (std::size_t i = 0; i < res.evaluations.size(); ++i) {
      const Quality q = classify(res.evaluations[i], report.truth);
      if (q == Quality::kOptimal) {
        best_idx = i;
        best = q;
        break;
      }
      if (q == Quality::kSuboptimal && best == Quality::kIncorrect) {
        best_idx = i;
        best = q;
      }
    }
  }
  report.best_assignment = res.samples[best_idx];
  report.best_quality = best;
}

/// Ground truth is deterministic in the program alone, so it lives in the
/// content-addressed cache next to the backend plans: a batch of repeated
/// (or renamed-isomorphic) programs certifies once.
struct TruthPlan final : backend::Plan {
  GroundTruth truth;
  std::size_t bytes() const noexcept override { return sizeof(TruthPlan); }
};

GroundTruth cached_truth(backend::PlanCache& cache, const Env& program,
                         obs::Trace& trace) {
  backend::Fingerprint key;
  key.mix(std::string("truth"));
  backend::mix_env(key, program);
  const backend::PlanPtr plan = cache.get_or_build(key, &trace, [&] {
    auto built = std::make_shared<TruthPlan>();
    built->truth = ground_truth(program);
    return built;
  });
  return static_cast<const TruthPlan&>(*plan).truth;
}

/// Certificates are deterministic in the program plus the certification
/// thresholds, so they share the content-addressed cache: a warm solve
/// recalls the artifact and re-derives the NCK-V* diagnostics by pure
/// arithmetic, enumerating zero assignments.
struct CertificatePlan final : backend::Plan {
  ProgramCertificate certificate;
  std::size_t bytes() const noexcept override {
    return sizeof(CertificatePlan) +
           certificate.constraints.size() * sizeof(ConstraintCertificate);
  }
};

backend::Fingerprint certificate_key(const Env& env,
                                     const CertifyOptions& options) {
  backend::Fingerprint key;
  key.mix(std::string("certificate"));
  key.mix(options.hard_margin);
  backend::mix_env(key, env);
  return key;
}

/// Presolve reductions are deterministic in the program plus the reduce
/// options, so the reduced program, its trace, and its equivalence verdict
/// live in the content-addressed cache: warm solves (and permuted-but-
/// identical programs, thanks to the canonical mix_env) skip the dataflow
/// fixpoint and the 2^n verification entirely.
struct PresolvePlan final : backend::Plan {
  ReduceResult result;
  ReductionVerdict verdict;
  std::size_t bytes() const noexcept override {
    return sizeof(PresolvePlan) +
           result.steps.size() * sizeof(ReductionStep) +
           result.trace.forced.size() + result.trace.kept.size() * sizeof(VarId);
  }
};

backend::Fingerprint presolve_key(const Env& env, const ReduceOptions& options) {
  backend::Fingerprint key;
  key.mix(std::string("presolve"));
  key.mix(options.dataflow.mine_pairs);
  key.mix(static_cast<std::uint64_t>(options.dataflow.max_propagation_cardinality));
  backend::mix_env(key, env);
  return key;
}

}  // namespace

std::string SolveReport::failure_message() const {
  if (failure == FailureKind::kNone) return "";
  if (!failure_detail.empty()) return failure_detail;
  return failure_kind_description(failure);
}

Solver::Solver(std::uint64_t seed)
    : seed_(seed),
      rng_(seed),
      plan_cache_(std::make_shared<backend::PlanCache>()) {
  if (const auto chaos = ResilienceOptions::chaos_from_env()) {
    resilience_ = *chaos;
  }
  registry_.add(std::make_unique<backend::ClassicalAdapter>());
  registry_.add(std::make_unique<backend::AnnealAdapter>(
      &anneal_options_, &shared_advantage_4_1()));
  registry_.add(std::make_unique<backend::CircuitAdapter>(
      &circuit_options_, &shared_brooklyn_coupling()));
  engine_.set_shared_cache(&plan_cache_->synth_cache());
}

void Solver::set_plan_cache(std::shared_ptr<backend::PlanCache> cache) {
  if (cache == nullptr) return;
  plan_cache_ = std::move(cache);
  engine_.set_shared_cache(&plan_cache_->synth_cache());
}

SolveReport Solver::solve(const Env& env, BackendKind backend) {
  SolveReport report;
  report.backend = backend;
  obs::Trace trace;
  solve_impl(env, backend, report, trace);
  report.trace = trace.snapshot();
  return report;
}

bool Solver::validate_options(const std::vector<BackendKind>& chain,
                              SolveReport& report) const {
  std::string why;
  const auto reject = [&](const std::string& detail) {
    fail(report, FailureKind::kBadOptions, "invalid options: " + detail);
    return false;
  };

  if (resilience_.fallback && resilience_.fallback->empty()) {
    return reject("fallback chain is engaged but empty");
  }
  if (!resilience_.retry.validate(&why)) return reject(why);
  if (std::isnan(solve_options_.wall_budget_ms)) {
    return reject("wall_budget_ms is NaN");
  }
  if (solve_options_.decompose.enabled &&
      solve_options_.decompose.subproblem_vars == 0) {
    return reject("decompose.subproblem_vars must be >= 1");
  }

  for (BackendKind bk : chain) {
    const backend::Backend* be = registry_.find(bk);
    if (be == nullptr) {
      return reject(std::string("no backend registered for ") +
                    backend_name(bk));
    }
    if (!be->validate(&why)) return reject(why);
  }
  return true;
}

/// The staged solve pipeline. Each stage reads and advances this shared
/// state; stages returning bool report "continue" (false means the report
/// is finalized — failed, or answered without dispatch). The ordinary
/// whole-program solve is the pipeline with dispatch_stage as its executor;
/// decompose_stage swaps in the qbsolv-style large-neighborhood loop, and
/// everything before and after (presolve, analysis, certification, truth,
/// lift) is shared between the two.
struct Solver::Stages {
  Solver& s;
  const Env& env;
  const BackendKind primary;
  SolveReport& report;
  obs::Trace& trace;

  // Wall-clock deadline (distinct from the modeled-session deadline in
  // RetryPolicy::deadline_ms; see SolveOptions::wall_budget_ms). Gated at
  // entry, between stages, and before every attempt.
  const Timer wall_clock;
  const double wall_budget;

  /// Primary backend then deduplicated fallback rungs (first wins).
  std::vector<BackendKind> chain;

  /// The program the pipeline operates on: `env`, or the cached reduced
  /// program once presolve changes it.
  const Env* work;
  backend::PlanPtr presolve_plan_ptr;  // owns the reduced Env `work` may alias
  const PresolvePlan* presolve_plan = nullptr;
  bool presolve_rejected = false;

  /// The post-presolve program exceeds the per-subproblem cap and
  /// decomposition is enabled: dispatch is replaced by the LNS loop,
  /// analysis stays program-level, truth goes component-wise.
  bool decomposed = false;
  /// Some interaction component was too large for exact ground truth; the
  /// report's truth is referenced to the final incumbent instead.
  bool truth_deferred = false;

  Stages(Solver& solver, const Env& e, BackendKind b, SolveReport& r,
         obs::Trace& t)
      : s(solver),
        env(e),
        primary(b),
        report(r),
        trace(t),
        wall_budget(solver.solve_options_.wall_budget_ms),
        work(&e) {}

  bool wall_expired() const noexcept {
    return wall_clock.milliseconds() >= wall_budget;
  }

  void fail_wall(const char* stage) {
    report.resilience.deadline_exhausted = true;
    obs::count(&trace, "resilience.wall_deadline_exhausted");
    fail(report, FailureKind::kDeadlineExhausted,
         std::string("wall-clock deadline exhausted ") + stage + " (budget " +
             std::to_string(wall_budget) + " ms)");
  }

  bool begin();
  bool presolve_stage();
  bool analysis_stage();
  bool certify_stage();
  bool truth_stage();
  void dispatch_stage();
  void decompose_stage();
  void lift_stage();
};

bool Solver::Stages::begin() {
  // An already-expired request fails fast without burning any presolve,
  // analysis, or backend work.
  if (wall_budget <= 0.0) {
    fail_wall("before the solve started");
    return false;
  }

  // Chain: the primary backend, then the fallback rungs in order, with
  // every duplicate kind dropped (first occurrence wins). Validation and
  // analysis run over the deduplicated chain, so a rung listed twice is
  // checked — and diagnosed — once.
  chain.push_back(primary);
  if (s.resilience_.fallback) {
    for (BackendKind b : *s.resilience_.fallback) {
      bool seen = false;
      for (BackendKind c : chain) seen = seen || c == b;
      if (!seen) chain.push_back(b);
    }
  }

  return s.validate_options(chain, report);
}

bool Solver::Stages::presolve_stage() {
  // Presolve: run the dataflow fixpoint and the model-preserving reduction
  // catalog before anything else touches the program. On success the whole
  // pipeline below — analysis, certification, ground truth, backend plan
  // keys — operates on the reduced program, and samples are lifted back to
  // original space at the end. Three non-identity outcomes:
  //   reduced          `work` switches to the cached reduced program;
  //   proved unsat     `work` stays original, so the analysis stage
  //                    rejects it with the usual NCK-P001/P002/D003 story;
  //   rejected         the equivalence check failed (NCK-D004 warning is
  //                    appended after analysis); `work` stays original.
  if (s.solve_options_.presolve) {
    obs::Span presolve_span(trace, "presolve");
    const ReduceOptions& options = s.solve_options_.reduce_options;
    bool miss = false;
    presolve_plan_ptr = s.plan_cache_->get_or_build(
        presolve_key(env, options), &trace, [&] {
          miss = true;
          auto plan = std::make_shared<PresolvePlan>();
          plan->result = reduce_program(env, options);
          obs::Span verify_span(trace, "presolve.verify");
          plan->verdict = verify_reduction(env, plan->result);
          return plan;
        });
    obs::count(&trace, miss ? "presolve.cache_miss" : "presolve.cache_hit");
    presolve_plan = static_cast<const PresolvePlan*>(presolve_plan_ptr.get());
    const ReduceResult& red = presolve_plan->result;
    PresolveSummary summary = summarize_reduction(env, red);
    summary.verified = presolve_plan->verdict.checked &&
                       presolve_plan->verdict.ok;
    summary.rejected = presolve_plan->verdict.checked &&
                       !presolve_plan->verdict.ok;
    presolve_rejected = summary.rejected;
    if (red.changed() || red.proved_unsat || summary.rejected) {
      report.presolve = summary;
    }
    if (!summary.rejected && !red.proved_unsat && red.changed()) {
      work = &red.reduced;
      trace.registry().add("presolve.forced",
                           static_cast<double>(summary.forced));
      trace.registry().add("presolve.removed_constraints",
                           static_cast<double>(summary.removed_constraints));
    }
  }

  // Fully decided program: every variable forced, every constraint removed.
  // The lifted forced assignment is the unique answer consistent with the
  // hard constraints; no backend needs to run.
  if (work != &env && work->num_constraints() == 0) {
    const ReductionTrace& tr = presolve_plan->result.trace;
    report.ran = true;
    report.truth = {true, tr.soft_always_satisfied};
    report.best_assignment =
        tr.lift(std::vector<bool>(work->num_vars(), false));
    report.best_quality = Quality::kOptimal;
    report.num_samples = 1;
    report.counts.optimal = 1;
    obs::count(&trace, "presolve.short_circuit");
    return false;
  }
  return true;
}

bool Solver::Stages::analysis_stage() {
  // Static analysis runs before any backend (or even ground-truth) work:
  // error diagnostics are sound proofs that the solve cannot succeed. In
  // chain mode a rung-specific error is survivable (the solve degrades),
  // so only program-level errors and NCK-R000 abort. In decomposed mode
  // the whole program never reaches a device, so only the program-level
  // passes run here (a >cap program would otherwise draw a fatal NCK-Q002
  // / NCK-C001); the hardware passes run per sub-QUBO inside each
  // sub-solve.
  // While certifying, the heuristic NCK-P007 scale-separation pass yields
  // to its sound NCK-V001/V002 successors (restored after the analyze run).
  const bool saved_scale_separation =
      s.analyzer_.options().program.scale_separation;
  if (s.solve_options_.certify) {
    s.analyzer_.options().program.scale_separation = false;
  }
  {
    obs::Span analyze_span(trace, "analyze");
    if (decomposed) {
      report.analysis = s.analyzer_.analyze(*work);
    } else if (chain.size() > 1) {
      std::vector<AnalysisTarget> targets;
      targets.reserve(chain.size());
      for (BackendKind b : chain) {
        targets.push_back(s.registry_.find(b)->analysis_target());
      }
      report.analysis = s.analyzer_.analyze_chain(*work, s.engine_, targets);
    } else {
      report.analysis = s.analyzer_.analyze(
          *work, s.engine_, s.registry_.find(primary)->analysis_target());
    }
  }
  s.analyzer_.options().program.scale_separation = saved_scale_separation;
  if (decomposed) {
    report.analysis.add(
        {Severity::kNote, DiagCode::kDecomposed, DiagLocation::program(),
         "program exceeds the per-subproblem cap (" +
             std::to_string(work->num_vars()) + " > " +
             std::to_string(s.solve_options_.decompose.subproblem_vars) +
             " variables); solving by qbsolv-style decomposition",
         "hardware-level diagnostics are reported per sub-QUBO inside each "
         "sub-solve; see SolveReport::decompose for the round story"});
  }
  if (presolve_rejected) {
    report.analysis.add(
        {Severity::kWarning, DiagCode::kReductionRejected,
         DiagLocation::program(),
         "presolve produced a reduction that failed equivalence "
         "certification; solving the original program (" +
             presolve_plan->verdict.detail + ")",
         "this indicates a reduction-catalog bug; `nck_cli simplify` on "
         "this program reproduces it"});
  }
  if (decomposed || presolve_rejected) report.analysis.canonicalize();
  if (report.analysis.has_errors()) {
    fail(report, FailureKind::kAnalysisRejected,
         "static analysis rejected the program: " + report.analysis.summary());
    return false;
  }
  return true;
}

bool Solver::Stages::certify_stage() {
  if (!s.solve_options_.certify) return true;
  obs::Span certify_span(trace, "certify");
  const CertifyOptions& options = s.solve_options_.certify_options;
  bool miss = false;
  const backend::PlanPtr plan = s.plan_cache_->get_or_build(
      certificate_key(*work, options), &trace, [&] {
        miss = true;
        auto built = std::make_shared<CertificatePlan>();
        built->certificate = certify_program(*work, s.engine_, options);
        // Enumeration happens only on this cold path; the warm-solve test
        // asserts this counter stays flat.
        trace.registry().add(
            "certify.constraints_enumerated",
            static_cast<double>(built->certificate.constraints.size()));
        return built;
      });
  if (!miss) obs::count(&trace, "certify.cache_hits");
  ProgramCertificate cert =
      static_cast<const CertificatePlan&>(*plan).certificate;
  report_certificate(*work, cert, s.solve_options_.certify_options,
                     report.analysis);
  report.certificate = std::move(cert);
  if (report.analysis.has_errors()) {
    fail(report, FailureKind::kAnalysisRejected,
         "certification rejected the program: " + report.analysis.summary());
    return false;
  }
  return true;
}

bool Solver::Stages::truth_stage() {
  {
    obs::Span truth_span(trace, "ground_truth");
    if (!decomposed &&
        work->num_vars() > s.solve_options_.truth_exact_max_vars) {
      // Past the exact-truth ceiling: skip the exponential certifier and
      // let dispatch reference truth to its own best sample.
      truth_deferred = true;
      obs::count(&trace, "truth.deferred");
    } else if (!decomposed) {
      report.truth = cached_truth(*s.plan_cache_, *work, trace);
    } else {
      // A >cap program is exactly what the exact solver chokes on, but its
      // interaction components are independent: truth factorizes into a
      // per-component sum (each cached content-addressed, so a repeated
      // block pattern certifies once). Only when some single component is
      // itself too large does the report fall back to incumbent-referenced
      // truth (truth_exact == false in the summary).
      const ComponentSplit split = split_components(*work);
      bool all_small = true;
      for (const Env& component : split.programs) {
        all_small =
            all_small && component.num_vars() <= kTruthComponentVars;
      }
      if (!all_small) {
        truth_deferred = true;
        obs::count(&trace, "decompose.truth_deferred");
      } else {
        GroundTruth total{true, 0};
        for (const Env& component : split.programs) {
          const GroundTruth part =
              cached_truth(*s.plan_cache_, component, trace);
          total.feasible = total.feasible && part.feasible;
          total.best_soft_satisfied += part.best_soft_satisfied;
        }
        report.truth = total;
      }
    }
  }
  if (!truth_deferred && !report.truth.feasible) {
    fail(report, FailureKind::kInfeasible,
         "program is infeasible (hard constraints conflict)");
    return false;
  }
  if (wall_expired()) {
    fail_wall("before dispatch");
    return false;
  }
  return true;
}

void Solver::Stages::dispatch_stage() {
  const bool resilient = s.resilience_.active();
  const RetryPolicy& retry = s.resilience_.retry;
  FaultInjector injector(s.resilience_.faults, s.resilience_.fault_seed);
  // Backoff jitter draws from its own stream, never from the solve's
  // sample stream, so a solve preceded by rejected attempts samples
  // exactly like a clean solve.
  Rng backoff_rng(s.resilience_.fault_seed ^ 0xB0FFull);
  SessionClock clock;
  ResilienceLog& log = report.resilience;

  // Dead-qubit events degrade a per-solve copy of the shared device, so
  // one stormy session never poisons the next solve. The degraded
  // topology changes the plan key, which forces the re-embed on the next
  // attempt without any backend-specific logic here.
  const Device* active_device = &shared_advantage_4_1();
  std::optional<Device> degraded_device;

  std::size_t attempt = 0;
  FailureKind last_failure = FailureKind::kNone;
  std::string last_detail;
  bool wall_out = false;

  for (std::size_t rung = 0; rung < chain.size() && !wall_out; ++rung) {
    const BackendKind bk = chain[rung];
    const backend::Backend& be = *s.registry_.find(bk);
    if (rung > 0) {
      ++log.fallbacks;
      obs::count(&trace, "resilience.fallbacks");
    }
    report.backend = bk;

    backend::Budget budget = be.initial_budget();
    std::size_t rung_attempts = 0;

    while (true) {
      // Wall-clock gate first: unlike the modeled deadline below it has no
      // exempt backend — once real time is up, every further attempt is
      // wasted work for a caller that has already timed out.
      if (wall_expired()) {
        log.deadline_exhausted = true;
        last_failure = FailureKind::kDeadlineExhausted;
        last_detail = std::string("wall-clock deadline exhausted before a ") +
                      backend_name(bk) + " attempt";
        obs::count(&trace, "resilience.wall_deadline_exhausted");
        wall_out = true;
        break;
      }

      // Deadline gate + degradation ladder. Deadline-exempt backends (the
      // classical rung) are the guaranteed landing: they cost no modeled
      // device time and exist precisely to land the solve.
      const double remaining = retry.deadline_ms - clock.elapsed_ms();
      if (!be.deadline_exempt() && std::isfinite(retry.deadline_ms)) {
        // Documented steps: shrink the sample budget toward its floors
        // until the modeled attempt cost fits the remaining budget.
        while (be.estimate_attempt_ms(budget) > remaining) {
          if (!be.degrade(budget)) break;
          ++log.degradations;
          obs::count(&trace, "resilience.degradations");
        }
        if (be.estimate_attempt_ms(budget) > remaining) {
          log.deadline_exhausted = true;
          last_failure = FailureKind::kDeadlineExhausted;
          last_detail = std::string("session deadline exhausted before a ") +
                        backend_name(bk) + " attempt could fit";
          obs::count(&trace, "resilience.deadline_exhausted");
          break;  // next rung
        }
      }

      ++attempt;
      ++rung_attempts;
      injector.begin_attempt(attempt);

      AttemptRecord rec;
      rec.attempt = attempt;
      rec.backend = bk;
      rec.samples_requested = budget.samples;

      // Plain solves keep the pre-resilience trace shape (no attempt
      // wrapper); resilient solves nest each backend span under one.
      std::optional<obs::Span> attempt_span;
      if (resilient) {
        attempt_span.emplace(trace, "attempt");
        obs::count(&trace, "resilience.attempts");
      }
      Timer wall;

      FailureKind fk = FailureKind::kNone;
      std::string detail;
      std::vector<std::size_t> dead_qubits;

      {
        obs::Span span(trace, be.name());

        backend::PrepareContext pctx;
        pctx.env = work;
        pctx.engine = &s.engine_;
        pctx.trace = &trace;
        pctx.device = active_device;
        backend::PrepareOutcome prep;
        backend::PlanPtr plan;
        {
          obs::Span key_span(trace, "plan_key");
          pctx.key = be.plan_key(pctx);
          plan = s.plan_cache_->get_or_build(pctx.key, &trace, [&] {
            // The compile/embed/transpile spans are siblings of plan_key,
            // not its children.
            key_span.close();
            prep = be.prepare(pctx);
            return prep.plan;
          });
        }
        if (plan == nullptr) {
          fk = prep.failure;
          detail = std::move(prep.detail);
        }

        if (fk == FailureKind::kNone) {
          backend::ExecuteContext ectx;
          ectx.rng = &s.rng_;
          ectx.trace = &trace;
          ectx.faults = injector.armed() ? &injector : nullptr;
          ectx.budget = budget;
          backend::ExecutionResult res = be.execute(*plan, ectx);
          rec.device_ms = res.device_seconds * 1e3;
          if (res.failure != FailureKind::kNone) {
            fk = res.failure;
            detail = std::move(res.detail);
            dead_qubits = std::move(res.dead_qubits);
          } else {
            fill_report(report, res, truth_deferred);
          }
        }
      }

      rec.wall_ms = wall.milliseconds();
      clock.charge_wall_ms(rec.wall_ms);
      clock.charge_device_ms(rec.device_ms);
      const double queue_wait = injector.modeled_wait_ms(attempt);
      if (queue_wait > 0.0) {
        rec.wait_ms += queue_wait;
        clock.charge_wait_ms(queue_wait);
        trace.record_modeled("resilience.queue_wait", queue_wait * 1e3);
      }

      if (fk == FailureKind::kNone) {
        if (resilient) log.attempts.push_back(rec);
        break;  // success: report.ran is set
      }

      rec.failure = fk;
      rec.detail = detail;
      last_failure = fk;
      last_detail = detail;

      const bool can_retry =
          transient_failure(fk) && rung_attempts <= retry.max_retries;
      if (can_retry) {
        if (fk == FailureKind::kDeadQubits) {
          // Degradation ladder, step 1: drop the dead qubits from the
          // working graph; the changed plan key re-embeds next attempt.
          degraded_device.emplace(active_device->degraded(dead_qubits));
          active_device = &*degraded_device;
          ++log.reembeds;
          obs::count(&trace, "resilience.reembeds");
        }
        const double backoff = retry.backoff_ms(rung_attempts, backoff_rng);
        rec.wait_ms += backoff;
        clock.charge_wait_ms(backoff);
        trace.record_modeled("resilience.backoff", backoff * 1e3);
        ++log.retries;
        obs::count(&trace, "resilience.retries");
      }
      log.attempts.push_back(rec);
      if (!can_retry) {
        if (transient_failure(fk) && retry.max_retries > 0 &&
            rung + 1 >= chain.size()) {
          last_failure = FailureKind::kRetriesExhausted;
          last_detail = "retry budget exhausted after " +
                        std::to_string(rung_attempts) + " attempt(s) on " +
                        backend_name(bk) + " (last: " + detail + ")";
        }
        break;  // next rung
      }
    }

    if (report.ran) break;
  }

  log.faults = injector.history();
  log.total_wall_ms = clock.wall_ms();
  log.total_device_ms = clock.device_ms();
  log.total_wait_ms = clock.wait_ms();

  if (!report.ran) fail(report, last_failure, last_detail);
}

void Solver::Stages::decompose_stage() {
  const decompose::DecomposeOptions& opts = s.solve_options_.decompose;
  obs::Span span(trace, "decompose");

  decompose::DecomposeSummary sum;
  sum.num_vars = work->num_vars();
  sum.truth_exact = !truth_deferred;

  // The decomposition seam is cut once; rounds re-clamp against the moving
  // incumbent but never re-partition, so every round's sub-programs with an
  // unchanged boundary key the same cached plans.
  const decompose::Partition partition =
      decompose::plan_partition(*work, opts.subproblem_vars, &s.engine_);
  sum.subproblems = partition.parts.size();
  sum.components = partition.components;
  trace.registry().add("decompose.subproblems",
                       static_cast<double>(sum.subproblems));

  // Sub-solves are plain solves (no nested decomposition — each part is at
  // most `subproblem_vars` already) sharing this solver's plan cache and
  // resilience posture, with the remaining wall budget propagated per
  // round.
  SolveOptions sub_options = s.solve_options_;
  sub_options.decompose.enabled = false;
  // Per-subproblem exact truth is pointless (the stitch re-evaluates every
  // candidate whole-program) and exponential at device size: cap it.
  sub_options.truth_exact_max_vars =
      std::min(sub_options.truth_exact_max_vars, kTruthComponentVars);

  std::vector<bool> incumbent(work->num_vars(), false);
  Evaluation inc_eval = work->evaluate(incumbent);

  FailureKind first_failure = FailureKind::kNone;
  std::string first_detail;
  bool any_ran = false;
  bool wall_out = false;

  for (std::size_t round = 1; round <= opts.max_rounds; ++round) {
    if (wall_expired()) {
      wall_out = true;
      break;
    }
    obs::Span round_span(trace, "round");
    obs::count(&trace, "decompose.rounds");

    // Clamp every neighborhood's boundary to the current incumbent. The
    // clamped boundary is baked into each sub-program, so the sub-plan
    // fingerprints are automatically keyed by it.
    std::vector<decompose::Subproblem> subs;
    subs.reserve(partition.parts.size());
    std::vector<Env> sub_envs;
    sub_envs.reserve(partition.parts.size());
    for (const std::vector<VarId>& part : partition.parts) {
      subs.push_back(decompose::clamp_to_incumbent(*work, part, incumbent));
      sub_envs.push_back(subs.back().env);
    }

    const backend::PlanCacheStats cache_before = s.plan_cache_->stats();

    // One base seed (the solver's own) for every round; the round number
    // salts the sample streams so a re-clamped neighborhood is not
    // condemned to resample its previous round verbatim.
    PoolOptions pool_options;
    pool_options.num_threads = opts.num_threads;
    pool_options.seed = s.seed_;
    pool_options.annealer = s.anneal_options_;
    // Polish every annealer sub-sample with a deterministic tabu search on
    // the logical problem before the stitch. qbsolv's loop always refines
    // device samples with classical tabu, and it is load-bearing here: the
    // compiled hard scale flattens the soft landscape below the device's
    // thermal resolution, so raw (or merely descent-quenched) samples stall
    // in minimal-but-not-minimum states that a one-soft-unit uphill move
    // would escape. Sub-QUBOs are device-capped, so a generous move budget
    // is still negligible next to the embed cost.
    pool_options.annealer.sampler.postprocess = true;
    pool_options.annealer.sampler.postprocess_tabu_iters = 512;
    pool_options.circuit = s.circuit_options_;
    pool_options.resilience = s.resilience_;
    pool_options.stream_salt = round;
    pool_options.shared_cache = s.plan_cache_;
    if (std::isfinite(wall_budget)) {
      sub_options.wall_budget_ms =
          std::max(0.0, wall_budget - wall_clock.milliseconds());
    }
    pool_options.solve = sub_options;
    SolverPool pool(pool_options);
    const BatchReport batch = pool.solve_all(sub_envs, primary);

    const backend::PlanCacheStats cache_after = s.plan_cache_->stats();

    decompose::RoundStats rs;
    rs.round = round;
    rs.cache_hits = cache_after.hits - cache_before.hits;
    rs.cache_misses = cache_after.misses - cache_before.misses;

    // Stitch: accept each neighborhood's answer, in deterministic part
    // order, iff substituting it into the incumbent strictly improves the
    // whole-program evaluation (fewer violated hards, then more satisfied
    // softs). Strict lexicographic acceptance makes the incumbent sequence
    // monotone, so the loop cannot cycle and always terminates.
    for (std::size_t k = 0; k < batch.reports.size(); ++k) {
      const SolveReport& sub = batch.reports[k];
      if (!sub.ran) {
        if (first_failure == FailureKind::kNone) {
          first_failure = sub.failure;
          first_detail =
              "subproblem " + std::to_string(k) + ": " + sub.failure_message();
        }
        obs::count(&trace, "decompose.sub_failures");
        continue;
      }
      ++rs.subproblems_ran;
      report.backend_seconds += sub.backend_seconds;
      report.qubits_used = std::max(report.qubits_used, sub.qubits_used);
      report.circuit_depth = std::max(report.circuit_depth, sub.circuit_depth);
      report.resilience.retries += sub.resilience.retries;
      report.resilience.reembeds += sub.resilience.reembeds;
      report.resilience.fallbacks += sub.resilience.fallbacks;
      report.resilience.degradations += sub.resilience.degradations;

      // Program-level tabu refinement of the neighborhood's answer
      // (deterministic; see decompose::polish_assignment for why the
      // QUBO-level polish alone is not enough).
      const std::vector<bool> sub_best =
          decompose::polish_assignment(subs[k].env, sub.best_assignment);
      std::vector<bool> candidate = incumbent;
      const std::vector<VarId>& vars = subs[k].vars;
      for (std::size_t i = 0; i < vars.size(); ++i) {
        candidate[vars[i]] = sub_best[i];
      }
      const Evaluation eval = work->evaluate(candidate);
      if (decompose::improves(eval, inc_eval)) {
        incumbent = std::move(candidate);
        inc_eval = eval;
        ++rs.improved;
      }
    }

    any_ran = any_ran || rs.subproblems_ran > 0;
    rs.hard_violated = inc_eval.hard_violated;
    rs.soft_satisfied = inc_eval.soft_satisfied;
    obs::count(&trace, "decompose.subproblems_ran",
               static_cast<double>(rs.subproblems_ran));
    obs::count(&trace, "decompose.improved",
               static_cast<double>(rs.improved));
    sum.rounds = round;
    sum.round_stats.push_back(rs);

    if (rs.subproblems_ran == 0) break;  // every neighborhood failed
    if (rs.improved == 0) {
      sum.converged = true;
      break;
    }
  }

  report.decompose = std::move(sum);

  if (!any_ran) {
    if (wall_out || wall_expired()) {
      fail_wall("during decomposition");
    } else {
      fail(report, first_failure, first_detail);
    }
    return;
  }
  if (wall_out) {
    // Anytime behavior: the deadline cut the loop short, but completed
    // rounds still produced an incumbent worth reporting.
    report.resilience.deadline_exhausted = true;
    obs::count(&trace, "resilience.wall_deadline_exhausted");
  }

  report.ran = true;
  report.backend = primary;
  report.best_assignment = std::move(incumbent);
  report.num_samples = 1;
  if (truth_deferred) {
    // No exact optimum available: reference the truth to the incumbent
    // itself. kOptimal then reads "no device-sized neighborhood improves
    // it" — a local-optimality statement, flagged by truth_exact == false.
    report.truth = {inc_eval.feasible(), inc_eval.soft_satisfied};
    report.truth_exact = false;
  }
  report.best_quality = classify(inc_eval, report.truth);
  switch (report.best_quality) {
    case Quality::kOptimal: report.counts.optimal = 1; break;
    case Quality::kSuboptimal: report.counts.suboptimal = 1; break;
    case Quality::kIncorrect: report.counts.incorrect = 1; break;
  }
}

void Solver::Stages::lift_stage() {
  // Lift the reduced-space result back to original space: forced variables
  // take their substituted values, dropped variables default to FALSE, and
  // the ground-truth soft optimum regains the statically-decided softs.
  if (work == &env) return;
  const ReductionTrace& tr = presolve_plan->result.trace;
  if (report.ran) {
    report.best_assignment = tr.lift(report.best_assignment);
  }
  if (report.truth.feasible) {
    report.truth.best_soft_satisfied += tr.soft_always_satisfied;
  }
}

void Solver::solve_impl(const Env& env, BackendKind backend,
                        SolveReport& report, obs::Trace& trace) {
  obs::Span solve_span(trace, "solve");
  Stages st(*this, env, backend, report, trace);

  if (!st.begin()) return;
  if (!st.presolve_stage()) return;
  // Decomposition engages only past the cap: at or under it, the pipeline
  // below is byte-for-byte the whole-program solve (the trivial
  // one-subproblem case), decompose.enabled or not.
  st.decomposed = solve_options_.decompose.enabled &&
                  st.work->num_vars() > solve_options_.decompose.subproblem_vars;
  if (!st.analysis_stage()) return;
  if (!st.certify_stage()) return;
  if (!st.truth_stage()) return;
  if (st.decomposed) {
    st.decompose_stage();
  } else {
    st.dispatch_stage();
  }
  st.lift_stage();
}

}  // namespace nck
