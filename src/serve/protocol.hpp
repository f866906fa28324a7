// Wire protocol of the nck_serve daemon: line-delimited JSON, one request
// per line in, one response per line out (responses complete out of order
// under concurrency; the echoed `id` correlates them).
//
// Request schema (unknown keys are rejected, in the spirit of the strict
// obs trace reader — the schema is ours, so silence would only hide client
// drift):
//
//   {"id": 7, "op": "solve", "program": "nck({a,b},{1})",
//    "backend": "annealer", "deadline_ms": 250, "reads": 100,
//    "shots": 4000, "trace": false}
//
//   op        solve | lint | certify | simplify | stats | shutdown
//   id        optional non-negative integer, echoed verbatim (null when
//             absent or unparsable)
//   program   required for solve/lint/certify/simplify
//   deadline_ms   wall-clock latency budget measured from *admission*;
//             time spent queued counts against it, and a request whose
//             budget ran out while queued is rejected without touching a
//             solver
//   reads/shots   per-request sample-budget overrides (0 = server
//             default), capped at kMaxReads = 10 000 reads and kMaxShots =
//             100 000 shots; larger values are a bad_request
//   decompose     solve only: enable the qbsolv-style large-neighborhood
//             decomposition for programs past the sub-QUBO cap
//   subproblem_vars / max_rounds   decomposition knobs (positive
//             integers; only meaningful with "decompose": true)
//   trace     solve only: include the per-request obs trace (nck-trace-v1)
//             in the response
//
// Responses are `{"id":...,"op":...,"ok":true,...}` on success, or
// `{"id":...,"op":...,"ok":false,"error":{"kind":...,"detail":...}}` with
// a *typed* kind the client can branch on:
//
//   bad_request       malformed line / unknown op / oversized line (the
//                     request-line cap is kMaxRequestBytes)
//   overloaded        the bounded admission queue was full (load shed)
//   draining          the daemon is shutting down and no longer admits
//   deadline_expired  the wall-clock budget ran out while queued
//   worker_stuck      the watchdog failed the request after its worker
//                     exceeded the hard service-time cap
//
// A solve whose *solver* fails (analysis rejection, infeasible program,
// mid-solve deadline, ...) is still `ok:true` — the daemon processed the
// request; the typed FailureKind rides in `result.failure`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "backend/kinds.hpp"
#include "util/json_escape.hpp"

namespace nck::serve {

/// Hard cap on one request line, in bytes. Longer lines are rejected with
/// `bad_request` *before* parsing (the stdio driver also discards the
/// excess without buffering it, so an adversarial unbounded line cannot
/// exhaust memory).
inline constexpr std::size_t kMaxRequestBytes = 1u << 20;  // 1 MiB

/// Caps on the per-request sample budgets, 100x the paper's 100 annealer
/// reads and 25x its 4 000 QAOA shots. The wall deadline is checked only
/// between solve stages and attempts, never inside sampling, so an
/// uncapped budget could pin a worker; larger values are rejected with
/// `bad_request` before any allocation.
inline constexpr std::size_t kMaxReads = 10000;
inline constexpr std::size_t kMaxShots = 100000;

enum class Op { kSolve, kLint, kCertify, kSimplify, kStats, kShutdown };

/// "solve", "lint", ... — stable wire identifier.
const char* op_name(Op op) noexcept;

/// Typed daemon-level rejection kinds (see the file comment).
enum class WireError {
  kNone = 0,
  kBadRequest,
  kOverloaded,
  kDraining,
  kDeadlineExpired,
  kWorkerStuck,
};

/// "bad_request", "overloaded", ... — stable wire identifier.
const char* wire_error_name(WireError e) noexcept;

struct Request {
  std::uint64_t id = 0;
  bool has_id = false;
  Op op = Op::kSolve;
  std::string program;
  BackendKind backend = BackendKind::kClassical;
  /// Wall-clock latency budget in ms, measured from admission; infinity
  /// (the default) defers to the server's default_deadline_ms.
  double deadline_ms = std::numeric_limits<double>::infinity();
  std::size_t reads = 0;  // 0 = server default
  std::size_t shots = 0;  // 0 = server default
  bool trace = false;
  /// Solve only: qbsolv-style decomposition (SolveOptions::decompose).
  bool decompose = false;
  std::size_t subproblem_vars = 0;  // 0 = solver default
  std::size_t max_rounds = 0;       // 0 = solver default
};

/// Strictly parses one request line. Returns false with a human-readable
/// reason in `why` (the bad_request detail); never throws. Enforces
/// kMaxRequestBytes, known-keys-only, required fields per op, and sane
/// value domains (non-negative integral id/reads/shots, reads/shots within
/// kMaxReads/kMaxShots, non-NaN deadline, known op/backend names).
bool parse_request(const std::string& line, Request& out, std::string& why);

/// The `id` echo of a response: the request's id, or "null" when absent.
std::string id_json(const Request& req);

/// One complete error-response line (no trailing newline).
std::string error_response(const std::string& id, const char* op,
                           WireError kind, const std::string& detail);

/// One complete ok-response line (no trailing newline). `payload` is a
/// comma-led fragment of extra top-level fields, e.g.
/// ",\"result\":{...}" — pass "" for a bare acknowledgement.
std::string ok_response(const std::string& id, const char* op,
                        const std::string& payload);

/// The shared escaper (util/json_escape.hpp), used by the response
/// builders.
using nck::json_escape;

}  // namespace nck::serve
