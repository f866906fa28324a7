// stdin/stdout transport for the serve daemon: reads newline-delimited
// request lines from fd 0 (with its own bounded line buffering — an
// oversized line is discarded as it streams in, never accumulated),
// writes one response line per request to stdout, and owns the SIGTERM
// story:
//
//   first SIGTERM   stop reading, drain gracefully (in-flight requests
//                   finish, queued ones are rejected with `draining`),
//                   flush the final stats snapshot to stderr, exit 0;
//   second SIGTERM  force exit immediately (exit code 1) — the escape
//                   hatch when a stuck worker keeps the drain from
//                   finishing.
//
// EOF on stdin and a `shutdown` request take the same graceful path as
// the first SIGTERM. Shared by the standalone `nck_serve` binary and the
// `nck_cli serve` subcommand.
#pragma once

namespace nck::serve {

/// Parses serve flags from argv[first_arg..) and runs the daemon on
/// stdin/stdout until EOF, `shutdown`, or SIGTERM. Returns the process
/// exit code (0 graceful, 2 usage error).
///
/// Flags: --workers=N --queue-depth=N --seed=N --cache-bytes=N
///        --default-deadline-ms=X --stuck-after-ms=X --reads=N --shots=N
///        --test-stall-ms=X (test hook: every request stalls its worker
///        for X ms before dispatch, to make overload/drain/watchdog
///        timing observable from a shell). Values parse strictly
///        (util/flag_number.hpp), and --reads/--shots are capped at the
///        wire protocol's kMaxReads/kMaxShots.
int run_serve_cli(int argc, char** argv, int first_arg);

}  // namespace nck::serve
