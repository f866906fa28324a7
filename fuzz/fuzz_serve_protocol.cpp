// Raw-bytes harness for the nck_serve wire-protocol parser (DESIGN.md §3j).
//
// Input is one (attacker-controlled) request line. The contract under
// test, mirroring what the daemon relies on:
//   * serve::parse_request never throws — it returns false with a
//     non-empty human-readable reason;
//   * accepted requests satisfy the documented domains (known op, a
//     program where one is required, non-NaN deadline, positive
//     decomposition knobs when present);
//   * the response builders emit lines with no raw control bytes (one
//     request line in, one well-formed response line out — an embedded
//     newline would desynchronize the stream).
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "serve/protocol.hpp"

namespace {

void abort_with(const char* what, const std::string& detail) {
  std::fprintf(stderr, "fuzz_serve_protocol: %s: %s\n", what, detail.c_str());
  __builtin_trap();
}

void check_single_line(const std::string& response) {
  for (const char c : response) {
    if (static_cast<unsigned char>(c) < 0x20) {
      abort_with("response contains a raw control byte", response);
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string line(reinterpret_cast<const char*>(data), size);
  nck::serve::Request request;
  std::string why;
  bool accepted = false;
  try {
    accepted = nck::serve::parse_request(line, request, why);
  } catch (...) {
    abort_with("parse_request threw", line);
  }
  if (!accepted) {
    if (why.empty()) abort_with("rejection carries no reason", line);
    check_single_line(nck::serve::error_response(
        "null", "solve", nck::serve::WireError::kBadRequest, why));
    return 0;
  }
  // Documented domains of an accepted request.
  if (std::isnan(request.deadline_ms)) {
    abort_with("accepted NaN deadline", line);
  }
  if (request.reads > nck::serve::kMaxReads ||
      request.shots > nck::serve::kMaxShots) {
    abort_with("accepted a sample budget over its cap", line);
  }
  const bool needs_program = request.op == nck::serve::Op::kSolve ||
                             request.op == nck::serve::Op::kLint ||
                             request.op == nck::serve::Op::kCertify ||
                             request.op == nck::serve::Op::kSimplify;
  if (needs_program && request.program.empty()) {
    abort_with("accepted program-less request", line);
  }
  check_single_line(nck::serve::ok_response(
      nck::serve::id_json(request), nck::serve::op_name(request.op),
      ",\"echo\":\"" + nck::serve::json_escape(request.program) + "\""));
  return 0;
}
