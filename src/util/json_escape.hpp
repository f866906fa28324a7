// JSON string escaping shared by every JSON writer (obs traces, analysis
// diagnostics and certificates, serve responses, nck_cli --json).
#pragma once

#include <string>

namespace nck {

/// Escapes `"`, `\`, `\n`, `\t` and `\r`, and writes every other byte
/// below 0x20 as `\u00XX`; all other bytes pass through unchanged.
std::string json_escape(const std::string& s);

}  // namespace nck
