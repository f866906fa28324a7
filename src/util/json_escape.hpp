// JSON string escaping and number text shared by every JSON writer (obs
// traces, analysis diagnostics and certificates, serve responses,
// nck_cli --json).
#pragma once

#include <string>

namespace nck {

/// Escapes `"`, `\`, `\n`, `\t` and `\r`, and writes every other byte
/// below 0x20 as `\u00XX`; all other bytes pass through unchanged.
std::string json_escape(const std::string& s);

/// `v` as "%.17g", which reads back as the same double for every finite
/// value; an infinity, which JSON cannot spell, as 1e999 or -1e999.
std::string json_number(double v);

}  // namespace nck
