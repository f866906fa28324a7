// JSON serialization of trace snapshots: a writer pair (stream + string)
// and a strict reader (util/json_cursor) that round-trips everything the
// writer emits. Schema (versioned as "nck-trace-v1"):
//
//   {
//     "schema": "nck-trace-v1",
//     "spans": [{"name": "...", "parent": -1, "depth": 0,
//                "start_us": 0.0, "duration_us": 1.5, "modeled": false}],
//     "counters": {"synth.requests": 5.0},
//     "gauges": {"transpile.depth": 42.0},
//     "histograms": {"embed.chain_length":
//                    {"count": 4, "sum": 9.0, "min": 1.0, "max": 4.0}}
//   }
//
// Doubles are written by json_number (util/json_escape.hpp), so finite
// values round-trip bit-exactly; JSON has no form for inf or NaN, so the
// reader rejects them.
#pragma once

#include <iosfwd>
#include <string>

#include "obs/obs.hpp"

namespace nck::obs {

void write_trace(std::ostream& os, const TraceData& trace);
std::string trace_to_json(const TraceData& trace);

/// Parses the format written by write_trace. Throws std::runtime_error on
/// malformed input or a schema mismatch.
TraceData trace_from_json(const std::string& text);

/// Renders the trace as aligned tables (spans, then counters/gauges, then
/// histograms) via util/table — the `nck_cli solve --trace` output.
void print_trace(std::ostream& os, const TraceData& trace);

}  // namespace nck::obs
