#include "obs/json.hpp"

#include <ostream>
#include <sstream>

#include "util/json_cursor.hpp"
#include "util/json_escape.hpp"
#include "util/table.hpp"

namespace nck::obs {
namespace {

void write_metric_map(std::ostream& os, const char* key,
                      const std::map<std::string, double>& values) {
  os << "\"" << key << "\":{";
  bool first = true;
  for (const auto& [name, value] : values) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":" << json_number(value);
  }
  os << "}";
}

// ----------------------------------------------------------------- Parser
//
// Recursive descent over util/json_cursor for exactly the schema the
// writer emits. Unknown keys are rejected: the schema is ours, so silence
// would only hide writer drift.

std::map<std::string, double> parse_metric_map(JsonCursor& c) {
  std::map<std::string, double> out;
  c.expect('{');
  if (c.accept('}')) return out;
  do {
    const std::string name = c.string();
    c.expect(':');
    out[name] = c.number();
  } while (c.accept(','));
  c.expect('}');
  return out;
}

SpanRecord parse_span(JsonCursor& c) {
  SpanRecord span;
  c.expect('{');
  do {
    const std::string key = c.string();
    c.expect(':');
    if (key == "name") {
      span.name = c.string();
    } else if (key == "parent") {
      const double parent = c.number();
      span.parent =
          parent < 0 ? kNoParent : static_cast<std::size_t>(parent);
    } else if (key == "depth") {
      span.depth = static_cast<std::size_t>(c.number());
    } else if (key == "start_us") {
      span.start_us = c.number();
    } else if (key == "duration_us") {
      span.duration_us = c.number();
    } else if (key == "modeled") {
      span.modeled = c.boolean();
    } else {
      c.fail("unknown span key \"" + key + "\"");
    }
  } while (c.accept(','));
  c.expect('}');
  return span;
}

HistogramData parse_histogram(JsonCursor& c) {
  HistogramData h;
  c.expect('{');
  do {
    const std::string key = c.string();
    c.expect(':');
    if (key == "count") {
      h.count = static_cast<std::size_t>(c.number());
    } else if (key == "sum") {
      h.sum = c.number();
    } else if (key == "min") {
      h.min = c.number();
    } else if (key == "max") {
      h.max = c.number();
    } else {
      c.fail("unknown histogram key \"" + key + "\"");
    }
  } while (c.accept(','));
  c.expect('}');
  return h;
}

}  // namespace

void write_trace(std::ostream& os, const TraceData& trace) {
  os << "{\"schema\":\"nck-trace-v1\",\"spans\":[";
  for (std::size_t i = 0; i < trace.spans.size(); ++i) {
    const SpanRecord& s = trace.spans[i];
    if (i) os << ",";
    os << "{\"name\":\"" << json_escape(s.name) << "\",\"parent\":"
       << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
       << ",\"depth\":" << s.depth
       << ",\"start_us\":" << json_number(s.start_us)
       << ",\"duration_us\":" << json_number(s.duration_us)
       << ",\"modeled\":" << (s.modeled ? "true" : "false") << "}";
  }
  os << "],";
  write_metric_map(os, "counters", trace.counters);
  os << ",";
  write_metric_map(os, "gauges", trace.gauges);
  os << ",\"histograms\":{";
  bool first = true;
  for (const auto& [name, h] : trace.histograms) {
    if (!first) os << ",";
    first = false;
    os << "\"" << json_escape(name) << "\":{\"count\":" << h.count
       << ",\"sum\":" << json_number(h.sum)
       << ",\"min\":" << json_number(h.min)
       << ",\"max\":" << json_number(h.max) << "}";
  }
  os << "}}";
}

std::string trace_to_json(const TraceData& trace) {
  std::ostringstream os;
  write_trace(os, trace);
  return os.str();
}

TraceData trace_from_json(const std::string& text) {
  TraceData trace;
  JsonCursor c(text, "trace_from_json");
  c.expect('{');
  do {
    const std::string key = c.string();
    c.expect(':');
    if (key == "schema") {
      const std::string schema = c.string();
      if (schema != "nck-trace-v1") {
        c.fail("unsupported schema \"" + schema + "\"");
      }
    } else if (key == "spans") {
      c.expect('[');
      if (!c.accept(']')) {
        do {
          trace.spans.push_back(parse_span(c));
        } while (c.accept(','));
        c.expect(']');
      }
    } else if (key == "counters") {
      trace.counters = parse_metric_map(c);
    } else if (key == "gauges") {
      trace.gauges = parse_metric_map(c);
    } else if (key == "histograms") {
      c.expect('{');
      if (!c.accept('}')) {
        do {
          const std::string name = c.string();
          c.expect(':');
          trace.histograms[name] = parse_histogram(c);
        } while (c.accept(','));
        c.expect('}');
      }
    } else {
      c.fail("unknown trace key \"" + key + "\"");
    }
  } while (c.accept(','));
  c.expect('}');
  c.finish();
  return trace;
}

void print_trace(std::ostream& os, const TraceData& trace) {
  if (trace.empty()) {
    os << "trace: empty\n";
    return;
  }
  if (!trace.spans.empty()) {
    Table spans({"span", "start(ms)", "dur(ms)", "kind"});
    for (const SpanRecord& s : trace.spans) {
      spans.row()
          .cell(std::string(2 * s.depth, ' ') + s.name)
          .cell(s.start_us / 1000.0, 3)
          .cell(s.duration_us / 1000.0, 3)
          .cell(s.modeled ? "model" : "wall");
    }
    spans.print(os);
  }
  if (!trace.counters.empty() || !trace.gauges.empty()) {
    Table metrics({"metric", "kind", "value"});
    for (const auto& [name, value] : trace.counters) {
      metrics.row().cell(name).cell("counter").cell(value, 3);
    }
    for (const auto& [name, value] : trace.gauges) {
      metrics.row().cell(name).cell("gauge").cell(value, 3);
    }
    metrics.print(os);
  }
  if (!trace.histograms.empty()) {
    Table hist({"histogram", "count", "mean", "min", "max"});
    for (const auto& [name, h] : trace.histograms) {
      hist.row()
          .cell(name)
          .cell(h.count)
          .cell(h.mean(), 3)
          .cell(h.min, 3)
          .cell(h.max, 3);
    }
    hist.print(os);
  }
}

}  // namespace nck::obs
