#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "problems/vertex_cover.hpp"
#include "runtime/solver.hpp"

namespace nck {
namespace {

// ------------------------------------------------------------------- Spans

TEST(Span, NestingRecordsParentsAndDepths) {
  obs::Trace trace;
  {
    obs::Span outer(trace, "outer");
    {
      obs::Span inner(trace, "inner");
      obs::Span leaf(trace, "leaf");
    }
    obs::Span sibling(trace, "sibling");
  }
  const obs::TraceData data = trace.snapshot();
  ASSERT_EQ(data.spans.size(), 4u);
  EXPECT_EQ(data.spans[0].name, "outer");
  EXPECT_EQ(data.spans[0].parent, obs::kNoParent);
  EXPECT_EQ(data.spans[0].depth, 0u);
  EXPECT_EQ(data.spans[1].name, "inner");
  EXPECT_EQ(data.spans[1].parent, 0u);
  EXPECT_EQ(data.spans[1].depth, 1u);
  EXPECT_EQ(data.spans[2].name, "leaf");
  EXPECT_EQ(data.spans[2].parent, 1u);
  EXPECT_EQ(data.spans[2].depth, 2u);
  EXPECT_EQ(data.spans[3].name, "sibling");
  EXPECT_EQ(data.spans[3].parent, 0u);
  // Children start no earlier than parents; durations are non-negative.
  for (const obs::SpanRecord& span : data.spans) {
    EXPECT_GE(span.duration_us, 0.0);
    if (span.parent != obs::kNoParent) {
      EXPECT_GE(span.start_us, data.spans[span.parent].start_us);
    }
    EXPECT_FALSE(span.modeled);
  }
}

TEST(Span, NullTraceIsANoOp) {
  obs::Span span(nullptr, "nothing");
  span.close();
  obs::count(nullptr, "nothing");
  obs::gauge(nullptr, "nothing", 1.0);
  obs::observe(nullptr, "nothing", 1.0);
}

TEST(Span, EarlyCloseIsIdempotent) {
  obs::Trace trace;
  {
    obs::Span span(trace, "stage");
    span.close();
    span.close();  // second close (and the destructor) must be harmless
  }
  const obs::TraceData data = trace.snapshot();
  ASSERT_EQ(data.spans.size(), 1u);
  EXPECT_GE(data.spans[0].duration_us, 0.0);
}

TEST(Span, OpenSpansSnapshotWithZeroDuration) {
  obs::Trace trace;
  obs::Span open(trace, "still-open");
  const obs::TraceData data = trace.snapshot();
  ASSERT_EQ(data.spans.size(), 1u);
  EXPECT_EQ(data.spans[0].duration_us, 0.0);
}

TEST(Span, ModeledSpansNestUnderOpenSpan) {
  obs::Trace trace;
  {
    obs::Span stage(trace, "device");
    trace.record_modeled("device.programming", 15000.0);
  }
  trace.record_modeled("root-modeled", 7.5);
  const obs::TraceData data = trace.snapshot();
  ASSERT_EQ(data.spans.size(), 3u);
  const obs::SpanRecord* modeled = data.find_span("device.programming");
  ASSERT_NE(modeled, nullptr);
  EXPECT_TRUE(modeled->modeled);
  EXPECT_DOUBLE_EQ(modeled->duration_us, 15000.0);
  EXPECT_EQ(modeled->parent, 0u);
  const obs::SpanRecord* root = data.find_span("root-modeled");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent, obs::kNoParent);
}

// ---------------------------------------------------------------- Registry

TEST(Registry, CountersGaugesHistograms) {
  obs::Registry reg;
  reg.add("hits");
  reg.add("hits", 2.0);
  reg.set("depth", 10.0);
  reg.set("depth", 12.0);  // last write wins
  reg.observe("chain", 1.0);
  reg.observe("chain", 4.0);
  reg.observe("chain", 2.0);
  obs::TraceData data;
  reg.snapshot_into(data);
  EXPECT_DOUBLE_EQ(data.counter("hits"), 3.0);
  EXPECT_DOUBLE_EQ(data.gauge("depth"), 12.0);
  EXPECT_DOUBLE_EQ(data.counter("never-recorded"), 0.0);
  const obs::HistogramData& h = data.histograms.at("chain");
  EXPECT_EQ(h.count, 3u);
  EXPECT_DOUBLE_EQ(h.min, 1.0);
  EXPECT_DOUBLE_EQ(h.max, 4.0);
  EXPECT_DOUBLE_EQ(h.sum, 7.0);
  EXPECT_NEAR(h.mean(), 7.0 / 3.0, 1e-12);
}

TEST(Registry, ConcurrentWritersDoNotLoseUpdates) {
  obs::Registry reg;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 1000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      for (int i = 0; i < kIncrements; ++i) {
        reg.add("shared");
        reg.observe("dist", 1.0);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  obs::TraceData data;
  reg.snapshot_into(data);
  EXPECT_DOUBLE_EQ(data.counter("shared"), kThreads * kIncrements);
  EXPECT_EQ(data.histograms.at("dist").count,
            static_cast<std::size_t>(kThreads * kIncrements));
}

// -------------------------------------------------------------------- JSON

obs::TraceData sample_trace() {
  obs::Trace trace;
  {
    obs::Span outer(trace, "solve");
    obs::Span inner(trace, "compile");
    trace.record_modeled("device.sampling", 14936.25);
  }
  trace.registry().add("synth.requests", 6.0);
  trace.registry().set("qaoa.fidelity", 0.9619234567891234);
  trace.registry().observe("embed.chain_length", 1.0);
  trace.registry().observe("embed.chain_length", 3.0);
  return trace.snapshot();
}

void expect_same_trace(const obs::TraceData& a, const obs::TraceData& b) {
  ASSERT_EQ(a.spans.size(), b.spans.size());
  for (std::size_t i = 0; i < a.spans.size(); ++i) {
    EXPECT_EQ(a.spans[i].name, b.spans[i].name);
    EXPECT_EQ(a.spans[i].parent, b.spans[i].parent);
    EXPECT_EQ(a.spans[i].depth, b.spans[i].depth);
    // max_digits10 output: doubles round-trip bit-exactly.
    EXPECT_EQ(a.spans[i].start_us, b.spans[i].start_us);
    EXPECT_EQ(a.spans[i].duration_us, b.spans[i].duration_us);
    EXPECT_EQ(a.spans[i].modeled, b.spans[i].modeled);
  }
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.gauges, b.gauges);
  ASSERT_EQ(a.histograms.size(), b.histograms.size());
  for (const auto& [name, h] : a.histograms) {
    ASSERT_TRUE(b.histograms.count(name)) << name;
    const obs::HistogramData& other = b.histograms.at(name);
    EXPECT_EQ(h.count, other.count);
    EXPECT_EQ(h.sum, other.sum);
    EXPECT_EQ(h.min, other.min);
    EXPECT_EQ(h.max, other.max);
  }
}

TEST(TraceJson, RoundTripIsExact) {
  const obs::TraceData original = sample_trace();
  const std::string text = obs::trace_to_json(original);
  EXPECT_NE(text.find("\"nck-trace-v1\""), std::string::npos);
  const obs::TraceData back = obs::trace_from_json(text);
  expect_same_trace(original, back);
  // And once more through the parsed copy: serialization is stable.
  EXPECT_EQ(obs::trace_to_json(back), text);
}

TEST(TraceJson, NamesWithControlBytesAndNonAsciiRoundTrip) {
  // json_escape writes control bytes as \u00XX; the reader must take them
  // back, along with raw UTF-8.
  obs::TraceData original;
  original.counters["ctl\x01\x1f\b\f|tab\t"] = 2.0;
  original.gauges["caf\xc3\xa9 \xf0\x9f\x98\x80"] = 0.5;
  const std::string text = obs::trace_to_json(original);
  EXPECT_NE(text.find("\\u0001"), std::string::npos) << text;
  const obs::TraceData back = obs::trace_from_json(text);
  EXPECT_EQ(back.counters, original.counters);
  EXPECT_EQ(back.gauges, original.gauges);
  EXPECT_EQ(obs::trace_to_json(back), text);
}

TEST(TraceJson, ReaderDecodesEscapedNames) {
  const obs::TraceData back = obs::trace_from_json(
      R"x({"schema":"nck-trace-v1","counters":{"\u00e9\uD83D\uDE00\b\f":1}})x");
  EXPECT_EQ(back.counter("\xc3\xa9\xf0\x9f\x98\x80\b\f"), 1.0);
}

TEST(TraceJson, EmptyTraceRoundTrips) {
  const obs::TraceData empty;
  EXPECT_TRUE(empty.empty());
  const obs::TraceData back = obs::trace_from_json(obs::trace_to_json(empty));
  EXPECT_TRUE(back.empty());
}

TEST(TraceJson, RejectsMalformedInput) {
  EXPECT_THROW(obs::trace_from_json(""), std::runtime_error);
  EXPECT_THROW(obs::trace_from_json("{}"), std::runtime_error);
  EXPECT_THROW(obs::trace_from_json("{\"schema\":\"nck-trace-v2\"}"),
               std::runtime_error);  // unknown schema version
  const std::string good = obs::trace_to_json(sample_trace());
  EXPECT_THROW(obs::trace_from_json(good.substr(0, good.size() / 2)),
               std::runtime_error);  // truncated document
  EXPECT_THROW(obs::trace_from_json(good + "trailing"), std::runtime_error);
}

TEST(TraceJson, ReaderRejectsCorruptDocuments) {
  // Table-driven corruption sweep: every document must be rejected with a
  // clear std::runtime_error — never a crash, hang, or silent partial
  // parse. Documents are grouped by the failure they exercise.
  struct Case {
    const char* label;
    const char* doc;
  };
  const Case cases[] = {
      {"empty document", ""},
      {"whitespace only", "   \n\t  "},
      {"array root", "[]"},
      {"null root", "null"},
      {"bare number", "42"},
      {"unterminated object", "{\"schema\":\"nck-trace-v1\""},
      {"wrong schema version", "{\"schema\":\"nck-trace-v0\"}"},
      {"future schema version", "{\"schema\":\"nck-trace-v2\"}"},
      {"schema value not a string", "{\"schema\":42}"},
      {"unknown top-level key", "{\"schema\":\"nck-trace-v1\",\"bogus\":1}"},
      {"missing colon", "{\"schema\" \"nck-trace-v1\"}"},
      {"spans not an array", "{\"schema\":\"nck-trace-v1\",\"spans\":{}}"},
      {"span not an object", "{\"schema\":\"nck-trace-v1\",\"spans\":[7]}"},
      {"empty span object", "{\"schema\":\"nck-trace-v1\",\"spans\":[{}]}"},
      {"unknown span key",
       "{\"schema\":\"nck-trace-v1\",\"spans\":[{\"wat\":1}]}"},
      {"unquoted span key",
       "{\"schema\":\"nck-trace-v1\",\"spans\":[{name:\"x\"}]}"},
      {"span parent not a number",
       "{\"schema\":\"nck-trace-v1\",\"spans\":[{\"parent\":\"root\"}]}"},
      {"modeled not a boolean",
       "{\"schema\":\"nck-trace-v1\",\"spans\":[{\"modeled\":1}]}"},
      {"dangling comma in spans",
       "{\"schema\":\"nck-trace-v1\",\"spans\":[,]}"},
      {"unterminated string",
       "{\"schema\":\"nck-trace-v1\",\"counters\":{\"a"},
      {"unsupported escape",
       "{\"schema\":\"nck-trace-v1\",\"counters\":{\"\\q\":1}}"},
      {"lone low surrogate",
       "{\"schema\":\"nck-trace-v1\",\"counters\":{\"\\udc00\":1}}"},
      {"high surrogate without a low one",
       "{\"schema\":\"nck-trace-v1\",\"counters\":{\"\\ud800a\":1}}"},
      {"short unicode escape",
       "{\"schema\":\"nck-trace-v1\",\"counters\":{\"\\u00\":1}}"},
      {"counter value not a number",
       "{\"schema\":\"nck-trace-v1\",\"counters\":{\"a\":\"b\"}}"},
      // strtod reads these; the JSON number grammar does not.
      {"nan counter", "{\"schema\":\"nck-trace-v1\",\"counters\":{\"a\":nan}}"},
      {"inf counter", "{\"schema\":\"nck-trace-v1\",\"counters\":{\"a\":inf}}"},
      {"-inf counter",
       "{\"schema\":\"nck-trace-v1\",\"counters\":{\"a\":-inf}}"},
      {"hex float counter",
       "{\"schema\":\"nck-trace-v1\",\"counters\":{\"a\":0x1p4}}"},
      {"leading plus counter",
       "{\"schema\":\"nck-trace-v1\",\"counters\":{\"a\":+1}}"},
      {"bare trailing dot counter",
       "{\"schema\":\"nck-trace-v1\",\"counters\":{\"a\":1.}}"},
      {"histograms not an object",
       "{\"schema\":\"nck-trace-v1\",\"histograms\":[]}"},
      {"unknown histogram key",
       "{\"schema\":\"nck-trace-v1\",\"histograms\":{\"h\":{\"median\":1}}}"},
      {"extra closing brace", "{\"schema\":\"nck-trace-v1\"}}"},
  };
  for (const Case& c : cases) {
    try {
      obs::trace_from_json(c.doc);
      FAIL() << c.label << ": corrupt document was accepted";
    } catch (const std::runtime_error& e) {
      // Every rejection names the parser and carries a reason.
      EXPECT_NE(std::string(e.what()).find("trace_from_json"),
                std::string::npos)
          << c.label << ": unhelpful error \"" << e.what() << "\"";
    }
  }
}

TEST(TraceJson, ReaderRejectsEveryTruncationOfAValidDocument) {
  // A valid document cut off at any byte must throw, not crash or return
  // a half-filled trace.
  const std::string good = obs::trace_to_json(sample_trace());
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_THROW(obs::trace_from_json(good.substr(0, len)),
                 std::runtime_error)
        << "prefix of length " << len << " was accepted";
  }
  EXPECT_NO_THROW(obs::trace_from_json(good));
}

TEST(TraceJson, PrintTraceRendersTables) {
  std::ostringstream os;
  obs::print_trace(os, sample_trace());
  const std::string text = os.str();
  EXPECT_NE(text.find("solve"), std::string::npos);
  EXPECT_NE(text.find("compile"), std::string::npos);
  EXPECT_NE(text.find("model"), std::string::npos);  // modeled span kind
  EXPECT_NE(text.find("synth.requests"), std::string::npos);
  EXPECT_NE(text.find("embed.chain_length"), std::string::npos);
}

// ------------------------------------------------------------- Solver wiring

TEST(SolveTrace, AnnealerSolveRecordsStagesAndRoundTrips) {
  Solver solver(42);
  solver.annealer_options().sampler.num_reads = 30;
  const VertexCoverProblem p{path_graph(4)};
  const SolveReport report = solver.solve(p.encode(), BackendKind::kAnnealer);
  ASSERT_TRUE(report.ran) << report.failure_message();

  // Per-stage spans of the anneal pipeline.
  ASSERT_FALSE(report.trace.empty());
  for (const char* name : {"solve", "analyze", "ground_truth", "anneal",
                           "compile", "embed", "anneal.sample"}) {
    EXPECT_NE(report.trace.find_span(name), nullptr) << name;
  }
  const obs::SpanRecord* device = report.trace.find_span("device.programming");
  ASSERT_NE(device, nullptr);
  EXPECT_TRUE(device->modeled);

  // Synthesis cache counters surfaced from SynthEngine::Stats: every
  // request either hits or misses the cache.
  EXPECT_GT(report.trace.counter("synth.requests"), 0.0);
  EXPECT_DOUBLE_EQ(report.trace.counter("synth.cache_hits") +
                       report.trace.counter("synth.cache_misses"),
                   report.trace.counter("synth.requests"));
  EXPECT_EQ(report.trace.counter("anneal.reads"), 30.0);
  EXPECT_TRUE(report.trace.histograms.count("embed.chain_length"));

  // Acceptance criterion: a real solve trace survives the JSON exporter.
  const obs::TraceData back =
      obs::trace_from_json(obs::trace_to_json(report.trace));
  expect_same_trace(report.trace, back);
}

TEST(SolveTrace, FailedSolveStillCarriesATrace) {
  Env env;
  const auto v = env.new_vars(2, "v");
  env.different(v[0], v[1]);
  env.same(v[0], v[1]);  // infeasible
  Solver solver(42);
  const SolveReport report = solver.solve(env, BackendKind::kClassical);
  EXPECT_FALSE(report.ran);
  EXPECT_FALSE(report.failure_message().empty());
  // Static analysis rejects the program, so only the early stages ran —
  // but the report still carries their spans.
  EXPECT_NE(report.trace.find_span("solve"), nullptr);
  EXPECT_NE(report.trace.find_span("analyze"), nullptr);
}

// ------------------------------------------------------------ merge_trace

TEST(MergeTrace, ReparentsSpansAndAggregatesMetrics) {
  obs::TraceData task;
  task.spans.push_back({"solve", obs::kNoParent, 0, 0.0, 100.0, false});
  task.spans.push_back({"embed", 0, 1, 10.0, 40.0, false});
  task.spans.push_back({"anneal", 0, 1, 60.0, 80.0, true});
  task.counters["plan_cache.hit"] = 2.0;
  task.gauges["transpile.depth"] = 7.0;
  task.histograms["embed.chain_length"].observe(3.0);
  task.histograms["embed.chain_length"].observe(5.0);

  obs::TraceData batch;
  obs::merge_trace(batch, task, "task0");
  obs::merge_trace(batch, task, "task1");

  ASSERT_EQ(batch.spans.size(), 8u);
  ASSERT_NE(batch.find_span("task0"), nullptr);
  ASSERT_NE(batch.find_span("task1"), nullptr);
  // Synthetic roots sit at depth 0 and span the task's full extent
  // (last span end = 60 + 80).
  EXPECT_EQ(batch.spans[0].name, "task0");
  EXPECT_EQ(batch.spans[0].parent, obs::kNoParent);
  EXPECT_EQ(batch.spans[0].depth, 0u);
  EXPECT_DOUBLE_EQ(batch.spans[0].duration_us, 140.0);
  // Task spans keep pre-order, re-parented one level down.
  EXPECT_EQ(batch.spans[1].name, "solve");
  EXPECT_EQ(batch.spans[1].parent, 0u);
  EXPECT_EQ(batch.spans[1].depth, 1u);
  EXPECT_EQ(batch.spans[2].parent, 1u);  // embed -> solve
  EXPECT_EQ(batch.spans[2].depth, 2u);
  EXPECT_TRUE(batch.spans[3].modeled);
  // The second task's copy points at its own root, not the first's.
  EXPECT_EQ(batch.spans[4].name, "task1");
  EXPECT_EQ(batch.spans[5].parent, 4u);

  // Counters sum, gauges last-write-win, histograms merge.
  EXPECT_DOUBLE_EQ(batch.counter("plan_cache.hit"), 4.0);
  EXPECT_DOUBLE_EQ(batch.gauge("transpile.depth"), 7.0);
  const obs::HistogramData& h = batch.histograms.at("embed.chain_length");
  EXPECT_EQ(h.count, 4u);
  EXPECT_DOUBLE_EQ(h.min, 3.0);
  EXPECT_DOUBLE_EQ(h.max, 5.0);
  EXPECT_DOUBLE_EQ(h.sum, 16.0);
}

TEST(MergeTrace, EmptyTaskStillGetsARoot) {
  obs::TraceData batch;
  obs::merge_trace(batch, obs::TraceData{}, "task0");
  ASSERT_EQ(batch.spans.size(), 1u);
  EXPECT_EQ(batch.spans[0].name, "task0");
  EXPECT_DOUBLE_EQ(batch.spans[0].duration_us, 0.0);
}

}  // namespace
}  // namespace nck
