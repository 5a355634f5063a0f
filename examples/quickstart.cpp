// Quickstart: the paper's Figure 4 worked end to end.
//
// Takes the small pointer-walking program of Figure 4(a), shows the
// checkpoint-annotated view (4b), an excerpt of the profiling trace (4c),
// and the extracted FORAY model (4d) in both the paper's display form and
// as a runnable MiniC program.
#include <cstdio>

#include "foray/pipeline.h"
#include "minic/parser.h"
#include "minic/printer.h"
#include "sim/interpreter.h"
#include "trace/io.h"
#include "trace/sink.h"

int main() {
  using namespace foray;

  const char* kFigure4a =
      "char q[10000];\n"
      "int main(void) {\n"
      "  char *ptr = q;\n"
      "  int i; int t1 = 98;\n"
      "  while (t1 < 100) {\n"
      "    t1++;\n"
      "    ptr += 100;\n"
      "    for (i = 40; i > 37; i--) {\n"
      "      *ptr++ = i * i % 256;\n"
      "    }\n"
      "  }\n"
      "  return 0;\n"
      "}\n";

  std::printf("== Figure 4(a): the original program ==\n%s\n", kFigure4a);

  // Step 1 of Algorithm 1: annotate the loops (Figure 4b view).
  util::DiagList diags;
  auto prog = minic::parse_and_check(kFigure4a, &diags);
  if (!prog) {
    std::fprintf(stderr, "front-end error:\n%s", diags.str().c_str());
    return 1;
  }
  instrument::annotate_loops(prog.get());
  minic::PrintOptions popts;
  popts.annotate_checkpoints = true;
  std::printf("== Figure 4(b): checkpoint-annotated program ==\n%s\n",
              minic::print_program(*prog, popts).c_str());

  // Step 2: profile on the simulator, materializing the trace so we can
  // show it (production use runs the analyzer online instead).
  trace::VectorSink sink;
  sim::RunResult run = sim::run_program(*prog, &sink);
  std::printf("== Figure 4(c): trace file (%zu records, first 24) ==\n",
              sink.size());
  int shown = 0;
  for (const auto& r : sink.records()) {
    if (r.type() == trace::RecordType::Access &&
        r.kind() != trace::AccessKind::Data) {
      continue;  // keep the excerpt readable, as the paper's figure does
    }
    std::printf("%s\n", trace::record_to_text(r).c_str());
    if (++shown >= 24) break;
  }

  // Steps 3+4 via the one-call pipeline (relaxed filter: the example's
  // six-execution store would be dropped by the paper's Nexec=20).
  core::PipelineOptions opts;
  opts.filter.min_exec = 1;
  opts.filter.min_locations = 1;
  auto res = core::run_pipeline(kFigure4a, opts);
  if (!res.ok()) {
    std::fprintf(stderr, "pipeline error: %s\n", res.error().c_str());
    return 1;
  }

  std::printf("\n== Figure 4(d): FORAY model (paper display form) ==\n%s\n",
              res.foray_paper_style.c_str());
  std::printf("== FORAY model as a runnable MiniC program ==\n%s\n",
              res.foray_source.c_str());

  // Demonstrate the model is executable: run it through the simulator.
  util::DiagList diags2;
  auto model_prog = minic::parse_and_check(res.foray_source, &diags2);
  if (!model_prog) {
    std::fprintf(stderr, "emitted model failed to parse:\n%s",
                 diags2.str().c_str());
    return 1;
  }
  instrument::annotate_loops(model_prog.get());
  trace::VectorSink model_trace;
  sim::RunResult model_run = sim::run_program(*model_prog, &model_trace);
  std::printf("model executed: ok=%d, %zu trace records\n", model_run.ok(),
              model_trace.size());
  return model_run.ok() && run.ok() ? 0 : 1;
}
