// E9 — §4 online-analysis claim: the analysis is single-pass and in
// order, so it can run during profiling and the (typically large) trace
// file never needs to exist.
//
// For every benchmark: run the pipeline online, then the offline
// two-pass analysis (materialize the whole trace, replay it into a fresh
// extractor), verify the models are identical, and report the memory the
// offline path had to materialize (trace records) against the online
// analyzer's constant working set.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <streambuf>

#include "bench_util.h"
#include "sim/interpreter.h"
#include "trace/io.h"
#include "trace/sink.h"

namespace {

/// Counts the bytes written through it and stores none.
class ByteCounter : public std::streambuf {
 public:
  uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<uint64_t>(n);
    return n;
  }

 private:
  uint64_t bytes_ = 0;
};

}  // namespace

int main() {
  using namespace foray;
  std::printf("== E9: online (no trace file) vs offline analysis ==\n\n");
  util::TablePrinter tp({"benchmark", "trace records", "offline trace MB",
                         "online state KB", "models identical"});
  for (const auto& b : benchsuite::all_benchmarks()) {
    core::PipelineOptions online_opts;
    online_opts.census = true;  // the full trace the offline path stores
    auto online = core::run_pipeline(b.source, online_opts);
    if (!online.ok()) {
      std::fprintf(stderr, "%s failed\n", b.name.c_str());
      return 1;
    }
    const core::PipelineOptions offline_opts;
    trace::VectorSink trace_file;
    const sim::RunResult run =
        sim::run_program(*online.program, &trace_file, offline_opts.run);
    if (!run.ok()) {
      std::fprintf(stderr, "%s failed\n", b.name.c_str());
      return 1;
    }
    core::Extractor replay(offline_opts.extractor);
    replay.on_chunk(trace_file.records().data(), trace_file.size());
    const core::ForayModel offline =
        core::build_model(replay, offline_opts.filter);
    bool same = online.model.refs.size() == offline.refs.size();
    if (same) {
      for (size_t i = 0; i < online.model.refs.size(); ++i) {
        const auto& x = online.model.refs[i];
        const auto& y = offline.refs[i];
        if (x.instr != y.instr || x.fn.coefs != y.fn.coefs ||
            x.fn.const_term != y.fn.const_term ||
            x.exec_count != y.exec_count) {
          same = false;
          break;
        }
      }
    }
    // Offline cost: the binary encoding of the whole trace.
    ByteCounter encoded;
    std::ostream trace_out(&encoded);
    trace::write_binary(trace_out, trace_file.records().data(),
                        trace_file.size());
    const double trace_mb = static_cast<double>(encoded.bytes()) / 1e6;
    const double state_kb =
        static_cast<double>(online.extractor->state_bytes()) / 1e3;
    char mb[32], kb[32];
    std::snprintf(mb, sizeof mb, "%.2f", trace_mb);
    std::snprintf(kb, sizeof kb, "%.1f", state_kb);
    tp.add_row({b.name, std::to_string(online.trace_records), mb, kb,
                same ? "yes" : "NO"});
    if (!same) return 1;
  }
  std::printf("%s\n", tp.str().c_str());
  std::printf("The online analyzer's working set is the loop tree, KBs —\n"
              "orders of magnitude below the trace volume it replaces.\n");
  return 0;
}
