// Transport equivalence: every synchronous way of delivering the trace
// to the extractor — record at a time, bulk chunks, an odd-size
// ChunkBuffer, and linear (non-hash) child/reference indices — must
// produce the same loop tree and affine states as the fused online run,
// for every benchsuite program. Any divergence (a lost record, a torn
// affine state) fails here. The overlapped producer/consumer transport
// is checked in pipeline_equivalence_test.cpp.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "benchsuite/suite.h"
#include "foray/extractor.h"
#include "foray/pipeline.h"
#include "sim/interpreter.h"
#include "trace/sink.h"

namespace foray::core {
namespace {

/// Deterministic deep fingerprint of an extraction: tree shape,
/// counters, per-reference traffic and finalized affine functions.
std::string fingerprint(const Extractor& ex) {
  std::ostringstream os;
  os << "records " << ex.records_processed() << " accesses "
     << ex.accesses_processed() << " checkpoints "
     << ex.checkpoints_processed() << "\n";
  for_each_node(*ex.tree().root(), [&](const LoopNode& node) {
    os << "loop " << node.loop_id() << " depth " << node.depth()
       << " entries " << node.entries << " iters " << node.total_iterations
       << " max_trip " << node.max_trip << "\n";
    for (const auto& ref : node.refs()) {
      uint64_t fp_xor = 0, fp_sum = 0;
      ref->footprint().for_each([&](uint32_t a) {
        fp_xor ^= a;
        fp_sum += a;
      });
      os << "  ref " << ref->instr << " exec " << ref->exec_count << " fp "
         << ref->footprint_size() << ":" << fp_xor << ":" << fp_sum
         << (ref->footprint_saturated() ? "*" : "")
         << (ref->has_read ? " r" : "") << (ref->has_write ? " w" : "")
         << " size " << static_cast<int>(ref->access_size) << " kind "
         << static_cast<int>(ref->kind);
      AffineFunction fn = finalize(ref->affine);
      os << " affine[" << (fn.analyzable ? "a" : "x") << " m=" << fn.m
         << " c=" << fn.const_term;
      for (size_t i = 0; i < fn.coefs.size(); ++i) {
        os << " " << fn.coefs[i] << (fn.known[i] ? "" : "?");
      }
      os << " obs=" << ref->affine.observations << "]\n";
    }
  });
  return os.str();
}

class TransportEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(TransportEquivalence, AllTransportsYieldIdenticalTrees) {
  const auto& b = benchsuite::get_benchmark(GetParam());
  PipelineResult res;
  ASSERT_TRUE(frontend_phase(b.source, &res).ok()) << res.error();
  ASSERT_TRUE(instrument_phase(&res).ok());

  trace::VectorSink sink(1u << 20);
  auto run = sim::run_program(*res.program, &sink);
  ASSERT_TRUE(run.ok()) << run.error();
  const auto& recs = sink.records();
  ASSERT_FALSE(recs.empty());

  // Online (zero-materialization) extraction is the reference.
  Extractor online;
  auto run2 = sim::run_program(*res.program, &online);
  ASSERT_TRUE(run2.ok()) << run2.error();
  const std::string want = fingerprint(online);

  // Record-at-a-time via the virtual interface.
  {
    Extractor ex;
    trace::Sink* s = &ex;
    for (const auto& r : recs) s->on_record(r);
    EXPECT_EQ(fingerprint(ex), want) << b.name << ": record-at-a-time";
  }
  // Bulk chunk delivery.
  {
    Extractor ex;
    ex.on_chunk(recs.data(), recs.size());
    EXPECT_EQ(fingerprint(ex), want) << b.name << ": chunked";
  }
  // Buffered chunking through a ChunkBuffer with an odd chunk size.
  {
    Extractor ex;
    trace::ChunkBuffer buf(&ex, 777);
    for (const auto& r : recs) buf.on_record(r);
    buf.flush();
    EXPECT_EQ(fingerprint(ex), want) << b.name << ": ChunkBuffer";
  }
  // Linear (non-hash) child and reference indices.
  {
    ExtractorOptions linear;
    linear.hash_index = false;
    Extractor ex(linear);
    ex.on_chunk(recs.data(), recs.size());
    EXPECT_EQ(fingerprint(ex), want) << b.name << ": linear index";
  }
}

INSTANTIATE_TEST_SUITE_P(All, TransportEquivalence,
                         ::testing::Values("jpeg", "lame", "susan", "fft",
                                           "gsm", "adpcm"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

}  // namespace
}  // namespace foray::core
