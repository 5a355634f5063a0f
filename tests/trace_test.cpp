#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "trace/io.h"
#include "trace/record.h"
#include "trace/sink.h"

namespace foray::trace {
namespace {

std::vector<Record> sample_records() {
  return {
      Record::checkpoint(CheckpointType::LoopEnter, 12),
      Record::checkpoint(CheckpointType::BodyBegin, 12),
      Record::checkpoint(CheckpointType::LoopEnter, 15),
      Record::checkpoint(CheckpointType::BodyBegin, 15),
      Record::access(0x4002a0, 0x7fff5934, 1, true, AccessKind::Data),
      Record::checkpoint(CheckpointType::BodyEnd, 15),
      Record::checkpoint(CheckpointType::LoopExit, 15),
      Record::call(3),
      Record::access(0x400104, 0x10000010, 4, false, AccessKind::Scalar),
      Record::access(0x400208, 0x20000000, 4, true, AccessKind::System),
      Record::ret(3),
      Record::checkpoint(CheckpointType::BodyEnd, 12),
      Record::checkpoint(CheckpointType::LoopExit, 12),
  };
}

TEST(Record, EqualityDiscriminatesPayload) {
  Record a = Record::access(1, 2, 4, false, AccessKind::Data);
  Record b = a;
  EXPECT_EQ(a, b);
  b = Record::access(1, 3, 4, false, AccessKind::Data);
  EXPECT_FALSE(a == b);
  Record c = Record::checkpoint(CheckpointType::BodyBegin, 5);
  Record d = Record::checkpoint(CheckpointType::BodyEnd, 5);
  EXPECT_FALSE(c == d);
  EXPECT_FALSE(a == c);
}

TEST(TraceText, RecordFormatsMatchPaperStyle) {
  // Every form `foraygen trace` prints, in sample_records() order.
  const char* const want[] = {
      "Checkpoint: loop_enter 12",
      "Checkpoint: body_begin 12",
      "Checkpoint: loop_enter 15",
      "Checkpoint: body_begin 15",
      "Instr: 4002a0 addr: 7fff5934 wr 1 data",
      "Checkpoint: body_end 15",
      "Checkpoint: loop_exit 15",
      "Call: 3",
      "Instr: 400104 addr: 10000010 rd 4 scalar",
      "Instr: 400208 addr: 20000000 wr 4 system",
      "Ret: 3",
      "Checkpoint: body_end 12",
      "Checkpoint: loop_exit 12",
  };
  const std::vector<Record> records = sample_records();
  ASSERT_EQ(records.size(), std::size(want));
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(record_to_text(records[i]), want[i]) << "record " << i;
  }
}

TEST(Sinks, ChunkDeliveryMatchesRecordDelivery) {
  auto records = sample_records();
  VectorSink via_records, via_chunk;
  for (const auto& r : records) via_records.on_chunk(&r, 1);
  via_chunk.on_chunk(records.data(), records.size());
  ASSERT_EQ(via_chunk.size(), via_records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(via_chunk.records()[i], via_records.records()[i]);
  }
}

TEST(Sinks, VectorSinkCollects) {
  VectorSink sink;
  for (const auto& r : sample_records()) sink.on_chunk(&r, 1);
  EXPECT_EQ(sink.size(), sample_records().size());
}

TEST(Sinks, NullSinkIsSilent) {
  NullSink sink;
  for (const auto& r : sample_records()) sink.on_chunk(&r, 1);
  SUCCEED();
}

}  // namespace
}  // namespace foray::trace
