#include <gtest/gtest.h>

#include <sstream>

#include "trace/io.h"
#include "trace/record.h"
#include "trace/sink.h"
#include "util/rng.h"

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

TEST(TextIo, RecordFormatsMatchPaperStyle) {
  Record r = Record::access(0x4002a0, 0x7fff5934, 1, true, AccessKind::Data);
  EXPECT_EQ(record_to_text(r), "Instr: 4002a0 addr: 7fff5934 wr 1 data");
  Record c = Record::checkpoint(CheckpointType::BodyBegin, 16);
  EXPECT_EQ(record_to_text(c), "Checkpoint: body_begin 16");
}

TEST(TextIo, RoundTrip) {
  auto records = sample_records();
  std::stringstream ss;
  write_text(ss, records);
  std::vector<Record> back;
  util::Status st = read_text(ss, &back);
  ASSERT_TRUE(st.ok()) << st.message();
  ASSERT_EQ(back.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(back[i], records[i]) << "record " << i;
  }
}

TEST(TextIo, RejectsMalformedLines) {
  std::vector<Record> out;
  std::stringstream ss("Checkpoint: nonsense 12\n");
  util::Status st = read_text(ss, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput);
  EXPECT_EQ(st.first_line(), 1);
}

TEST(TextIo, RejectsUnknownRecord) {
  std::vector<Record> out;
  std::stringstream ss("Call: 1\nBogus: 1 2 3\n");
  util::Status st = read_text(ss, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput);
  EXPECT_EQ(st.first_line(), 2);
}

TEST(TextIo, SkipsBlankLines) {
  std::vector<Record> out;
  std::stringstream ss("\nCall: 1\n\nRet: 1\n");
  ASSERT_TRUE(read_text(ss, &out).ok());
  EXPECT_EQ(out.size(), 2u);
}

TEST(BinaryIo, RoundTrip) {
  auto records = sample_records();
  std::stringstream ss;
  write_binary(ss, records);
  std::vector<Record> back;
  util::Status st = read_binary(ss, &back);
  ASSERT_TRUE(st.ok()) << st.message();
  ASSERT_EQ(back.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(back[i], records[i]) << "record " << i;
  }
}

TEST(BinaryIo, RandomizedRoundTripProperty) {
  util::Rng rng(99);
  std::vector<Record> records;
  for (int i = 0; i < 5000; ++i) {
    switch (rng.next_below(4)) {
      case 0:
        records.push_back(Record::checkpoint(
            static_cast<CheckpointType>(rng.next_below(4)),
            static_cast<int32_t>(rng.next_below(1000))));
        break;
      case 1:
        records.push_back(Record::access(
            static_cast<uint32_t>(rng.next()),
            static_cast<uint32_t>(rng.next()),
            static_cast<uint8_t>(1 + rng.next_below(4)), rng.next_bool(),
            static_cast<AccessKind>(rng.next_below(3))));
        break;
      case 2:
        records.push_back(
            Record::call(static_cast<int32_t>(rng.next_below(100))));
        break;
      default:
        records.push_back(
            Record::ret(static_cast<int32_t>(rng.next_below(100))));
    }
  }
  std::stringstream bin;
  write_binary(bin, records);
  std::vector<Record> back;
  ASSERT_TRUE(read_binary(bin, &back).ok());
  ASSERT_EQ(back.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(back[i], records[i]) << "record " << i;
  }
  // Text round-trip on the same corpus.
  std::stringstream txt;
  write_text(txt, records);
  std::vector<Record> back2;
  util::Status st = read_text(txt, &back2);
  ASSERT_TRUE(st.ok()) << st.message();
  ASSERT_EQ(back2.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(back2[i], records[i]) << "record " << i;
  }
}

TEST(BinaryIo, RejectsBadMagic) {
  std::stringstream ss("NOPE....");
  std::vector<Record> out;
  util::Status st = read_binary(ss, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput);
}

TEST(BinaryIo, RejectsTruncatedBody) {
  std::stringstream ss;
  write_binary(ss, sample_records());
  std::string data = ss.str();
  data.resize(data.size() - 3);
  std::stringstream cut(data);
  std::vector<Record> out;
  util::Status st = read_binary(cut, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::ErrorCode::kIoError);
}

TEST(BinaryIo, RejectsOversizedHeaderCount) {
  // A header claiming 2^31 records backed by a handful of bytes must be
  // rejected before any allocation is sized from the claimed count.
  std::stringstream ss;
  write_binary(ss, sample_records());
  std::string data = ss.str();
  const uint32_t lying = 0x80000000u;
  data[4] = static_cast<char>(lying & 0xff);
  data[5] = static_cast<char>((lying >> 8) & 0xff);
  data[6] = static_cast<char>((lying >> 16) & 0xff);
  data[7] = static_cast<char>((lying >> 24) & 0xff);
  std::stringstream lie(data);
  std::vector<Record> out;
  util::Status st = read_binary(lie, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput);
}

TEST(BinaryIo, RejectsTruncatedHeader) {
  std::stringstream ss("FTRC\x01");
  std::vector<Record> out;
  util::Status st = read_binary(ss, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::ErrorCode::kIoError);
}

TEST(Sinks, ChunkDeliveryMatchesRecordDelivery) {
  auto records = sample_records();
  VectorSink via_records, via_chunk;
  for (const auto& r : records) via_records.on_record(r);
  via_chunk.on_chunk(records.data(), records.size());
  ASSERT_EQ(via_chunk.size(), via_records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(via_chunk.records()[i], via_records.records()[i]);
  }
}

TEST(Sinks, CountingSinkCountsChunks) {
  auto records = sample_records();
  CountingSink c;
  c.on_chunk(records.data(), records.size());
  EXPECT_EQ(c.total(), records.size());
}

TEST(Sinks, VectorSinkCollects) {
  VectorSink sink;
  for (const auto& r : sample_records()) sink.on_record(r);
  EXPECT_EQ(sink.size(), sample_records().size());
}

TEST(Sinks, CountingSinkByType) {
  CountingSink sink;
  for (const auto& r : sample_records()) sink.on_record(r);
  EXPECT_EQ(sink.total(), sample_records().size());
  EXPECT_EQ(sink.accesses(), 3u);
  EXPECT_EQ(sink.calls(), 1u);
  EXPECT_EQ(sink.rets(), 1u);
  EXPECT_EQ(sink.checkpoints(), sample_records().size() - 5);
}

TEST(Sinks, NullSinkIsSilent) {
  NullSink sink;
  for (const auto& r : sample_records()) sink.on_record(r);
  SUCCEED();
}

}  // namespace
}  // namespace foray::trace
