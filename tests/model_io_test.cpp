// The FMDL model serializer (foray/model_io.h): byte-exact round trips
// for real extracted models, and a mutation corpus — truncations at
// every interesting offset, flipped magic, stale versions, lying counts
// and out-of-range fields must all come back as a clean classified
// Status, never a crash or a silently wrong model.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "foray/model_io.h"
#include "foray/pipeline.h"
#include "oracle.h"
#include "util/status.h"

namespace foray::core {
namespace {

const char* kNested =
    "int a[256];\n"
    "int main(void) {\n"
    "  for (int r = 0; r < 40; r++)\n"
    "    for (int i = 0; i < 256; i++) a[i] = a[i] + r;\n"
    "  return a[0] & 255;\n"
    "}\n";

const char* kPointerWalk =
    "char buf[4096];\n"
    "int main(void) {\n"
    "  char *p = buf;\n"
    "  int t = 0;\n"
    "  while (t < 30) {\n"
    "    t++;\n"
    "    p += 64;\n"
    "    for (int i = 0; i < 32; i++) *p++ = (i + t) % 256;\n"
    "  }\n"
    "  return 0;\n"
    "}\n";

ForayModel extract(const char* source) {
  PipelineOptions opts;
  opts.filter.min_exec = 1;
  opts.filter.min_locations = 1;
  PipelineResult res = oracle::run_pipeline(source, opts);
  EXPECT_TRUE(res.status.ok()) << res.status.message();
  EXPECT_TRUE(res.model_built);
  EXPECT_FALSE(res.model.refs.empty());
  return res.model;
}

/// Every mutation must land in one of the two reader failure classes,
/// and must reset the output model instead of leaving partial refs.
void expect_clean_failure(const std::string& bytes, const char* what) {
  ForayModel out;
  out.refs.resize(3);  // must be cleared even on failure
  util::Status st = model_from_bytes(bytes, &out);
  ASSERT_FALSE(st.ok()) << what;
  EXPECT_TRUE(st.code() == util::ErrorCode::kInvalidInput ||
              st.code() == util::ErrorCode::kIoError)
      << what << ": classified as " << st.code_name();
  EXPECT_EQ(st.phase(), "model-io") << what;
  EXPECT_FALSE(st.message().empty()) << what;
  EXPECT_TRUE(out.refs.empty()) << what;
}

uint32_t get_u32_at(const std::string& bytes, size_t off) {
  return static_cast<uint32_t>(static_cast<uint8_t>(bytes[off])) |
         static_cast<uint32_t>(static_cast<uint8_t>(bytes[off + 1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(bytes[off + 2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(bytes[off + 3])) << 24;
}

void set_u32_at(std::string* bytes, size_t off, uint32_t v) {
  (*bytes)[off] = static_cast<char>(v & 0xff);
  (*bytes)[off + 1] = static_cast<char>((v >> 8) & 0xff);
  (*bytes)[off + 2] = static_cast<char>((v >> 16) & 0xff);
  (*bytes)[off + 3] = static_cast<char>((v >> 24) & 0xff);
}

// Layout constants (see model_io.cpp): magic(4) version(4) count(4),
// then records. First record: instr(4) n(4) m(4) flags(1)...
constexpr size_t kVersionOff = 4;
constexpr size_t kCountOff = 8;
constexpr size_t kHeaderBytes = 12;
constexpr size_t kRefNOff = kHeaderBytes + 4;
constexpr size_t kRefMOff = kHeaderBytes + 8;
constexpr size_t kRefFlagsOff = kHeaderBytes + 12;

TEST(ModelIo, RoundTripIsByteExact) {
  for (const char* source : {kNested, kPointerWalk}) {
    const ForayModel model = extract(source);
    const std::string bytes = model_to_bytes(model);
    ASSERT_GE(bytes.size(), kHeaderBytes);

    ForayModel loaded;
    util::Status st = model_from_bytes(bytes, &loaded);
    ASSERT_TRUE(st.ok()) << st.message();
    // Serializing the loaded model must reproduce the input bytes — the
    // property the content-addressed cache verifies entries by.
    EXPECT_EQ(model_to_bytes(loaded), bytes);

    ASSERT_EQ(loaded.refs.size(), model.refs.size());
    for (size_t i = 0; i < model.refs.size(); ++i) {
      const ModelReference& a = model.refs[i];
      const ModelReference& b = loaded.refs[i];
      EXPECT_EQ(a.instr, b.instr) << i;
      EXPECT_EQ(a.loop_path, b.loop_path) << i;
      EXPECT_EQ(a.trips, b.trips) << i;
      EXPECT_EQ(a.exec_count, b.exec_count) << i;
      EXPECT_EQ(a.footprint, b.footprint) << i;
      EXPECT_EQ(a.footprint_saturated, b.footprint_saturated) << i;
      EXPECT_EQ(a.access_size, b.access_size) << i;
      EXPECT_EQ(a.has_read, b.has_read) << i;
      EXPECT_EQ(a.has_write, b.has_write) << i;
      EXPECT_EQ(a.fn.const_term, b.fn.const_term) << i;
      EXPECT_EQ(a.fn.coefs, b.fn.coefs) << i;
      EXPECT_EQ(a.fn.known, b.fn.known) << i;
      EXPECT_EQ(a.fn.m, b.fn.m) << i;
      EXPECT_EQ(a.fn.analyzable, b.fn.analyzable) << i;
    }
  }
}

TEST(ModelIo, EmptyModelRoundTrips) {
  const std::string bytes = model_to_bytes(ForayModel{});
  EXPECT_EQ(bytes.size(), kHeaderBytes);
  ForayModel loaded;
  ASSERT_TRUE(model_from_bytes(bytes, &loaded).ok());
  EXPECT_TRUE(loaded.refs.empty());
  EXPECT_EQ(model_to_bytes(loaded), bytes);
}

TEST(ModelIo, TruncationAtEveryInterestingOffset) {
  const std::string bytes = model_to_bytes(extract(kNested));
  std::vector<size_t> cuts;
  // Every header prefix, then cuts through the record area.
  for (size_t n = 0; n <= kHeaderBytes; ++n) cuts.push_back(n);
  cuts.push_back(kHeaderBytes + 1);
  cuts.push_back((kHeaderBytes + bytes.size()) / 2);
  cuts.push_back(bytes.size() - 1);
  for (size_t n : cuts) {
    ASSERT_LT(n, bytes.size());
    SCOPED_TRACE("truncated to " + std::to_string(n) + " bytes");
    expect_clean_failure(bytes.substr(0, n), "truncation");
  }
}

TEST(ModelIo, FlippedMagicBytesAreInvalidInput) {
  const std::string bytes = model_to_bytes(extract(kNested));
  for (size_t i = 0; i < 4; ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x20);
    ForayModel out;
    util::Status st = model_from_bytes(mutated, &out);
    ASSERT_FALSE(st.ok()) << "magic byte " << i;
    EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput) << i;
  }
}

TEST(ModelIo, StaleVersionIsInvalidInputAndNamesBothVersions) {
  const std::string bytes = model_to_bytes(extract(kNested));
  for (uint32_t version : {0u, kModelFormatVersion + 1, 0xffffffffu}) {
    std::string mutated = bytes;
    set_u32_at(&mutated, kVersionOff, version);
    ForayModel out;
    util::Status st = model_from_bytes(mutated, &out);
    ASSERT_FALSE(st.ok()) << version;
    EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput) << version;
    // The message must say what was found and what this build reads —
    // that is what makes a stale cache entry diagnosable.
    EXPECT_NE(st.message().find("model format version"), std::string::npos);
    EXPECT_NE(st.message().find(std::to_string(kModelFormatVersion)),
              std::string::npos);
  }
}

TEST(ModelIo, LyingReferenceCounts) {
  const std::string bytes = model_to_bytes(extract(kNested));
  const uint32_t count = get_u32_at(bytes, kCountOff);
  ASSERT_GE(count, 1u);

  // One more reference than the body holds: truncation or implausible
  // count, never a walk off the end.
  std::string one_extra = bytes;
  set_u32_at(&one_extra, kCountOff, count + 1);
  expect_clean_failure(one_extra, "count + 1");

  // One fewer: the reader must reject the trailing bytes rather than
  // silently return a shorter model.
  std::string one_less = bytes;
  set_u32_at(&one_less, kCountOff, count - 1);
  {
    ForayModel out;
    util::Status st = model_from_bytes(one_less, &out);
    if (count == 1) {
      // A 0-count model with trailing bytes.
      ASSERT_FALSE(st.ok());
    } else {
      ASSERT_FALSE(st.ok()) << "count - 1 accepted";
    }
    EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput);
    EXPECT_NE(st.message().find("trailing"), std::string::npos);
  }

  // An absurd count must be rejected by the plausibility check before
  // any allocation is sized from it.
  std::string absurd = bytes;
  set_u32_at(&absurd, kCountOff, 0x80000000u);
  ForayModel out;
  util::Status st = model_from_bytes(absurd, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput);
}

TEST(ModelIo, OutOfRangeFieldsAreInvalidInput) {
  const std::string bytes = model_to_bytes(extract(kNested));

  // m > n would index loop_path out of bounds downstream.
  std::string bad_m = bytes;
  const uint32_t n = get_u32_at(bytes, kRefNOff);
  set_u32_at(&bad_m, kRefMOff, n + 1);
  {
    ForayModel out;
    util::Status st = model_from_bytes(bad_m, &out);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput);
    EXPECT_NE(st.message().find("reference 0"), std::string::npos);
  }

  // A nest depth no extractor produces is hostile, not truncated. The
  // record then continues with garbage, so any classified failure in
  // either class is fine — but it must mention the bad depth first.
  std::string deep = bytes;
  set_u32_at(&deep, kRefNOff, 1u << 20);
  {
    ForayModel out;
    util::Status st = model_from_bytes(deep, &out);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput);
  }

  // Unknown flag bits mean a layout this reader does not understand.
  std::string bad_flags = bytes;
  bad_flags[kRefFlagsOff] = static_cast<char>(
      static_cast<uint8_t>(bad_flags[kRefFlagsOff]) | 0x80);
  {
    ForayModel out;
    util::Status st = model_from_bytes(bad_flags, &out);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput);
  }
}

TEST(ModelIo, EveryByteFlipFailsCleanlyOrRoundTrips) {
  // The blanket fuzz pass: flipping any single byte must either be
  // detected (clean classified failure) or yield a model that
  // re-serializes to exactly the mutated bytes — never a crash, and
  // never a model that disagrees with its own serialization.
  const std::string bytes = model_to_bytes(extract(kPointerWalk));
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xff);
    ForayModel out;
    util::Status st = model_from_bytes(mutated, &out);
    if (st.ok()) {
      EXPECT_EQ(model_to_bytes(out), mutated) << "byte " << i;
    } else {
      EXPECT_TRUE(st.code() == util::ErrorCode::kInvalidInput ||
                  st.code() == util::ErrorCode::kIoError)
          << "byte " << i << ": " << st.code_name();
    }
  }
}

}  // namespace
}  // namespace foray::core
