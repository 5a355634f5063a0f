#include "trace/io.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/fault.h"
#include "util/strings.h"

namespace foray::trace {

namespace {

const char* cp_name(CheckpointType t) {
  switch (t) {
    case CheckpointType::LoopEnter: return "loop_enter";
    case CheckpointType::BodyBegin: return "body_begin";
    case CheckpointType::BodyEnd: return "body_end";
    case CheckpointType::LoopExit: return "loop_exit";
  }
  return "?";
}

bool parse_cp(std::string_view s, CheckpointType* out) {
  if (s == "loop_enter") *out = CheckpointType::LoopEnter;
  else if (s == "body_begin") *out = CheckpointType::BodyBegin;
  else if (s == "body_end") *out = CheckpointType::BodyEnd;
  else if (s == "loop_exit") *out = CheckpointType::LoopExit;
  else return false;
  return true;
}

const char* kind_name(AccessKind k) {
  switch (k) {
    case AccessKind::Data: return "data";
    case AccessKind::Scalar: return "scalar";
    case AccessKind::System: return "system";
  }
  return "?";
}

bool parse_kind(std::string_view s, AccessKind* out) {
  if (s == "data") *out = AccessKind::Data;
  else if (s == "scalar") *out = AccessKind::Scalar;
  else if (s == "system") *out = AccessKind::System;
  else return false;
  return true;
}

}  // namespace

std::string record_to_text(const Record& r) {
  std::ostringstream os;
  switch (r.type()) {
    case RecordType::Checkpoint:
      os << "Checkpoint: " << cp_name(r.cp()) << " " << r.loop_id();
      break;
    case RecordType::Access:
      os << "Instr: " << util::to_hex(r.instr())
         << " addr: " << util::to_hex(r.addr()) << " "
         << (r.is_write() ? "wr" : "rd") << " " << static_cast<int>(r.size())
         << " " << kind_name(r.kind());
      break;
    case RecordType::Call:
      os << "Call: " << r.func_id();
      break;
    case RecordType::Ret:
      os << "Ret: " << r.func_id();
      break;
  }
  return os.str();
}

void write_text(std::ostream& os, const std::vector<Record>& records) {
  for (const Record& r : records) os << record_to_text(r) << '\n';
}

util::Status read_text(std::istream& is, std::vector<Record>* out) {
  std::string line;
  int lineno = 0;
  const auto malformed = [&](const char* what) {
    return util::Status::failure(util::ErrorCode::kInvalidInput, "trace-text",
                                 lineno,
                                 std::string(what) + " record: " + line);
  };
  while (std::getline(is, line)) {
    ++lineno;
    auto toks = util::split_ws(line);
    if (toks.empty()) continue;
    if (toks[0] == "Checkpoint:") {
      CheckpointType cp;
      int64_t id;
      if (toks.size() != 3 || !parse_cp(toks[1], &cp) ||
          !util::parse_i64(toks[2], &id)) {
        return malformed("malformed checkpoint");
      }
      out->push_back(Record::checkpoint(cp, static_cast<int32_t>(id)));
    } else if (toks[0] == "Instr:") {
      uint64_t instr, addr;
      int64_t size;
      AccessKind kind;
      if (toks.size() != 7 || !util::parse_hex(toks[1], &instr) ||
          toks[2] != "addr:" || !util::parse_hex(toks[3], &addr) ||
          (toks[4] != "wr" && toks[4] != "rd") ||
          !util::parse_i64(toks[5], &size) || !parse_kind(toks[6], &kind)) {
        return malformed("malformed access");
      }
      out->push_back(Record::access(static_cast<uint32_t>(instr),
                                    static_cast<uint32_t>(addr),
                                    static_cast<uint8_t>(size),
                                    toks[4] == "wr", kind));
    } else if (toks[0] == "Call:" || toks[0] == "Ret:") {
      int64_t id;
      if (toks.size() != 2 || !util::parse_i64(toks[1], &id)) {
        return malformed("malformed call/ret");
      }
      out->push_back(toks[0] == "Call:"
                         ? Record::call(static_cast<int32_t>(id))
                         : Record::ret(static_cast<int32_t>(id)));
    } else {
      return malformed("unknown");
    }
  }
  return util::Status();
}

// Binary layout: 1 tag byte, then a fixed payload per type.
//   Checkpoint: tag = 0x00 | cp(2 bits << 2) ... use tag byte: (type<<4)|sub
//   Access:     tag, instr u32, addr u32, size u8, flags u8
//   Call/Ret:   tag, func u32

namespace {

void put_u32(std::ostream& os, uint32_t v) {
  char b[4] = {static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
               static_cast<char>((v >> 16) & 0xff),
               static_cast<char>((v >> 24) & 0xff)};
  os.write(b, 4);
}

bool get_u32(std::istream& is, uint32_t* v) {
  unsigned char b[4];
  if (!is.read(reinterpret_cast<char*>(b), 4)) return false;
  *v = static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
       (static_cast<uint32_t>(b[2]) << 16) |
       (static_cast<uint32_t>(b[3]) << 24);
  return true;
}

constexpr char kMagic[4] = {'F', 'T', 'R', 'C'};

}  // namespace

void write_binary(std::ostream& os, const std::vector<Record>& records) {
  write_binary(os, records.data(), records.size());
}

void write_binary(std::ostream& os, const Record* records, size_t count) {
  os.write(kMagic, 4);
  put_u32(os, static_cast<uint32_t>(count));
  for (size_t i = 0; i < count; ++i) {
    const Record& r = records[i];
    uint8_t tag = static_cast<uint8_t>(r.type()) << 4;
    switch (r.type()) {
      case RecordType::Checkpoint:
        tag |= static_cast<uint8_t>(r.cp());
        os.put(static_cast<char>(tag));
        put_u32(os, static_cast<uint32_t>(r.loop_id()));
        break;
      case RecordType::Access:
        tag |= static_cast<uint8_t>(r.kind()) |
               (r.is_write() ? 0x08 : 0x00);
        os.put(static_cast<char>(tag));
        put_u32(os, r.instr());
        put_u32(os, r.addr());
        os.put(static_cast<char>(r.size()));
        os.put(0);  // reserved
        break;
      case RecordType::Call:
      case RecordType::Ret:
        os.put(static_cast<char>(tag));
        put_u32(os, static_cast<uint32_t>(r.func_id()));
        break;
    }
  }
}

namespace {

util::Status bad_input(const std::string& msg) {
  return util::Status::failure(util::ErrorCode::kInvalidInput, "trace-io", 0,
                               msg);
}

util::Status io_error(const std::string& msg) {
  return util::Status::failure(util::ErrorCode::kIoError, "trace-io", 0, msg);
}

/// Smallest on-disk record (Checkpoint/Call/Ret: tag + u32). A header
/// claiming more records than `remaining / kMinRecordBytes` is lying.
constexpr uint64_t kMinRecordBytes = 5;

/// When the stream is not seekable (so the remaining size is unknowable),
/// the up-front reserve is capped here and the vector grows normally past
/// it — a hostile count then costs amortized growth, not a 20 GiB reserve.
constexpr uint32_t kUncheckedReserveCap = 1u << 20;

}  // namespace

util::Status read_binary(std::istream& is, std::vector<Record>* out) {
  char magic[4];
  if (!is.read(magic, 4) || std::string_view(magic, 4) !=
                                std::string_view(kMagic, 4)) {
    return bad_input("bad trace magic");
  }
  if (util::fault::enabled() &&
      util::fault::should_fail("trace.chunk.corrupt")) {
    return io_error("injected corrupt trace chunk");
  }
  uint32_t count = 0;
  if (!get_u32(is, &count)) {
    return io_error("truncated trace header");
  }
  // Validate the claimed count against the bytes actually present before
  // sizing any allocation from it (oversized-header hardening).
  uint32_t reserve_count = std::min(count, kUncheckedReserveCap);
  const std::istream::pos_type body = is.tellg();
  if (body != std::istream::pos_type(-1)) {
    is.seekg(0, std::ios::end);
    const std::istream::pos_type end = is.tellg();
    is.seekg(body);
    if (end != std::istream::pos_type(-1) && is) {
      const uint64_t remaining = static_cast<uint64_t>(end - body);
      if (static_cast<uint64_t>(count) * kMinRecordBytes > remaining) {
        return bad_input("trace header claims " + std::to_string(count) +
                         " records but only " + std::to_string(remaining) +
                         " bytes follow");
      }
      reserve_count = count;
    }
  }
  is.clear();  // tellg(-1) on non-seekable streams sets failbit
  out->reserve(out->size() + reserve_count);
  for (uint32_t i = 0; i < count; ++i) {
    const std::string at = " (record " + std::to_string(i) + " of " +
                           std::to_string(count) + ")";
    int tag_c = is.get();
    if (tag_c < 0) {
      return io_error("truncated trace body" + at);
    }
    uint8_t tag = static_cast<uint8_t>(tag_c);
    auto type = static_cast<RecordType>(tag >> 4);
    switch (type) {
      case RecordType::Checkpoint: {
        uint32_t id;
        if (!get_u32(is, &id)) {
          return io_error("truncated checkpoint record" + at);
        }
        out->push_back(Record::checkpoint(
            static_cast<CheckpointType>(tag & 0x03),
            static_cast<int32_t>(id)));
        break;
      }
      case RecordType::Access: {
        uint32_t instr, addr;
        if (!get_u32(is, &instr) || !get_u32(is, &addr)) {
          return io_error("truncated access record" + at);
        }
        int size = is.get();
        int reserved = is.get();
        if (size < 0 || reserved < 0) {
          return io_error("truncated access record" + at);
        }
        out->push_back(Record::access(instr, addr,
                                      static_cast<uint8_t>(size),
                                      (tag & 0x08) != 0,
                                      static_cast<AccessKind>(tag & 0x03)));
        break;
      }
      case RecordType::Call:
      case RecordType::Ret: {
        uint32_t id;
        if (!get_u32(is, &id)) {
          return io_error("truncated call/ret record" + at);
        }
        out->push_back(type == RecordType::Call
                           ? Record::call(static_cast<int32_t>(id))
                           : Record::ret(static_cast<int32_t>(id)));
        break;
      }
      default:
        return bad_input("unknown record tag " + std::to_string(tag) + at);
    }
  }
  return util::Status();
}

}  // namespace foray::trace
