#include "trace/io.h"

#include <ostream>
#include <sstream>

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

const char* kind_name(AccessKind k) {
  switch (k) {
    case AccessKind::Data: return "data";
    case AccessKind::Scalar: return "scalar";
    case AccessKind::System: return "system";
  }
  return "?";
}

// Binary layout: a 4-byte magic and a u32 record count, then per record
// one tag byte, (type << 4) | sub, and a fixed payload. All integers are
// little-endian.
//   Checkpoint: sub = checkpoint type;             payload loop id u32
//   Access:     sub = kind | 0x08 if a write;      payload instr u32,
//                                                  addr u32, size u8, 0
//   Call/Ret:   sub = 0;                           payload func id u32
constexpr char kMagic[4] = {'F', 'T', 'R', 'C'};

void put_u32(std::ostream& os, uint32_t v) {
  char b[4] = {static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
               static_cast<char>((v >> 16) & 0xff),
               static_cast<char>((v >> 24) & 0xff)};
  os.write(b, 4);
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

}  // namespace foray::trace
