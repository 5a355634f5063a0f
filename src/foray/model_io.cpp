#include "foray/model_io.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

namespace foray::core {

// Layout (all integers little-endian):
//   magic   "FMDL"
//   u32     format version (kModelFormatVersion)
//   u32     reference count
//   per reference:
//     u32   instr
//     u32   n       (loop nest depth; sizes loop_path/trips/coefs/known)
//     u32   m       (innermost iterators in the partial expression, <= n)
//     u8    flags   (bit0 analyzable, bit1 footprint_saturated,
//                    bit2 has_read, bit3 has_write)
//     u8    access_size
//     u64   const_term (two's complement)
//     u64   exec_count
//     u64   footprint
//     n x u32  loop_path (site ids, two's complement)
//     n x u64  trips     (two's complement)
//     n x u64  coefs     (two's complement)
//     n x u8   known

namespace {

constexpr char kMagic[4] = {'F', 'M', 'D', 'L'};

/// Fixed bytes of one reference record (n == 0). A count claiming more
/// records than remaining/kMinRefBytes is lying.
constexpr uint64_t kMinRefBytes = 4 + 4 + 4 + 1 + 1 + 8 + 8 + 8;

/// Loop nests deeper than this never come out of the extractor; a header
/// claiming one is hostile, not merely truncated.
constexpr uint32_t kMaxNestDepth = 4096;

/// Reserve cap when the stream is not seekable and the count cannot be
/// validated against the remaining bytes (mirrors trace/io.cpp).
constexpr uint32_t kUncheckedReserveCap = 1u << 16;

void put_u32(std::ostream& os, uint32_t v) {
  char b[4] = {static_cast<char>(v & 0xff),
               static_cast<char>((v >> 8) & 0xff),
               static_cast<char>((v >> 16) & 0xff),
               static_cast<char>((v >> 24) & 0xff)};
  os.write(b, 4);
}

void put_u64(std::ostream& os, uint64_t v) {
  put_u32(os, static_cast<uint32_t>(v & 0xffffffffu));
  put_u32(os, static_cast<uint32_t>(v >> 32));
}

void put_i64(std::ostream& os, int64_t v) {
  put_u64(os, static_cast<uint64_t>(v));
}

bool get_u32(std::istream& is, uint32_t* v) {
  unsigned char b[4];
  if (!is.read(reinterpret_cast<char*>(b), 4)) return false;
  *v = static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
       (static_cast<uint32_t>(b[2]) << 16) |
       (static_cast<uint32_t>(b[3]) << 24);
  return true;
}

bool get_u64(std::istream& is, uint64_t* v) {
  uint32_t lo = 0, hi = 0;
  if (!get_u32(is, &lo) || !get_u32(is, &hi)) return false;
  *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
  return true;
}

bool get_i64(std::istream& is, int64_t* v) {
  uint64_t u = 0;
  if (!get_u64(is, &u)) return false;
  *v = static_cast<int64_t>(u);
  return true;
}

util::Status bad_input(const std::string& msg) {
  return util::Status::failure(util::ErrorCode::kInvalidInput, "model-io", 0,
                               msg);
}

util::Status io_error(const std::string& msg) {
  return util::Status::failure(util::ErrorCode::kIoError, "model-io", 0,
                               msg);
}

}  // namespace

void write_model(std::ostream& os, const ForayModel& model) {
  os.write(kMagic, 4);
  put_u32(os, kModelFormatVersion);
  put_u32(os, static_cast<uint32_t>(model.refs.size()));
  for (const ModelReference& ref : model.refs) {
    const uint32_t n = static_cast<uint32_t>(ref.loop_path.size());
    put_u32(os, ref.instr);
    put_u32(os, n);
    put_u32(os, static_cast<uint32_t>(ref.fn.m));
    const uint8_t flags =
        static_cast<uint8_t>((ref.fn.analyzable ? 1u : 0u) |
                             (ref.footprint_saturated ? 2u : 0u) |
                             (ref.has_read ? 4u : 0u) |
                             (ref.has_write ? 8u : 0u));
    os.put(static_cast<char>(flags));
    os.put(static_cast<char>(ref.access_size));
    put_i64(os, ref.fn.const_term);
    put_u64(os, ref.exec_count);
    put_u64(os, ref.footprint);
    for (const int site : ref.loop_path) {
      put_u32(os, static_cast<uint32_t>(site));
    }
    for (const int64_t t : ref.trips) put_i64(os, t);
    for (const int64_t c : ref.fn.coefs) put_i64(os, c);
    for (const bool k : ref.fn.known) os.put(k ? 1 : 0);
  }
}

std::string model_to_bytes(const ForayModel& model) {
  std::ostringstream os;
  write_model(os, model);
  return os.str();
}

util::Status read_model(std::istream& is, ForayModel* out) {
  *out = ForayModel();
  char magic[4];
  if (!is.read(magic, 4) ||
      std::string_view(magic, 4) != std::string_view(kMagic, 4)) {
    return bad_input("bad model magic");
  }
  uint32_t version = 0;
  if (!get_u32(is, &version)) return io_error("truncated model header");
  if (version != kModelFormatVersion) {
    // A stale (or future) format is recomputable input, not an I/O fault:
    // the cache layer drops the entry and rebuilds the model.
    return bad_input("unsupported model format version " +
                     std::to_string(version) + " (this build reads " +
                     std::to_string(kModelFormatVersion) + ")");
  }
  uint32_t count = 0;
  if (!get_u32(is, &count)) return io_error("truncated model header");

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
      if (static_cast<uint64_t>(count) * kMinRefBytes > remaining) {
        return bad_input("model header claims " + std::to_string(count) +
                         " references but only " + std::to_string(remaining) +
                         " bytes follow");
      }
      reserve_count = count;
    }
  }
  is.clear();  // tellg(-1) on non-seekable streams sets failbit

  ForayModel model;
  model.refs.reserve(reserve_count);
  for (uint32_t i = 0; i < count; ++i) {
    const std::string at = " (reference " + std::to_string(i) + " of " +
                           std::to_string(count) + ")";
    ModelReference ref;
    uint32_t n = 0, m = 0;
    if (!get_u32(is, &ref.instr) || !get_u32(is, &n) || !get_u32(is, &m)) {
      return io_error("truncated reference header" + at);
    }
    if (n > kMaxNestDepth) {
      return bad_input("implausible loop nest depth " + std::to_string(n) +
                       at);
    }
    if (m > n) {
      // emitted_loop_path()/emitted_coefs() index loop_path by m; a lying
      // m would read out of bounds downstream, so it dies here.
      return bad_input("partial-expression size " + std::to_string(m) +
                       " exceeds nest depth " + std::to_string(n) + at);
    }
    const int flags = is.get();
    const int access_size = is.get();
    if (flags < 0 || access_size < 0 ||
        !get_i64(is, &ref.fn.const_term) || !get_u64(is, &ref.exec_count) ||
        !get_u64(is, &ref.footprint)) {
      return io_error("truncated reference record" + at);
    }
    if ((flags & ~0x0f) != 0) {
      return bad_input("unknown reference flags " + std::to_string(flags) +
                       at);
    }
    ref.fn.analyzable = (flags & 1) != 0;
    ref.footprint_saturated = (flags & 2) != 0;
    ref.has_read = (flags & 4) != 0;
    ref.has_write = (flags & 8) != 0;
    ref.access_size = static_cast<uint8_t>(access_size);
    ref.fn.m = static_cast<int>(m);
    ref.loop_path.resize(n);
    ref.trips.resize(n);
    ref.fn.coefs.resize(n);
    ref.fn.known.resize(n);
    for (uint32_t j = 0; j < n; ++j) {
      uint32_t site = 0;
      if (!get_u32(is, &site)) {
        return io_error("truncated loop path" + at);
      }
      ref.loop_path[j] = static_cast<int>(site);
    }
    for (uint32_t j = 0; j < n; ++j) {
      if (!get_i64(is, &ref.trips[j])) {
        return io_error("truncated trip counts" + at);
      }
    }
    for (uint32_t j = 0; j < n; ++j) {
      if (!get_i64(is, &ref.fn.coefs[j])) {
        return io_error("truncated coefficients" + at);
      }
    }
    for (uint32_t j = 0; j < n; ++j) {
      const int k = is.get();
      if (k < 0) return io_error("truncated known flags" + at);
      if (k > 1) {
        return bad_input("known flag out of range" + at);
      }
      ref.fn.known[j] = k != 0;
    }
    model.refs.push_back(std::move(ref));
  }
  // Trailing bytes mean the producer and this reader disagree about the
  // layout — reject rather than silently ignore half the file.
  if (is.peek() != std::istream::traits_type::eof()) {
    return bad_input("trailing bytes after the last reference");
  }
  *out = std::move(model);
  return util::Status();
}

util::Status model_from_bytes(std::string_view bytes, ForayModel* out) {
  std::istringstream is{std::string(bytes)};
  return read_model(is, out);
}

}  // namespace foray::core
