// Little-endian field writers and a bounds-checked reader shared by the
// telemetry dump formats: the blame ledger (PPSSDALG), the snapshot
// stream (PPSSDSNP) and the flight dump (PPSSDFLT). Fields are written
// byte by byte, so the files are portable; strings are a u32 length
// followed by the bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace ppssd::telemetry {

using Bytes = std::vector<unsigned char>;

// Out of line (byte_io.cpp): inlined into a caller's fresh buffer,
// GCC 12 reports false -Wstringop-overflow errors on the vector growth.
/// The 8 bytes of a format's magic.
void put_magic(Bytes& b, const char* magic);
void put_u8(Bytes& b, std::uint8_t v);
void put_u16(Bytes& b, std::uint16_t v);
void put_u32(Bytes& b, std::uint32_t v);
void put_u64(Bytes& b, std::uint64_t v);
void put_f64(Bytes& b, double v);
void put_str(Bytes& b, const std::string& s);

/// Load all of `path` into `bytes`; false (with *error set) when it
/// cannot be opened or does not start with the 8-byte `magic` (`what`
/// names the format in the message).
bool load_file(const std::string& path, const char* magic, const char* what,
               std::string& bytes, std::string* error);

/// Reads fields back in order. A read past the end returns zero and
/// clears `ok` for good, so a loader checks once per record.
struct ByteReader {
  const unsigned char* p;
  std::size_t left;
  bool ok = true;

  template <typename T>
  T le() {
    if (left < sizeof(T)) {
      ok = false;
      return T{};
    }
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | static_cast<T>(static_cast<T>(p[i]) << (8 * i)));
    }
    p += sizeof(T);
    left -= sizeof(T);
    return v;
  }
  std::uint8_t u8() { return le<std::uint8_t>(); }
  std::uint16_t u16() { return le<std::uint16_t>(); }
  std::uint32_t u32() { return le<std::uint32_t>(); }
  std::uint64_t u64() { return le<std::uint64_t>(); }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (!ok || left < n) {
      ok = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p), n);
    p += n;
    left -= n;
    return s;
  }
  /// The next u32 without consuming it (0 when fewer than 4 bytes remain).
  [[nodiscard]] std::uint32_t peek_u32() const {
    return left < 4 ? 0 : ByteReader{p, left}.u32();
  }
};

}  // namespace ppssd::telemetry
