#include "telemetry/byte_io.h"

#include <fstream>
#include <iterator>

namespace ppssd::telemetry {

namespace {
template <typename T>
void put_le(Bytes& b, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    b.push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
}
}  // namespace

void put_magic(Bytes& b, const char* magic) {
  b.insert(b.end(), magic, magic + 8);
}
void put_u8(Bytes& b, std::uint8_t v) { b.push_back(v); }
void put_u16(Bytes& b, std::uint16_t v) { put_le(b, v); }
void put_u32(Bytes& b, std::uint32_t v) { put_le(b, v); }
void put_u64(Bytes& b, std::uint64_t v) { put_le(b, v); }
void put_f64(Bytes& b, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(b, bits);
}
void put_str(Bytes& b, const std::string& s) {
  put_u32(b, static_cast<std::uint32_t>(s.size()));
  b.insert(b.end(), s.begin(), s.end());
}

bool load_file(const std::string& path, const char* magic, const char* what,
               std::string& bytes, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error) *error = "cannot open " + path;
    return false;
  }
  bytes.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  if (bytes.size() < 8 || std::memcmp(bytes.data(), magic, 8) != 0) {
    if (error) *error = std::string("not a ") + what + " (bad magic)";
    return false;
  }
  return true;
}

}  // namespace ppssd::telemetry
