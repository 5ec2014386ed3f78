#include "arch/bitstream.hpp"

#include <cstring>

#include "util/error.hpp"

namespace rsp::arch {

namespace {

constexpr char kMagic[4] = {'R', 'S', 'P', 'C'};
constexpr std::uint16_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 16;

/// Sequential bit packer/unpacker (LSB-first within the stream).
class BitCursor {
 public:
  explicit BitCursor(std::vector<std::uint8_t>& bytes, std::size_t bit_offset)
      : bytes_(bytes), bit_(bit_offset) {}

  void put(std::uint64_t value, int bits) {
    for (int i = 0; i < bits; ++i, ++bit_) {
      const std::size_t byte = bit_ / 8;
      if (byte >= bytes_.size()) bytes_.resize(byte + 1, 0);
      if ((value >> i) & 1u)
        bytes_[byte] = static_cast<std::uint8_t>(bytes_[byte] | (1u << (bit_ % 8)));
    }
  }

  std::uint64_t get(int bits) {
    std::uint64_t value = 0;
    for (int i = 0; i < bits; ++i, ++bit_) {
      const std::size_t byte = bit_ / 8;
      if (byte >= bytes_.size())
        throw Error("bitstream truncated while reading payload");
      if ((bytes_[byte] >> (bit_ % 8)) & 1u) value |= (1ull << i);
    }
    return value;
  }

 private:
  std::vector<std::uint8_t>& bytes_;
  std::size_t bit_;
};

void put_u16(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint16_t v) {
  bytes[at] = static_cast<std::uint8_t>(v & 0xff);
  bytes[at + 1] = static_cast<std::uint8_t>(v >> 8);
}

std::uint16_t get_u16(const std::vector<std::uint8_t>& bytes,
                      std::size_t at) {
  return static_cast<std::uint16_t>(bytes[at] | (bytes[at + 1] << 8));
}

// Field widths inside one packed word.
struct WordLayout {
  int select_bits;
  int total_bits;
};

WordLayout layout_for(const SharingPlan& plan) {
  const int select_bits = plan.switch_select_bits();
  return WordLayout{select_bits, ConfigCache::word_bits(select_bits)};
}

}  // namespace

std::vector<std::uint8_t> encode_bitstream(const ConfigCache& cache,
                                           const SharingPlan& plan) {
  const WordLayout layout = layout_for(plan);
  const ArraySpec& array = cache.array();

  std::vector<std::uint8_t> bytes(kHeaderBytes, 0);
  std::memcpy(bytes.data(), kMagic, 4);
  put_u16(bytes, 4, kVersion);
  put_u16(bytes, 6, static_cast<std::uint16_t>(array.rows));
  put_u16(bytes, 8, static_cast<std::uint16_t>(array.cols));
  put_u16(bytes, 10, static_cast<std::uint16_t>(cache.context_length()));
  put_u16(bytes, 12, static_cast<std::uint16_t>(layout.total_bits));
  put_u16(bytes, 14, 0);

  BitCursor cursor(bytes, kHeaderBytes * 8);
  for (int r = 0; r < array.rows; ++r)
    for (int c = 0; c < array.cols; ++c)
      for (int t = 0; t < cache.context_length(); ++t) {
        const ConfigWord& w = cache.word({r, c}, t);
        cursor.put(w.opcode, 4);
        cursor.put(w.src_a, 4);
        cursor.put(w.src_b, 4);
        if (layout.select_bits > 0)
          cursor.put(w.shared_select, layout.select_bits);
        cursor.put(static_cast<std::uint16_t>(w.immediate), 16);
        cursor.put(w.mem_access ? 1 : 0, 1);
      }
  return bytes;
}

ConfigCache decode_bitstream(const std::vector<std::uint8_t>& bytes,
                             const SharingPlan& plan) {
  if (bytes.size() < kHeaderBytes)
    throw Error("bitstream shorter than its header");
  if (std::memcmp(bytes.data(), kMagic, 4) != 0)
    throw Error("bitstream has bad magic");
  if (get_u16(bytes, 4) != kVersion)
    throw Error("unsupported bitstream version");

  ArraySpec array;
  array.rows = get_u16(bytes, 6);
  array.cols = get_u16(bytes, 8);
  const int length = get_u16(bytes, 10);
  array.validate();
  ConfigCache cache(array, length);

  const WordLayout layout = layout_for(plan);
  if (get_u16(bytes, 12) != static_cast<std::uint16_t>(layout.total_bits))
    throw Error("bitstream word width does not match the sharing plan");

  std::vector<std::uint8_t> payload(bytes);
  BitCursor cursor(payload, kHeaderBytes * 8);
  for (int r = 0; r < array.rows; ++r)
    for (int c = 0; c < array.cols; ++c)
      for (int t = 0; t < length; ++t) {
        ConfigWord& w = cache.word({r, c}, t);
        w.opcode = static_cast<std::uint8_t>(cursor.get(4));
        w.src_a = static_cast<std::uint8_t>(cursor.get(4));
        w.src_b = static_cast<std::uint8_t>(cursor.get(4));
        w.shared_select =
            layout.select_bits > 0
                ? static_cast<std::uint8_t>(cursor.get(layout.select_bits))
                : 0;
        w.immediate = static_cast<std::int16_t>(cursor.get(16));
        w.mem_access = cursor.get(1) != 0;
      }
  return cache;
}

std::size_t bitstream_size(const ConfigCache& cache,
                           const SharingPlan& plan) {
  const WordLayout layout = layout_for(plan);
  const std::size_t words = static_cast<std::size_t>(cache.array().num_pes()) *
                            static_cast<std::size_t>(cache.context_length());
  return kHeaderBytes + (words * layout.total_bits + 7) / 8;
}

}  // namespace rsp::arch
