#include "arch/config_cache.hpp"

#include <sstream>

#include "util/error.hpp"

namespace rsp::arch {

ConfigCache::ConfigCache(const ArraySpec& array, int context_length)
    : array_(array), context_length_(context_length) {
  array_.validate();
  if (context_length <= 0)
    throw InvalidArgumentError("context length must be positive");
  words_.assign(static_cast<std::size_t>(array_.num_pes()) *
                    static_cast<std::size_t>(context_length_),
                ConfigWord{});
}

ConfigWord& ConfigCache::word(PeCoord pe, int cycle) {
  if (!array_.contains(pe)) throw InvalidArgumentError("PE out of range");
  if (cycle < 0 || cycle >= context_length_)
    throw InvalidArgumentError("cycle out of range");
  return words_[static_cast<std::size_t>(array_.linear(pe)) *
                    static_cast<std::size_t>(context_length_) +
                static_cast<std::size_t>(cycle)];
}

const ConfigWord& ConfigCache::word(PeCoord pe, int cycle) const {
  return const_cast<ConfigCache*>(this)->word(pe, cycle);
}

int ConfigCache::word_bits(int shared_select_bits) {
  constexpr int kOpcodeBits = 4;
  constexpr int kSrcBits = 4;
  constexpr int kImmBits = 16;
  constexpr int kMemBits = 1;
  return kOpcodeBits + 2 * kSrcBits + shared_select_bits + kImmBits + kMemBits;
}

std::int64_t ConfigCache::total_bits(const SharingPlan& plan) const {
  return static_cast<std::int64_t>(word_bits(plan.switch_select_bits())) *
         array_.num_pes() * context_length_;
}

std::string ConfigCache::summary() const {
  std::ostringstream os;
  os << array_.rows << "x" << array_.cols << " cache, " << context_length_
     << " words/PE";
  return os.str();
}

}  // namespace rsp::arch
