// Bitstream serialisation and VCD export.
#include <gtest/gtest.h>

#include "arch/bitstream.hpp"
#include "arch/presets.hpp"
#include "kernels/registry.hpp"
#include "sched/mapper.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine.hpp"
#include "sim/vcd.hpp"
#include "util/error.hpp"

namespace rsp {
namespace {

sched::ConfigurationContext context_for(const std::string& kernel,
                                        const arch::Architecture& a) {
  const kernels::Workload w = kernels::find_workload(kernel);
  const sched::LoopPipeliner mapper(w.array);
  const sched::ContextScheduler scheduler;
  return scheduler.schedule(mapper.map(w.kernel, w.hints, w.reduction), a);
}

// -------------------------------------------------------------- bitstream
class BitstreamRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(BitstreamRoundTrip, EncodeDecodeIsIdentity) {
  const arch::Architecture a =
      arch::standard_suite()[static_cast<std::size_t>(GetParam())];
  const sched::ConfigurationContext ctx = context_for("FFT", a);
  const arch::ConfigCache original = ctx.encode();
  const auto bytes = arch::encode_bitstream(original, a.sharing);
  EXPECT_EQ(bytes.size(), arch::bitstream_size(original, a.sharing));
  const arch::ConfigCache decoded = arch::decode_bitstream(bytes, a.sharing);
  ASSERT_EQ(decoded.context_length(), original.context_length());
  for (int r = 0; r < a.array.rows; ++r)
    for (int c = 0; c < a.array.cols; ++c)
      for (int t = 0; t < original.context_length(); ++t)
        EXPECT_TRUE(decoded.word({r, c}, t) == original.word({r, c}, t))
            << "PE(" << r << "," << c << ") cycle " << t;
}

INSTANTIATE_TEST_SUITE_P(AllArchs, BitstreamRoundTrip,
                         ::testing::Range(0, 9));

TEST(Bitstream, HeaderValidation) {
  const arch::Architecture a = arch::rs_architecture(1);
  const sched::ConfigurationContext ctx = context_for("MVM", a);
  auto bytes = arch::encode_bitstream(ctx.encode(), a.sharing);

  auto corrupted = bytes;
  corrupted[0] = 'X';
  EXPECT_THROW(arch::decode_bitstream(corrupted, a.sharing), Error);

  auto truncated = bytes;
  truncated.resize(8);
  EXPECT_THROW(arch::decode_bitstream(truncated, a.sharing), Error);

  truncated = bytes;
  truncated.resize(bytes.size() / 2);
  EXPECT_THROW(arch::decode_bitstream(truncated, a.sharing), Error);

  // Wrong sharing plan → word width mismatch.
  EXPECT_THROW(
      arch::decode_bitstream(bytes, arch::rs_architecture(4).sharing), Error);
}

TEST(Bitstream, NegativeImmediatesSurvive) {
  const arch::Architecture a = arch::base_architecture();
  arch::ConfigCache cache(a.array, 2);
  cache.word({0, 0}, 0).immediate = -5;  // right-shift amounts are negative
  cache.word({0, 0}, 0).opcode = 3;
  const auto bytes = arch::encode_bitstream(cache, a.sharing);
  const arch::ConfigCache decoded = arch::decode_bitstream(bytes, a.sharing);
  EXPECT_EQ(decoded.word({0, 0}, 0).immediate, -5);
}

// -------------------------------------------------------------------- vcd
TEST(Vcd, WellFormedDocument) {
  const arch::Architecture a = arch::rsp_architecture(2);
  const sched::ConfigurationContext ctx = context_for("ICCG", a);
  ir::Memory mem;
  kernels::find_workload("ICCG").setup(mem);
  const sim::SimResult result = sim::Machine().run(ctx, mem);
  const std::string vcd = sim::to_vcd(ctx, result);

  EXPECT_NE(vcd.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(vcd.find("$scope module pe_r0c0 $end"), std::string::npos);
  EXPECT_NE(vcd.find("$scope module pe_r7c7 $end"), std::string::npos);
  // One timestamp per cycle plus the closing stamp.
  std::size_t stamps = 0;
  for (std::size_t pos = vcd.find("\n#"); pos != std::string::npos;
       pos = vcd.find("\n#", pos + 1))
    ++stamps;
  EXPECT_EQ(stamps, static_cast<std::size_t>(ctx.length()) + 1);
}

TEST(Vcd, RejectsForeignSimResult) {
  const arch::Architecture a = arch::base_architecture();
  const sched::ConfigurationContext ctx = context_for("ICCG", a);
  sim::SimResult bogus;
  bogus.values.resize(3);
  EXPECT_THROW(sim::to_vcd(ctx, bogus), InvalidArgumentError);
}

}  // namespace
}  // namespace rsp
