#include "rtl/generate.hpp"

#include <sstream>

#include "arch/bus_switch.hpp"
#include "arch/config_cache.hpp"

namespace rsp::rtl {

namespace {

// Configuration words per PE cache.
constexpr int kContextDepth = 32;

// ---------------------------------------------------------------- leaves

Module make_alu(int w) {
  Module m("rsp_alu");
  m.comment("PE ALU: add/sub/abs plus pass-through (opcode-selected).");
  m.port(PortDir::kInput, "op", 3)
      .port(PortDir::kInput, "a", w)
      .port(PortDir::kInput, "b", w)
      .port(PortDir::kOutput, "y", w);
  std::ostringstream body;
  body << "  reg " << range_of(w) << "r;\n"
       << "  always @(*) begin\n"
       << "    case (op)\n"
       << "      3'd0: r = a + b;\n"
       << "      3'd1: r = a - b;\n"
       << "      3'd2: r = a[" << w - 1 << "] ? (~a + 1'b1) : a; // abs\n"
       << "      default: r = a;\n"
       << "    endcase\n"
       << "  end\n"
       << "  assign y = r;";
  m.body(body.str());
  return m;
}

Module make_shift(int w) {
  Module m("rsp_shift");
  m.comment("PE barrel shifter; amt[5] selects direction (1 = right).");
  m.port(PortDir::kInput, "a", w)
      .port(PortDir::kInput, "amt", 6)
      .port(PortDir::kOutput, "y", w);
  m.body("  assign y = amt[5] ? ($signed(a) >>> amt[4:0]) : (a << amt[4:0]);");
  return m;
}

Module make_mux(int w) {
  Module m("rsp_mux");
  m.comment("Operand front-end: selects register file / neighbour / row or");
  m.comment("column line / immediate, per the configuration word source"
            " field.");
  m.port(PortDir::kInput, "sel", 3)
      .port(PortDir::kInput, "from_reg", w)
      .port(PortDir::kInput, "from_neighbor", w)
      .port(PortDir::kInput, "from_row", w)
      .port(PortDir::kInput, "from_col", w)
      .port(PortDir::kInput, "imm", w)
      .port(PortDir::kOutput, "y", w);
  std::ostringstream body;
  body << "  reg " << range_of(w) << "r;\n"
       << "  always @(*) begin\n"
       << "    case (sel)\n"
       << "      3'd1: r = from_reg;\n"
       << "      3'd2: r = from_neighbor;\n"
       << "      3'd3: r = from_row;\n"
       << "      3'd4: r = from_col;\n"
       << "      default: r = imm;\n"
       << "    endcase\n"
       << "  end\n"
       << "  assign y = r;";
  m.body(body.str());
  return m;
}

Module make_multiplier(int w, int stages) {
  Module m("rsp_multiplier");
  m.comment("Array multiplier, " + std::to_string(stages) +
            " pipeline stage(s); 2n-bit product (paper Fig. 4).");
  m.port(PortDir::kInput, "clk")
      .port(PortDir::kInput, "en")
      .port(PortDir::kInput, "a", w)
      .port(PortDir::kInput, "b", w)
      .port(PortDir::kOutput, "p", 2 * w);
  std::ostringstream body;
  if (stages <= 1) {
    body << "  assign p = $signed(a) * $signed(b);";
  } else {
    body << "  reg " << range_of(2 * w) << "stage [0:" << stages - 2
         << "];\n"
         << "  integer i;\n"
         << "  always @(posedge clk) if (en) begin\n"
         << "    stage[0] <= $signed(a) * $signed(b);\n"
         << "    for (i = 1; i < " << stages - 1 << "; i = i + 1)\n"
         << "      stage[i] <= stage[i-1];\n"
         << "  end\n"
         << "  assign p = stage[" << stages - 2 << "];";
  }
  m.body(body.str());
  return m;
}

Module make_bus_switch(int w, int reachable) {
  Module m("rsp_bus_switch");
  m.comment("Per-PE bus switch (paper Fig. 4): routes the two n-bit"
            " operands to one of " + std::to_string(reachable) +
            " reachable shared units and the 2n-bit product back.");
  m.port(PortDir::kInput, "sel",
         arch::BusSwitchSpec{reachable, w}.select_bits() == 0
             ? 1
             : arch::BusSwitchSpec{reachable, w}.select_bits());
  m.port(PortDir::kInput, "a", w).port(PortDir::kInput, "b", w);
  for (int u = 0; u < reachable; ++u) {
    m.port(PortDir::kOutput, "unit" + std::to_string(u) + "_a", w);
    m.port(PortDir::kOutput, "unit" + std::to_string(u) + "_b", w);
    m.port(PortDir::kInput, "unit" + std::to_string(u) + "_p", 2 * w);
  }
  m.port(PortDir::kOutput, "p", 2 * w);
  std::ostringstream body;
  for (int u = 0; u < reachable; ++u) {
    body << "  assign unit" << u << "_a = (sel == " << u + 1
         << ") ? a : " << w << "'d0;\n"
         << "  assign unit" << u << "_b = (sel == " << u + 1
         << ") ? b : " << w << "'d0;\n";
  }
  body << "  assign p =";
  for (int u = 0; u < reachable; ++u)
    body << " (sel == " << u + 1 << ") ? unit" << u << "_p :";
  body << " " << 2 * w << "'d0;";
  m.body(body.str());
  return m;
}

Module make_config_cache(int word_bits, int depth) {
  Module m("rsp_config_cache");
  m.comment("Per-PE configuration cache: one context word per cycle"
            " (loop pipelining needs per-PE control, unlike SIMD).");
  int addr_bits = 1;
  while ((1 << addr_bits) < depth) ++addr_bits;
  m.port(PortDir::kInput, "clk")
      .port(PortDir::kInput, "we")
      .port(PortDir::kInput, "waddr", addr_bits)
      .port(PortDir::kInput, "wdata", word_bits)
      .port(PortDir::kInput, "raddr", addr_bits)
      .port(PortDir::kOutput, "word", word_bits);
  std::ostringstream body;
  body << "  reg " << range_of(word_bits) << "mem [0:" << depth - 1 << "];\n"
       << "  reg " << range_of(word_bits) << "r;\n"
       << "  always @(posedge clk) begin\n"
       << "    if (we) mem[waddr] <= wdata;\n"
       << "    r <= mem[raddr];\n"
       << "  end\n"
       << "  assign word = r;";
  m.body(body.str());
  return m;
}

Module make_pe(const arch::Architecture& a, int word_bits) {
  const int w = a.array.data_width_bits;
  Module m("rsp_pe");
  m.comment(a.pe.has_multiplier
                ? "Base PE: mux front-end, ALU, private array multiplier,"
                  " shift logic, output register."
                : "Shared-multiplier PE: the multiplier is extracted; two"
                  " operand taps and a product return port go through the"
                  " bus switch.");
  m.port(PortDir::kInput, "clk")
      .port(PortDir::kInput, "cfg_word", word_bits)
      .port(PortDir::kInput, "from_neighbor", w)
      .port(PortDir::kInput, "from_row", w)
      .port(PortDir::kInput, "from_col", w)
      .port(PortDir::kOutput, "result", w);
  if (!a.pe.has_multiplier) {
    m.port(PortDir::kOutput, "mult_a", w)
        .port(PortDir::kOutput, "mult_b", w)
        .port(PortDir::kInput, "mult_p", 2 * w);
  }
  // Configuration word fields (see arch::ConfigCache::word_bits).
  m.wire("opcode", 4).wire("src_a", 4).wire("src_b", 4).wire("imm", 16);
  m.wire("opa", w).wire("opb", w).wire("alu_y", w).wire("shift_y", w);
  m.assign("opcode", "cfg_word[3:0]");
  m.assign("src_a", "cfg_word[7:4]");
  m.assign("src_b", "cfg_word[11:8]");
  m.assign("imm", "cfg_word[27:12]");

  m.instance(Instance{"rsp_mux", "u_mux_a",
                      {{"sel", "src_a[2:0]"},
                       {"from_reg", "result"},
                       {"from_neighbor", "from_neighbor"},
                       {"from_row", "from_row"},
                       {"from_col", "from_col"},
                       {"imm", "imm"},
                       {"y", "opa"}}});
  m.instance(Instance{"rsp_mux", "u_mux_b",
                      {{"sel", "src_b[2:0]"},
                       {"from_reg", "result"},
                       {"from_neighbor", "from_neighbor"},
                       {"from_row", "from_row"},
                       {"from_col", "from_col"},
                       {"imm", "imm"},
                       {"y", "opb"}}});
  m.instance(Instance{"rsp_alu", "u_alu",
                      {{"op", "opcode[2:0]"},
                       {"a", "opa"},
                       {"b", "opb"},
                       {"y", "alu_y"}}});
  m.instance(Instance{"rsp_shift", "u_shift",
                      {{"a", "alu_y"}, {"amt", "imm[5:0]"}, {"y", "shift_y"}}});

  std::ostringstream body;
  if (a.pe.has_multiplier) {
    m.wire("mult_p_local", 2 * w);
    m.instance(Instance{"rsp_multiplier", "u_mult",
                        {{"clk", "clk"},
                         {"en", "1'b1"},
                         {"a", "opa"},
                         {"b", "opb"},
                         {"p", "mult_p_local"}}});
    body << "  reg " << range_of(w) << "out_r;\n"
         << "  always @(posedge clk)\n"
         << "    out_r <= (opcode == 4'd6) ? mult_p_local[" << w - 1
         << ":0] : shift_y;\n"
         << "  assign result = out_r;";
  } else {
    body << "  assign mult_a = opa;\n"
         << "  assign mult_b = opb;\n"
         << "  reg " << range_of(w) << "out_r;\n"
         << "  always @(posedge clk)\n"
         << "    out_r <= (opcode == 4'd6) ? mult_p[" << w - 1
         << ":0] : shift_y;\n"
         << "  assign result = out_r;";
  }
  m.body(body.str());
  return m;
}

}  // namespace

Design generate(const arch::Architecture& a) {
  a.validate();
  const int w = a.array.data_width_bits;
  const arch::BusSwitchSpec sw =
      arch::make_bus_switch(a.sharing, a.array.data_width_bits);
  const int word_bits = arch::ConfigCache::word_bits(sw.select_bits());

  Design design;
  design.add(make_mux(w));
  design.add(make_alu(w));
  design.add(make_shift(w));
  design.add(make_multiplier(w, a.mult_latency()));
  design.add(make_config_cache(word_bits, kContextDepth));
  if (a.shares_multiplier())
    design.add(make_bus_switch(w, a.sharing.units_reachable_per_pe()));
  design.add(make_pe(a, word_bits));

  // ------------------------------------------------------------- top level
  Module top("rsp_array");
  top.comment("Top: " + std::to_string(a.array.rows) + "x" +
              std::to_string(a.array.cols) + " array '" + a.name + "', " +
              std::to_string(a.sharing.total_units(a.array)) +
              " shared multiplier(s), " +
              std::to_string(a.array.read_buses_per_row) +
              " read / " + std::to_string(a.array.write_buses_per_row) +
              " write bus(es) per row.");
  top.port(PortDir::kInput, "clk");
  top.port(PortDir::kInput, "cfg_we");
  top.port(PortDir::kInput, "cfg_pe", 16);
  int addr_bits = 1;
  while ((1 << addr_bits) < kContextDepth) ++addr_bits;
  top.port(PortDir::kInput, "cfg_addr", addr_bits);
  top.port(PortDir::kInput, "cfg_data", word_bits);
  top.port(PortDir::kInput, "pc", addr_bits);
  for (int r = 0; r < a.array.rows; ++r) {
    for (int b = 0; b < a.array.read_buses_per_row; ++b)
      top.port(PortDir::kInput,
               "rbus_r" + std::to_string(r) + "_" + std::to_string(b), w);
    for (int b = 0; b < a.array.write_buses_per_row; ++b)
      top.port(PortDir::kOutput,
               "wbus_r" + std::to_string(r) + "_" + std::to_string(b), w);
  }

  auto pe_wire = [&](int r, int c, const std::string& suffix) {
    return "pe_r" + std::to_string(r) + "c" + std::to_string(c) + "_" +
           suffix;
  };

  // Per-PE wires, config caches and PEs.
  for (int r = 0; r < a.array.rows; ++r) {
    for (int c = 0; c < a.array.cols; ++c) {
      const std::string id = "r" + std::to_string(r) + "c" + std::to_string(c);
      top.wire(pe_wire(r, c, "result"), w);
      top.wire(pe_wire(r, c, "word"), word_bits);
      top.instance(Instance{
          "rsp_config_cache", "u_cache_" + id,
          {{"clk", "clk"},
           {"we", "cfg_we && (cfg_pe == " + std::to_string(
                        a.array.linear({r, c})) + ")"},
           {"waddr", "cfg_addr"},
           {"wdata", "cfg_data"},
           {"raddr", "pc"},
           {"word", pe_wire(r, c, "word")}}});

      Instance pe{"rsp_pe", "u_pe_" + id, {}};
      pe.connections.push_back({"clk", "clk"});
      pe.connections.push_back({"cfg_word", pe_wire(r, c, "word")});
      const int nr = (c + 1) % a.array.cols;
      pe.connections.push_back({"from_neighbor", pe_wire(r, nr, "result")});
      pe.connections.push_back({"from_row", "rbus_r" + std::to_string(r) +
                                                "_0"});
      pe.connections.push_back(
          {"from_col", pe_wire((r + 1) % a.array.rows, c, "result")});
      pe.connections.push_back({"result", pe_wire(r, c, "result")});
      if (!a.pe.has_multiplier) {
        top.wire(pe_wire(r, c, "ma"), w);
        top.wire(pe_wire(r, c, "mb"), w);
        top.wire(pe_wire(r, c, "mp"), 2 * w);
        pe.connections.push_back({"mult_a", pe_wire(r, c, "ma")});
        pe.connections.push_back({"mult_b", pe_wire(r, c, "mb")});
        pe.connections.push_back({"mult_p", pe_wire(r, c, "mp")});
      }
      top.instance(std::move(pe));
    }
    // Row write bus: OR-reduction of the row's results (arbitration is a
    // configuration-time guarantee — the mapper never double-drives).
    std::string wor;
    for (int c = 0; c < a.array.cols; ++c)
      wor += (c ? " | " : "") + pe_wire(r, c, "result");
    for (int b = 0; b < a.array.write_buses_per_row; ++b)
      top.assign("wbus_r" + std::to_string(r) + "_" + std::to_string(b), wor);
  }

  // Shared multiplier units per row/column pool (Fig. 8 placement), with a
  // per-unit operand-merge: a unit's operands are the OR of the taps of all
  // PEs in its line (only the selected PE drives non-zero data).
  if (a.shares_multiplier()) {
    auto add_units = [&](bool row_pool, int line, int index) {
      const std::string id = (row_pool ? "row" : "col") + std::to_string(line) +
                             "_u" + std::to_string(index);
      top.wire("unit_" + id + "_a", w);
      top.wire("unit_" + id + "_b", w);
      top.wire("unit_" + id + "_p", 2 * w);
      std::string a_or, b_or;
      const int span = row_pool ? a.array.cols : a.array.rows;
      for (int k = 0; k < span; ++k) {
        const int r = row_pool ? line : k;
        const int c = row_pool ? k : line;
        a_or += (k ? " | " : "") + pe_wire(r, c, "ma");
        b_or += (k ? " | " : "") + pe_wire(r, c, "mb");
      }
      top.assign("unit_" + id + "_a", a_or);
      top.assign("unit_" + id + "_b", b_or);
      top.instance(Instance{"rsp_multiplier", "u_mult_" + id,
                            {{"clk", "clk"},
                             {"en", "1'b1"},
                             {"a", "unit_" + id + "_a"},
                             {"b", "unit_" + id + "_b"},
                             {"p", "unit_" + id + "_p"}}});
    };
    for (int r = 0; r < a.array.rows; ++r)
      for (int u = 0; u < a.sharing.units_per_row; ++u) add_units(true, r, u);
    for (int c = 0; c < a.array.cols; ++c)
      for (int u = 0; u < a.sharing.units_per_col; ++u)
        add_units(false, c, u);
    // Product return: each PE sees the OR of its reachable units' products
    // (the bus switch masks the unselected ones inside the PE in the full
    // implementation; structurally the return network is this fabric).
    for (int r = 0; r < a.array.rows; ++r)
      for (int c = 0; c < a.array.cols; ++c) {
        std::string p_or;
        int k = 0;
        for (const arch::SharedUnitId& u :
             a.sharing.reachable_units(a.array, {r, c})) {
          const std::string id =
              (u.pool == arch::SharedUnitId::Pool::kRow ? "row" : "col") +
              std::to_string(u.line) + "_u" + std::to_string(u.index);
          p_or += (k++ ? " | " : "") + ("unit_" + id + "_p");
        }
        top.assign(pe_wire(r, c, "mp"), p_or);
      }
  }

  design.add(std::move(top));
  return design;
}

std::string generate_verilog(const arch::Architecture& a) {
  return generate(a)
      .emit("Generated by rsp-cgra from architecture '" + a.name + "'");
}

RtlStats stats_of(const Design& design) {
  RtlStats stats;
  stats.modules = static_cast<int>(design.modules().size());
  const Module* top = design.find("rsp_array");
  if (!top) return stats;
  for (const Instance& inst : top->instances()) {
    if (inst.module == "rsp_pe") ++stats.pe_instances;
    if (inst.module == "rsp_multiplier") ++stats.shared_multiplier_instances;
    if (inst.module == "rsp_bus_switch") ++stats.bus_switch_instances;
    if (inst.module == "rsp_config_cache") ++stats.config_cache_instances;
  }
  return stats;
}

}  // namespace rsp::rtl
