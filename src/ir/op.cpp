#include "ir/op.hpp"

#include <ostream>

#include "util/error.hpp"

namespace rsp::ir {

int op_arity(OpKind kind) {
  switch (kind) {
    case OpKind::kConst:
    case OpKind::kLoad:
    case OpKind::kNop:
      return 0;
    case OpKind::kStore:
    case OpKind::kAbs:
    case OpKind::kShift:
    case OpKind::kRoute:
      return 1;
    case OpKind::kAdd:
    case OpKind::kSub:
    case OpKind::kMult:
      return 2;
  }
  throw InternalError("unknown OpKind");
}

const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::kConst:
      return "const";
    case OpKind::kLoad:
      return "load";
    case OpKind::kStore:
      return "store";
    case OpKind::kAdd:
      return "add";
    case OpKind::kSub:
      return "sub";
    case OpKind::kMult:
      return "mult";
    case OpKind::kAbs:
      return "abs";
    case OpKind::kShift:
      return "shift";
    case OpKind::kRoute:
      return "route";
    case OpKind::kNop:
      return "nop";
  }
  throw InternalError("unknown OpKind");
}

const char* op_symbol(OpKind kind) {
  switch (kind) {
    case OpKind::kConst:
      return "C";
    case OpKind::kLoad:
      return "Ld";
    case OpKind::kStore:
      return "St";
    case OpKind::kAdd:
      return "+";
    case OpKind::kSub:
      return "-";
    case OpKind::kMult:
      return "*";
    case OpKind::kAbs:
      return "abs";
    case OpKind::kShift:
      return "<<";
    case OpKind::kRoute:
      return ">";
    case OpKind::kNop:
      return ".";
  }
  throw InternalError("unknown OpKind");
}

bool is_memory_op(OpKind kind) {
  return kind == OpKind::kLoad || kind == OpKind::kStore;
}

bool is_critical_op(OpKind kind) { return kind == OpKind::kMult; }

bool produces_value(OpKind kind) {
  return kind != OpKind::kStore && kind != OpKind::kNop;
}

std::ostream& operator<<(std::ostream& os, OpKind kind) {
  return os << op_name(kind);
}

}  // namespace rsp::ir
