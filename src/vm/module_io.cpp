#include "vm/module_io.hpp"

#include <atomic>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#if defined(_WIN32)
#include <process.h>
#else
#include <unistd.h>
#endif

#include "analysis/lifetime.hpp"
#include "kernels/fused.hpp"
#include "seq/seq.hpp"
#include "vm/verify.hpp"

namespace proteus::vm {

namespace {

using kernels::FusedExpr;
using kernels::MicroOp;
using kernels::VValue;
using lang::Prim;
using lang::TypeKind;
using lang::TypePtr;
using seq::Array;

// Out-of-range enum payloads are rejected at decode: a switch over a
// smuggled enumerator is the one corruption the bytecode verifier cannot
// see (it trusts the enums it inspects).
constexpr std::uint8_t kMaxOp = static_cast<std::uint8_t>(Op::kRet);
constexpr std::uint8_t kMaxPrim = static_cast<std::uint8_t>(Prim::kAnyTrue);
constexpr std::uint8_t kMaxTypeKind = static_cast<std::uint8_t>(TypeKind::kFun);

/// Recursion ceiling for decoded types / arrays / tuple values: deep
/// enough for any program the pipeline emits, shallow enough that a
/// crafted image cannot overflow the decoder's stack.
constexpr int kMaxDecodeDepth = 200;

// VValue wire tags.
enum : std::uint8_t {
  kValInt = 0,
  kValReal = 1,
  kValBool = 2,
  kValSeq = 3,
  kValTuple = 4,
  kValFun = 5,
};

// ---- encoding ---------------------------------------------------------------

class Writer {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { le(v); }
  void u32(std::uint32_t v) { le(v); }
  void u64(std::uint64_t v) { le(v); }
  void i32(std::int32_t v) { le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { le(static_cast<std::uint64_t>(v)); }
  void f64(double v) { le(std::bit_cast<std::uint64_t>(v)); }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }

  void bytes(const std::uint8_t* p, std::size_t n) {
    out_.append(reinterpret_cast<const char*>(p), n);
  }

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  template <typename T>
  void le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  std::string out_;
};

void write_type(Writer& w, const TypePtr& t) {
  w.u8(static_cast<std::uint8_t>(t->kind()));
  switch (t->kind()) {
    case TypeKind::kInt:
    case TypeKind::kReal:
    case TypeKind::kBool:
      break;
    case TypeKind::kSeq:
      write_type(w, t->elem());
      break;
    case TypeKind::kTuple: {
      const auto& comps = t->components();
      w.u32(static_cast<std::uint32_t>(comps.size()));
      for (const TypePtr& c : comps) write_type(w, c);
      break;
    }
    case TypeKind::kFun: {
      const auto params = t->params();
      w.u32(static_cast<std::uint32_t>(params.size()));
      for (const TypePtr& p : params) write_type(w, p);
      write_type(w, t->result());
      break;
    }
  }
}

void write_array(Writer& w, const Array& a) {
  w.u8(static_cast<std::uint8_t>(a.kind()));
  switch (a.kind()) {
    case Array::Kind::kInt: {
      const auto& v = a.int_values();
      w.u64(static_cast<std::uint64_t>(v.size()));
      for (vl::Int x : v) w.i64(x);
      break;
    }
    case Array::Kind::kReal: {
      const auto& v = a.real_values();
      w.u64(static_cast<std::uint64_t>(v.size()));
      for (vl::Real x : v) w.f64(x);
      break;
    }
    case Array::Kind::kBool: {
      const auto& v = a.bool_values();
      w.u64(static_cast<std::uint64_t>(v.size()));
      for (vl::Bool x : v) w.u8(x);
      break;
    }
    case Array::Kind::kTuple: {
      const auto& comps = a.components();
      w.u32(static_cast<std::uint32_t>(comps.size()));
      for (const Array& c : comps) write_array(w, c);
      break;
    }
    case Array::Kind::kNested: {
      const auto& lens = a.lengths();
      w.u64(static_cast<std::uint64_t>(lens.size()));
      for (vl::Int x : lens) w.i64(x);
      write_array(w, a.inner());
      break;
    }
  }
}

void write_value(Writer& w, const VValue& v) {
  if (v.is_int()) {
    w.u8(kValInt);
    w.i64(v.as_int());
  } else if (v.is_real()) {
    w.u8(kValReal);
    w.f64(v.as_real());
  } else if (v.is_bool()) {
    w.u8(kValBool);
    w.u8(v.as_bool() ? 1 : 0);
  } else if (v.is_seq()) {
    w.u8(kValSeq);
    write_array(w, v.as_seq());
  } else if (v.is_tuple()) {
    w.u8(kValTuple);
    const auto& comps = v.as_tuple();
    w.u32(static_cast<std::uint32_t>(comps.size()));
    for (const VValue& c : comps) write_value(w, c);
  } else {
    w.u8(kValFun);
    w.str(v.fun_name());
  }
}

void write_function(Writer& w, const Function& f) {
  w.str(f.name);
  w.u16(f.n_params);
  w.u16(f.n_regs);
  w.u32(static_cast<std::uint32_t>(f.code.size()));
  for (const Instr& in : f.code) {
    w.u8(static_cast<std::uint8_t>(in.op));
    w.u8(static_cast<std::uint8_t>(in.prim));
    w.u8(in.depth);
    w.u16(in.dst);
    w.u16(in.args_count);
    w.u32(in.args_off);
    w.i32(in.lifted);
    w.i32(in.aux);
    w.i32(in.aux2);
  }
  w.u32(static_cast<std::uint32_t>(f.arg_pool.size()));
  for (std::uint16_t a : f.arg_pool) w.u16(a);
  w.u32(static_cast<std::uint32_t>(f.lifted_sets.size()));
  for (const auto& set : f.lifted_sets) {
    w.u32(static_cast<std::uint32_t>(set.size()));
    if (!set.empty()) w.bytes(set.data(), set.size());
  }
  w.u32(static_cast<std::uint32_t>(f.fused.size()));
  for (const FusedExpr& e : f.fused) {
    w.u32(static_cast<std::uint32_t>(e.nodes.size()));
    for (const MicroOp& n : e.nodes) {
      w.u8(static_cast<std::uint8_t>(n.kind));
      w.u8(static_cast<std::uint8_t>(n.prim));
      w.u8(n.a);
      w.u8(n.b);
      w.u8(n.input);
    }
    w.u32(static_cast<std::uint32_t>(e.input_flags.size()));
    if (!e.input_flags.empty()) {
      w.bytes(e.input_flags.data(), e.input_flags.size());
    }
    w.u8(e.reduce ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(e.reduce.value_or(Prim::kAdd)));
    w.u8(e.extracts);
    w.u8(static_cast<std::uint8_t>(e.reinserts.size()));
    if (!e.reinserts.empty()) {
      w.bytes(e.reinserts.data(), e.reinserts.size());
    }
  }
}

// ---- decoding ---------------------------------------------------------------

/// Bounds-checked cursor over the image bytes. Every read either succeeds
/// in full or latches a failure (with the offending offset) and leaves all
/// further reads inert, so decode code can stay straight-line and test
/// `ok()` at section boundaries.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : data_(bytes) {}

  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] std::size_t offset() const { return off_; }
  [[nodiscard]] std::size_t remaining() const {
    return failed_ ? 0 : data_.size() - off_;
  }

  void fail() { failed_ = true; }

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(take<std::uint32_t>()); }
  std::int64_t i64() { return static_cast<std::int64_t>(take<std::uint64_t>()); }
  double f64() { return std::bit_cast<double>(take<std::uint64_t>()); }

  /// A length prefix for items of at least `item_size` bytes each; any
  /// count the remaining bytes cannot possibly satisfy is rejected before
  /// a single element is allocated (a 4-byte header cannot demand a
  /// gigabyte of vector).
  std::uint64_t count64(std::size_t item_size) {
    const std::uint64_t n = u64();
    if (failed_) return 0;
    if (item_size != 0 && n > remaining() / item_size) {
      failed_ = true;
      return 0;
    }
    return n;
  }

  std::uint32_t count32(std::size_t item_size) {
    const std::uint32_t n = u32();
    if (failed_) return 0;
    if (item_size != 0 && n > remaining() / item_size) {
      failed_ = true;
      return 0;
    }
    return n;
  }

  std::string str() {
    const std::uint32_t n = count32(1);
    if (failed_) return {};
    std::string s(data_.substr(off_, n));
    off_ += n;
    return s;
  }

  void bytes(std::uint8_t* dst, std::size_t n) {
    if (failed_ || n > remaining()) {
      failed_ = true;
      return;
    }
    std::memcpy(dst, data_.data() + off_, n);
    off_ += n;
  }

 private:
  template <typename T>
  T take() {
    if (failed_ || sizeof(T) > remaining()) {
      failed_ = true;
      return T{};
    }
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(
          v | static_cast<T>(static_cast<std::uint8_t>(data_[off_ + i]))
                  << (8 * i));
    }
    off_ += sizeof(T);
    return v;
  }

  std::string_view data_;
  std::size_t off_ = 0;
  bool failed_ = false;
};

TypePtr read_type(Reader& r, int depth) {
  if (depth > kMaxDecodeDepth) {
    r.fail();
    return nullptr;
  }
  const std::uint8_t kind = r.u8();
  if (!r.ok() || kind > kMaxTypeKind) {
    r.fail();
    return nullptr;
  }
  switch (static_cast<TypeKind>(kind)) {
    case TypeKind::kInt:
      return lang::Type::int_();
    case TypeKind::kReal:
      return lang::Type::real();
    case TypeKind::kBool:
      return lang::Type::bool_();
    case TypeKind::kSeq: {
      TypePtr elem = read_type(r, depth + 1);
      return r.ok() ? lang::Type::seq(std::move(elem)) : nullptr;
    }
    case TypeKind::kTuple: {
      const std::uint32_t n = r.count32(1);
      if (!r.ok() || n == 0) {
        r.fail();
        return nullptr;
      }
      std::vector<TypePtr> comps;
      comps.reserve(n);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        comps.push_back(read_type(r, depth + 1));
      }
      return r.ok() ? lang::Type::tuple(std::move(comps)) : nullptr;
    }
    case TypeKind::kFun: {
      const std::uint32_t n = r.count32(1);
      std::vector<TypePtr> params;
      params.reserve(r.ok() ? n : 0);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        params.push_back(read_type(r, depth + 1));
      }
      TypePtr result = r.ok() ? read_type(r, depth + 1) : nullptr;
      return r.ok() ? lang::Type::fun(std::move(params), std::move(result))
                    : nullptr;
    }
  }
  r.fail();
  return nullptr;
}

vl::IntVec read_int_vec(Reader& r) {
  const std::uint64_t n = r.count64(8);
  std::vector<vl::Int> v;
  v.reserve(r.ok() ? static_cast<std::size_t>(n) : 0);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) v.push_back(r.i64());
  return vl::IntVec(std::move(v));
}

Array read_array(Reader& r, int depth) {
  if (depth > kMaxDecodeDepth) {
    r.fail();
    return Array::ints(vl::IntVec{});
  }
  const std::uint8_t kind = r.u8();
  if (!r.ok() || kind > static_cast<std::uint8_t>(Array::Kind::kNested)) {
    r.fail();
    return Array::ints(vl::IntVec{});
  }
  switch (static_cast<Array::Kind>(kind)) {
    case Array::Kind::kInt:
      return Array::ints(read_int_vec(r));
    case Array::Kind::kReal: {
      const std::uint64_t n = r.count64(8);
      std::vector<vl::Real> v;
      v.reserve(r.ok() ? static_cast<std::size_t>(n) : 0);
      for (std::uint64_t i = 0; i < n && r.ok(); ++i) v.push_back(r.f64());
      return Array::reals(vl::RealVec(std::move(v)));
    }
    case Array::Kind::kBool: {
      const std::uint64_t n = r.count64(1);
      std::vector<vl::Bool> v(r.ok() ? static_cast<std::size_t>(n) : 0);
      if (!v.empty()) r.bytes(v.data(), v.size());
      return Array::bools(vl::BoolVec(std::move(v)));
    }
    case Array::Kind::kTuple: {
      const std::uint32_t n = r.count32(1);
      if (!r.ok() || n == 0) {
        r.fail();
        return Array::ints(vl::IntVec{});
      }
      std::vector<Array> comps;
      comps.reserve(n);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        comps.push_back(read_array(r, depth + 1));
      }
      if (!r.ok()) return Array::ints(vl::IntVec{});
      return Array::tuple(std::move(comps));  // throws on ragged components
    }
    case Array::Kind::kNested: {
      vl::IntVec lens = read_int_vec(r);
      Array inner = read_array(r, depth + 1);
      if (!r.ok()) return Array::ints(vl::IntVec{});
      // nested() re-enforces the descriptor invariant sum(lens) ==
      // inner.length(); a violation throws and load_module maps it to B215.
      return Array::nested(std::move(lens), std::move(inner));
    }
  }
  r.fail();
  return Array::ints(vl::IntVec{});
}

VValue read_value(Reader& r, int depth) {
  if (depth > kMaxDecodeDepth) {
    r.fail();
    return VValue::ints(0);
  }
  const std::uint8_t tag = r.u8();
  switch (tag) {
    case kValInt:
      return VValue::ints(r.i64());
    case kValReal:
      return VValue::reals(r.f64());
    case kValBool:
      return VValue::bools(r.u8() != 0);
    case kValSeq:
      return VValue::seq(read_array(r, depth + 1));
    case kValTuple: {
      const std::uint32_t n = r.count32(1);
      std::vector<VValue> comps;
      comps.reserve(r.ok() ? n : 0);
      for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
        comps.push_back(read_value(r, depth + 1));
      }
      return VValue::tuple(std::move(comps));
    }
    case kValFun:
      return VValue::fun(r.str());
    default:
      r.fail();
      return VValue::ints(0);
  }
}

bool read_function(Reader& r, Function& f) {
  f.name = r.str();
  f.n_params = r.u16();
  f.n_regs = r.u16();

  const std::uint32_t n_code = r.count32(23);  // encoded Instr size
  f.code.reserve(r.ok() ? n_code : 0);
  for (std::uint32_t i = 0; i < n_code && r.ok(); ++i) {
    Instr in;
    const std::uint8_t op = r.u8();
    const std::uint8_t prim = r.u8();
    if (op > kMaxOp || prim > kMaxPrim) {
      r.fail();
      return false;
    }
    in.op = static_cast<Op>(op);
    in.prim = static_cast<Prim>(prim);
    in.depth = r.u8();
    in.dst = r.u16();
    in.args_count = r.u16();
    in.args_off = r.u32();
    in.lifted = r.i32();
    in.aux = r.i32();
    in.aux2 = r.i32();
    f.code.push_back(in);
  }

  const std::uint32_t n_pool = r.count32(2);
  f.arg_pool.reserve(r.ok() ? n_pool : 0);
  for (std::uint32_t i = 0; i < n_pool && r.ok(); ++i) {
    f.arg_pool.push_back(r.u16());
  }

  const std::uint32_t n_sets = r.count32(4);
  f.lifted_sets.reserve(r.ok() ? n_sets : 0);
  for (std::uint32_t i = 0; i < n_sets && r.ok(); ++i) {
    const std::uint32_t len = r.count32(1);
    std::vector<std::uint8_t> set(r.ok() ? len : 0);
    if (!set.empty()) r.bytes(set.data(), set.size());
    f.lifted_sets.push_back(std::move(set));
  }

  const std::uint32_t n_fused = r.count32(8);
  f.fused.reserve(r.ok() ? n_fused : 0);
  for (std::uint32_t i = 0; i < n_fused && r.ok(); ++i) {
    FusedExpr e;
    const std::uint32_t n_nodes = r.count32(5);
    if (!r.ok() || n_nodes == 0 || n_nodes > kernels::kMaxFusedNodes) {
      r.fail();
      return false;
    }
    e.nodes.reserve(n_nodes);
    for (std::uint32_t j = 0; j < n_nodes && r.ok(); ++j) {
      MicroOp n;
      const std::uint8_t kind = r.u8();
      const std::uint8_t prim = r.u8();
      n.a = r.u8();
      n.b = r.u8();
      n.input = r.u8();
      if (kind > static_cast<std::uint8_t>(MicroOp::Kind::kPrim) ||
          prim > kMaxPrim) {
        r.fail();
        return false;
      }
      n.kind = static_cast<MicroOp::Kind>(kind);
      n.prim = static_cast<Prim>(prim);
      // The fused evaluator walks the post-order micro-program without
      // bounds checks (the optimizer only emits well-formed expressions);
      // a loaded expression must prove the same well-formedness here —
      // the bytecode verifier does not look inside superinstructions.
      if (n.kind == MicroOp::Kind::kPrim &&
          (!kernels::fusible_prim(n.prim) || n.a >= j || n.b >= j)) {
        r.fail();
        return false;
      }
      e.nodes.push_back(n);
    }
    const std::uint32_t n_flags = r.count32(1);
    e.input_flags.resize(r.ok() ? n_flags : 0);
    if (!e.input_flags.empty()) {
      r.bytes(e.input_flags.data(), e.input_flags.size());
    }
    for (const MicroOp& n : e.nodes) {
      if (n.kind == MicroOp::Kind::kInput && n.input >= e.input_flags.size()) {
        r.fail();
        return false;
      }
    }
    for (const std::uint8_t flags : e.input_flags) {
      if ((flags & ~kernels::kFusedSlotFlags) != 0) {
        r.fail();
        return false;
      }
    }
    const std::uint8_t has_reduce = r.u8();
    const std::uint8_t reduce = r.u8();
    if (has_reduce > 1 || reduce > kMaxPrim ||
        (has_reduce == 1 &&
         !kernels::fusible_reduce(static_cast<Prim>(reduce)))) {
      r.fail();
      return false;
    }
    if (has_reduce == 1) e.reduce = static_cast<Prim>(reduce);
    e.extracts = r.u8();
    e.reinserts.resize(r.ok() ? r.u8() : 0);
    if (!e.reinserts.empty()) {
      r.bytes(e.reinserts.data(), e.reinserts.size());
    }
    for (const std::uint8_t after : e.reinserts) {
      if (!e.reduce || after >= e.nodes.size() ||
          e.nodes[after].kind != MicroOp::Kind::kPrim) {
        r.fail();
        return false;
      }
    }
    f.fused.push_back(std::move(e));
  }
  return r.ok();
}

analysis::Diagnostic structural(std::string code, std::string message) {
  analysis::Diagnostic d;
  d.code = std::move(code);
  d.message = std::move(message);
  d.function = "<module>";
  d.rule = "VCODE";
  return d;
}

}  // namespace

std::uint64_t source_hash(std::string_view source,
                          std::string_view options_tag) {
  // FNV-1a 64-bit; the 0x1F separator keeps ("ab","c") and ("a","bc")
  // distinct.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::string_view s) {
    for (char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ull;
    }
  };
  mix(source);
  h ^= 0x1F;
  h *= 0x100000001b3ull;
  mix(options_tag);
  return h;
}

std::string options_tag(bool optimize, bool verify) {
  std::string tag = optimize ? "O1" : "O0";
  tag += verify ? ":v" : ":nv";
  return tag;
}

std::uint64_t module_key(std::string_view source, std::string_view entry,
                         bool optimize, bool verify) {
  std::string identity(source);
  identity += '\x1E';
  identity += entry;
  return source_hash(identity, options_tag(optimize, verify));
}

std::string hash_hex(std::uint64_t hash) {
  static const char* digits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = digits[hash & 0xF];
    hash >>= 4;
  }
  return s;
}

void write_module(std::ostream& os, const Module& m, std::uint64_t hash) {
  const std::string bytes = module_bytes(m, hash);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string module_bytes(const Module& m, std::uint64_t hash) {
  Writer w;
  w.u32(kModuleMagic);
  w.u32(kModuleVersion);
  w.u64(hash);

  w.u32(static_cast<std::uint32_t>(m.functions.size()));
  for (const Function& f : m.functions) write_function(w, f);

  w.u32(static_cast<std::uint32_t>(m.constants.size()));
  for (const VValue& c : m.constants) write_value(w, c);

  w.u32(static_cast<std::uint32_t>(m.types.size()));
  for (const TypePtr& t : m.types) write_type(w, t);

  w.u32(static_cast<std::uint32_t>(m.names.size()));
  for (const std::string& n : m.names) w.str(n);

  w.u32(static_cast<std::uint32_t>(m.signatures.size()));
  for (const Signature& s : m.signatures) {
    const bool present = s.present && s.result != nullptr;
    w.u8(present ? 1 : 0);
    if (!present) continue;
    w.u32(static_cast<std::uint32_t>(s.params.size()));
    for (const TypePtr& p : s.params) write_type(w, p);
    write_type(w, s.result);
  }

  w.i32(m.entry);
  return w.take();
}

ModuleLoadResult load_module(std::string_view bytes, bool verify) {
  ModuleLoadResult result;
  Reader r(bytes);

  const std::uint32_t magic = r.u32();
  const std::uint32_t version = r.u32();
  result.source_hash = r.u64();
  if (!r.ok() || magic != kModuleMagic) {
    result.report.add(structural(
        "B216", "not a VCODE module image (bad magic)"));
    return result;
  }
  if (version != kModuleVersion) {
    result.report.add(structural(
        "B216", "unsupported module format version " +
                    std::to_string(version) + " (this build reads version " +
                    std::to_string(kModuleVersion) + ")"));
    return result;
  }

  auto module = std::make_shared<Module>();
  try {
    const std::uint32_t n_funs = r.count32(9);  // min encoded Function size
    module->functions.reserve(r.ok() ? n_funs : 0);
    for (std::uint32_t i = 0; i < n_funs && r.ok(); ++i) {
      Function f;
      if (!read_function(r, f)) break;
      // Rebuilt rather than serialized: last definition wins, exactly the
      // rule compile_module applies.
      module->fn_index[f.name] = i;
      module->functions.push_back(std::move(f));
    }

    const std::uint32_t n_consts = r.count32(1);
    module->constants.reserve(r.ok() ? n_consts : 0);
    for (std::uint32_t i = 0; i < n_consts && r.ok(); ++i) {
      module->constants.push_back(read_value(r, 0));
    }

    const std::uint32_t n_types = r.count32(1);
    module->types.reserve(r.ok() ? n_types : 0);
    for (std::uint32_t i = 0; i < n_types && r.ok(); ++i) {
      module->types.push_back(read_type(r, 0));
    }

    const std::uint32_t n_names = r.count32(4);
    module->names.reserve(r.ok() ? n_names : 0);
    for (std::uint32_t i = 0; i < n_names && r.ok(); ++i) {
      module->names.push_back(r.str());
    }

    const std::uint32_t n_sigs = r.count32(1);
    module->signatures.resize(r.ok() ? n_sigs : 0);
    for (std::uint32_t i = 0; i < n_sigs && r.ok(); ++i) {
      if (r.u8() == 0) continue;
      Signature& s = module->signatures[i];
      const std::uint32_t n_params = r.count32(1);
      s.params.reserve(r.ok() ? n_params : 0);
      for (std::uint32_t j = 0; j < n_params && r.ok(); ++j) {
        s.params.push_back(read_type(r, 0));
      }
      s.result = r.ok() ? read_type(r, 0) : nullptr;
      s.present = r.ok();
    }

    module->entry = r.i32();
  } catch (const std::exception& e) {
    // Representation invariants (descriptor sums, ragged tuples, empty
    // tuples) are enforced by the Array/Type constructors; an image that
    // violates them is malformed, not a crash.
    result.report.add(structural(
        "B215", std::string("module image malformed: ") + e.what()));
    return result;
  }

  if (!r.ok()) {
    result.report.add(structural(
        "B215", "module image truncated or malformed at byte offset " +
                    std::to_string(r.offset())));
    return result;
  }
  if (r.remaining() != 0) {
    result.report.add(structural(
        "B215", std::to_string(r.remaining()) +
                    " trailing bytes after module image"));
    return result;
  }

  if (verify) {
    // The decoder proved the bytes well-formed; the bytecode verifier now
    // proves the decoded program safe to dispatch (register bounds, pool
    // indexes, control flow, init-before-use — docs/ANALYSIS.md B2xx).
    analysis::Report vr = verify_module(*module);
    result.report.merge(vr);
    if (!vr.ok()) return result;
  }

  // The memory plan is a pure function of the bytecode, so it is derived
  // here rather than stored in the image. Unverified bytecode is the
  // caller's responsibility (see the trust model in module_io.hpp).
  module->plan = std::make_shared<const analysis::MemoryPlan>(
      analysis::plan_module(*module).plan);
  result.module = std::move(module);
  return result;
}

void write_module_file(const std::string& path, const Module& m,
                       std::uint64_t hash) {
  // Publish atomically: rename(2) of a .tmp. sibling over `path` means a
  // reader, even one already holding the old file open, sees the old image
  // or the new one, never a torn one. The pid plus a process-wide counter
  // keep concurrent writers off each other's temporaries.
  static std::atomic<std::uint64_t> writes{0};
#if defined(_WIN32)
  const long pid = static_cast<long>(_getpid());
#else
  const long pid = static_cast<long>(::getpid());
#endif
  std::string tmp = path + ".tmp.";
  tmp += std::to_string(pid);
  tmp += '.';
  tmp += std::to_string(writes.fetch_add(1, std::memory_order_relaxed));
  try {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    PROTEUS_REQUIRE(Error, os.good(),
                    "cannot open module file for writing: " + path);
    write_module(os, m, hash);
    os.close();
    PROTEUS_REQUIRE(Error, !os.fail(), "failed writing module file: " + path);
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    PROTEUS_REQUIRE(Error, !ec, "cannot publish module file: " + path);
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
}

ModuleLoadResult load_module_file(const std::string& path, bool verify) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) {
    ModuleLoadResult result;
    result.report.add(
        structural("B215", "cannot read module file: " + path));
    return result;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  return load_module(buf.str(), verify);
}

}  // namespace proteus::vm
