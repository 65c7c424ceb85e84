#pragma once

#include <cstdint>
#include <functional>

#include "datalog/value.h"
#include "util/hash.h"

/// \file stride.h
/// Compile-time stride (arity) dispatch for the columnar hot paths.
///
/// A TupleStore arena is strided by arity: every row access multiplies by
/// a runtime arity and every row comparison/hash loops over it. The RDF
/// translation only ever materializes relations of arity <= 4 (triple/4,
/// subjectOrObject/2, the unary term-kind predicates), and query-derived
/// relations are small-arity-dominated too, so the engine specializes
/// those strides at compile time: `WithStride` maps a runtime arity to a
/// `FixedStride<K>` tag whose `arity()` is a constant expression, letting
/// the row loops below unroll and `base + i * K` compile to shifted
/// addressing instead of a dynamic multiply. Arities beyond 4 fall back
/// to `DynamicStride`, which runs the identical code with a runtime
/// bound — both tags must stay behaviorally equivalent (the dedup table
/// in particular is shared between paths, so `StrideHashRow` has to
/// agree bit-for-bit with `HashRange` + `Fmix64`).

namespace sparqlog::datalog {

/// Compile-time stride tag: `arity()` is a constant expression.
template <uint32_t K>
struct FixedStride {
  static constexpr uint32_t kArity = K;
  constexpr uint32_t arity() const { return K; }
};

/// Runtime stride tag for arities beyond the specialized range.
struct DynamicStride {
  uint32_t k;
  uint32_t arity() const { return k; }
};

/// Invokes `fn` with the stride tag for `arity`: `FixedStride<K>` for the
/// hot K <= 4 case, `DynamicStride` otherwise. The callable is
/// instantiated once per stride, so the switch runs once per call site
/// (e.g. per bulk load or per staged batch), not once per row.
template <typename Fn>
decltype(auto) WithStride(uint32_t arity, Fn&& fn) {
  switch (arity) {
    case 0: return fn(FixedStride<0>{});
    case 1: return fn(FixedStride<1>{});
    case 2: return fn(FixedStride<2>{});
    case 3: return fn(FixedStride<3>{});
    case 4: return fn(FixedStride<4>{});
    default: return fn(DynamicStride{arity});
  }
}

/// Row hash under a stride tag. Delegates to the shared HashRange +
/// Fmix64 so fixed- and dynamic-stride inserts (which share one
/// open-addressing table, rehashed dynamically by `TupleStore::Rehash`)
/// can never disagree; with a FixedStride tag the loop bound is a
/// constant expression, so the range loop still unrolls.
template <typename Stride>
inline uint64_t StrideHashRow(Stride s, const Value* row) {
  return Fmix64(HashRange(row, row + s.arity()));
}

template <typename Stride>
inline bool StrideRowEquals(Stride s, const Value* a, const Value* b) {
  for (uint32_t i = 0; i < s.arity(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

}  // namespace sparqlog::datalog
