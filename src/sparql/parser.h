#pragma once

#include <cstdint>
#include <string_view>

#include "rdf/dictionary.h"
#include "sparql/ast.h"
#include "util/status.h"

/// \file parser.h
/// Recursive-descent SPARQL 1.1 parser for the SparqLog fragment.
/// Constant terms are interned into the supplied dictionary at parse time.
///
/// Features the paper's engine does not support (Table 1 ✗ rows:
/// CONSTRUCT, DESCRIBE, FILTER (NOT) EXISTS, BIND, VALUES, HAVING,
/// sub-SELECT, COALESCE, IN/NOT IN, GROUP graph pattern) are recognized
/// and rejected with Status::NotSupported so the feature-coverage
/// experiment (Table 1) can distinguish "unsupported" from "syntax error".

namespace sparqlog::sparql {

/// Deepest nesting the parser accepts, counted across group patterns
/// (`{ ... }`, the WHERE clause's group being level 1), expression levels
/// (each bracket, function argument list or unary operator) and
/// bracketed property paths. Recursive descent spends stack per level,
/// so deeper input is rejected with InvalidArgument (HTTP 400) and its
/// byte position instead of overflowing the stack. No workload query
/// comes near it.
inline constexpr uint32_t kMaxNestingDepth = 512;

/// Parser configuration.
struct ParserOptions {
  /// Accepts the extension features beyond the paper's engine (its §7
  /// roadmap toward full coverage): FILTER EXISTS / NOT EXISTS, BIND and
  /// VALUES. Off by default so the Table-1 coverage experiment reproduces
  /// the published engine.
  bool extensions = false;
};

/// Parses `text` into a Query, interning constants into `dict`.
Result<Query> ParseQuery(std::string_view text, rdf::TermDictionary* dict);
Result<Query> ParseQuery(std::string_view text, rdf::TermDictionary* dict,
                         const ParserOptions& options);

}  // namespace sparqlog::sparql
