// Phase-1.5 of parva_audit: a lightweight intraprocedural call-graph over
// the scan set, feeding the interprocedural rules R9-R12 (DESIGN.md §4.8).
//
// The builder is lexical, like the rest of the tool: it walks each file's
// token stream with a brace-matched scope machine, records every function
// definition (free functions, in-class method bodies, out-of-line
// Class::method definitions) together with per-body facts -- call sites,
// lock-acquisition scopes, blocking operations, unordered-container
// iteration, Rng::stream tag arguments -- and resolves call sites against
// the definition index conservatively:
//
//   * `Class::method(...)`  -> every definition with that qualified name
//     (all overloads); no fallback when the class is unknown.
//   * `obj.method(...)` / `obj->method(...)` -> the receiver's declared
//     type when the builder can see it (a member of the enclosing class, a
//     parameter, or a local declared with a known class type); when the
//     receiver is unresolvable the edge is followed only if every
//     definition of that bare name lives in one class -- an ambiguous
//     method name (`size`, defined by half a dozen containers) produces no
//     edge rather than an edge to everything. This is the documented
//     soundness gap of the lexical graph.
//   * unqualified `f(...)` inside a method -> the enclosing class's `f`
//     overload set when one exists, otherwise the free functions named `f`.
//   * recursion and mutual recursion are ordinary edges; the reachability
//     walks (R11/R12) and the cycle search (R9) all terminate on visited
//     sets.
//
// Calls with no definition in the scan set (std::, macros like PARVA_CHECK,
// system headers) resolve to the empty set: the graph cannot see into them,
// which DESIGN.md §4.8 lists among the known gaps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace parva::audit {

/// How a call site names its callee; drives resolution.
struct CallSite {
  std::string name;        ///< bare callee name
  std::string class_qual;  ///< "Class" for `Class::name(` calls, else empty
  /// Declared type of the receiver for `obj.name(` / `obj->name(` calls;
  /// "?" when the receiver exists but its type is unresolvable; empty for
  /// non-member call syntax.
  std::string receiver_type;
  bool is_method_syntax = false;  ///< called through `.` or `->`
  int line = 0;
  std::vector<std::string> held_locks;  ///< lock ids held at the call (R9)
};

/// One lock-guard scope (parva::MutexLock / SharedMutexLock, or a std
/// lock_guard / unique_lock / scoped_lock / shared_lock) in a body.
struct LockAcquisition {
  std::string lock;  ///< qualified lock id; see lock_id() in callgraph.cpp
  int line = 0;
  std::vector<std::string> held;  ///< ids already held when this one is taken
};

/// Blocking-operation classes R11 recognizes.
enum class BlockKind : std::uint8_t {
  kLock,   ///< mutex acquisition (any lock-guard scope)
  kPool,   ///< ThreadPool::submit / parallel_for, condition waits, sleeps
  kIo,     ///< iostream / FILE* / fstream traffic
  kAlloc,  ///< std::{map,set} insert/emplace (opt-in; AuditConfig.r11_allocations)
};

struct BlockingOp {
  BlockKind kind = BlockKind::kLock;
  std::string what;  ///< human-readable operation, e.g. "MutexLock(mutex_)"
  int line = 0;
};

/// An iteration over a name declared with an unordered container type in
/// the same file (range-for or begin()-family walk); shared with R2.
struct UnorderedIteration {
  std::string name;
  int line = 0;
  std::size_t token_index = 0;    ///< into LexedFile.tokens, for attribution
  bool iterator_walk = false;     ///< begin()-family walk (vs range-for)
};

/// A `+=` / `-=` on a name declared double/float in the same file, inside a
/// loop body; the phase-4 detector behind R14 (see dataflow.hpp).
struct FpAccumulation {
  std::string name;
  int line = 0;
  std::size_t token_index = 0;  ///< into LexedFile.tokens, for attribution
  bool subtract = false;        ///< `-=` rather than `+=`
};

/// One function definition (a declarator with a brace body).
struct FunctionDef {
  std::string name;        ///< bare name
  std::string class_name;  ///< enclosing or qualifying class; empty = free
  std::string file;
  int line = 0;  ///< line of the body's declarator
  std::vector<CallSite> calls;
  std::vector<LockAcquisition> locks;
  std::vector<BlockingOp> blocking;
  std::vector<UnorderedIteration> unordered;
  std::vector<FpAccumulation> fp_accums;

  std::string qualified() const {
    return class_name.empty() ? name : class_name + "::" + name;
  }
};

/// One enumerator of the RngStreamTag registry (common/rng.hpp).
struct RngTagDef {
  std::string name;
  std::uint64_t value = 0;
  std::string file;
  int line = 0;
};

/// One `Rng::stream(seed, TAG, ...)` call site; R10 validates TAG.
struct RngStreamUse {
  /// Last identifier of the tag argument ("kArrival" for
  /// `RngStreamTag::kArrival`), empty when the argument carries none.
  std::string tag_name;
  bool literal = false;  ///< the tag argument is a bare numeric literal
  std::string file;
  int line = 0;
};

struct CallGraph {
  std::vector<FunctionDef> functions;
  /// bare name -> function indices (overload sets span files).
  std::map<std::string, std::vector<std::size_t>> by_name;
  /// "Class::name" (or bare name for free functions) -> function indices.
  std::map<std::string, std::vector<std::size_t>> by_qualified;
  std::vector<RngTagDef> rng_tags;     ///< RngStreamTag registry enumerators
  std::vector<RngStreamUse> rng_uses;  ///< Rng::stream call sites
  /// Every class name that owns at least one definition; distinguishes
  /// `UnknownClass::f(...)` (no edge) from `some_namespace::f(...)`.
  std::set<std::string> classes;

  /// Resolves a call site made from `caller` to definition indices under
  /// the conservative rules documented above. Deterministic: indices come
  /// back sorted.
  std::vector<std::size_t> resolve(const CallSite& call,
                                   const FunctionDef& caller) const;
};

/// Builds the graph over pre-lexed files. Paths are used verbatim in
/// FunctionDef.file; pass them normalized.
CallGraph build_call_graph(
    const std::vector<std::pair<std::string, const LexedFile*>>& files);

/// (caller qualified name, callee qualified name) edges, sorted and
/// deduplicated -- the pin format of tests/tools/audit_test.cpp.
std::vector<std::pair<std::string, std::string>> call_graph_edges(const CallGraph& graph);

/// The R2/R12 iteration detector: names declared with an unordered
/// container type anywhere in `lexed`, then every range-for or
/// begin()-family walk over one of them.
std::vector<UnorderedIteration> collect_unordered_iterations(const LexedFile& lexed);

}  // namespace parva::audit
