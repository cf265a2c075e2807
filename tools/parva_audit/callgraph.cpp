// Phase-1.5: the lexical call-graph builder. Two passes over the scan set:
//
//   Pass 1 (per file): a brace-matched scope machine (the same shape as
//   check_r3 / check_r7) records every class's data-member types, every
//   function definition's body token span + signature, and the RngStreamTag
//   registry enumerators.
//
//   Pass 2 (per function): the body span is re-walked with the *global*
//   class map in hand -- out-of-line `Class::method` bodies in a .cpp can
//   resolve receivers against members declared in the class's header --
//   extracting call sites (with the lock-hold set at each), lock-guard
//   scopes, blocking operations, unordered-container iterations, and
//   Rng::stream tag arguments.
//
// Resolution semantics live in CallGraph::resolve at the bottom and are
// documented in callgraph.hpp.
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "callgraph.hpp"
#include "dataflow.hpp"
#include "internal.hpp"

namespace parva::audit {

namespace internal {

std::size_t match_close(const std::vector<Token>& toks, std::size_t i,
                        const char* open, const char* close) {
  int depth = 0;
  for (; i < toks.size(); ++i) {
    if (is_punct(toks[i], open)) ++depth;
    if (is_punct(toks[i], close)) {
      if (--depth == 0) return i;
    }
  }
  return toks.size();
}

std::vector<std::vector<Token>> split_args(const std::vector<Token>& toks,
                                           std::size_t i, std::size_t end) {
  std::vector<std::vector<Token>> groups(1);
  int paren = 0;
  int bracket = 0;
  for (; i < end; ++i) {
    if (is_punct(toks[i], "(") || is_punct(toks[i], "{")) ++paren;
    if (is_punct(toks[i], ")") || is_punct(toks[i], "}")) --paren;
    if (is_punct(toks[i], "[")) ++bracket;
    if (is_punct(toks[i], "]")) --bracket;
    if (paren == 0 && bracket == 0 && is_punct(toks[i], ",")) {
      groups.emplace_back();
      continue;
    }
    groups.back().push_back(toks[i]);
  }
  if (groups.back().empty()) groups.pop_back();
  return groups;
}

}  // namespace internal

namespace {

using internal::is_ident;
using internal::is_punct;
using internal::match_close;
using internal::split_args;

bool is_keyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if", "else", "for", "while", "do", "switch", "case", "default", "break",
      "continue", "return", "goto", "new", "delete", "throw", "try", "catch",
      "sizeof", "alignof", "alignas", "decltype", "typeid", "noexcept",
      "static_assert", "using", "typedef", "template", "typename", "operator",
      "co_await", "co_return", "co_yield", "const", "constexpr", "constinit",
      "static", "inline", "extern", "mutable", "volatile", "thread_local",
      "public", "private", "protected", "virtual", "override", "final",
      "class", "struct", "union", "enum", "namespace", "friend", "requires",
      "and", "or", "not", "this"};
  return kKeywords.count(s) != 0;
}

// Lock-guard scope types: the project wrappers plus the std guards they
// wrap, so fixtures and any future direct std usage are both seen.
bool is_lock_guard_type(const std::string& s) {
  return s == "MutexLock" || s == "SharedMutexLock" || s == "lock_guard" ||
         s == "unique_lock" || s == "scoped_lock" || s == "shared_lock";
}

bool is_decl_specifier(const std::string& s) {
  return s == "const" || s == "constexpr" || s == "constinit" || s == "static" ||
         s == "mutable" || s == "inline" || s == "extern" || s == "volatile" ||
         s == "thread_local" || s == "typename";
}

/// member name -> last identifier of its declared type ("Mutex",
/// "EventQueue", "map", ...); merged across files by class name.
using MemberTypes = std::map<std::string, std::string>;
using ClassMembers = std::map<std::string, MemberTypes>;

/// Per-file call-graph facts: everything phase 1.5 learns from one file,
/// independent of the rest of the scan set except for the global
/// class-member map threaded into finish_file_facts().
struct FileFacts {
  std::vector<FunctionDef> functions;
  std::vector<RngTagDef> rng_tags;
  std::vector<RngStreamUse> rng_uses;
  /// class name -> member name -> last identifier of the declared type.
  ClassMembers class_members;
};

/// A function body recorded by pass 1, before its tokens are scanned.
struct BodySpan {
  std::size_t fn_index = 0;   ///< into FileFacts.functions
  std::vector<Token> params;  ///< tokens between the signature's parens
  std::size_t begin = 0;      ///< first token index inside the body brace
  std::size_t end = 0;        ///< index of the body's closing brace
};

// Skips a balanced <...> starting at toks[i] == '<'; returns the index one
// past the closing '>'. Tokens are single characters, so '>>' is two tokens
// and nesting balances naturally.
std::size_t skip_angles(const std::vector<Token>& toks, std::size_t i) {
  int depth = 0;
  do {
    if (is_punct(toks[i], "<")) ++depth;
    if (is_punct(toks[i], ">")) --depth;
    ++i;
  } while (i < toks.size() && depth > 0);
  return i;
}

/// Parses `[specifiers] a::b::Type<...>[*&const] name` out of `toks`
/// starting at `i`. Returns (type, name, index-after-name); for smart
/// pointers the pointee's type is used (`std::unique_ptr<ForJob> j` -> the
/// receiver type of `j->` is ForJob, not unique_ptr).
struct DeclParse {
  std::string type;
  std::string name;
  std::size_t next = 0;
};
std::optional<DeclParse> parse_decl(const std::vector<Token>& toks, std::size_t i,
                                    std::size_t end) {
  while (i < end && toks[i].kind == Token::Kind::kIdent &&
         is_decl_specifier(toks[i].text)) {
    ++i;
  }
  if (i >= end || toks[i].kind != Token::Kind::kIdent) return std::nullopt;
  if (is_keyword(toks[i].text) || toks[i].text == "auto") {
    if (toks[i].text != "auto") return std::nullopt;
  }
  std::string type = toks[i].text;
  ++i;
  while (i + 2 < end && is_punct(toks[i], ":") && is_punct(toks[i + 1], ":") &&
         toks[i + 2].kind == Token::Kind::kIdent) {
    type = toks[i + 2].text;
    i += 3;
  }
  if (i < end && is_punct(toks[i], "<")) {
    // Smart pointers / wrappers: the interesting type is the first argument.
    if (type == "unique_ptr" || type == "shared_ptr" || type == "optional") {
      auto inner = parse_decl(toks, i + 1, end);
      if (inner) type = inner->type;
    }
    i = skip_angles(toks, i);
  }
  while (i < end && (is_punct(toks[i], "*") || is_punct(toks[i], "&") ||
                     is_ident(toks[i], "const"))) {
    ++i;
  }
  if (i >= end || toks[i].kind != Token::Kind::kIdent || is_keyword(toks[i].text)) {
    return std::nullopt;
  }
  return DeclParse{type, toks[i].text, i + 1};
}

/// Stable identity for a lock object, so the same mutex named from two
/// functions collapses to one graph node and two same-named mutexes in
/// different classes stay distinct:
///   * a local / parameter        -> "local:<fn-qualified>:<name>" (never
///     shared, so never part of a cross-function cycle)
///   * a bare name inside a method -> "<Class>::<name>" (member access)
///   * a bare name in a free fn    -> "::<name>" (namespace-scope object)
///   * `recv.m` / `recv->m`        -> "<ReceiverType>::<m>" when the
///     receiver's declared type is visible, else the raw spelling.
std::string lock_id(const std::vector<Token>& arg, const FunctionDef& fn,
                    const std::map<std::string, std::string>& local_types) {
  std::vector<const Token*> idents;
  for (const Token& t : arg) {
    if (t.kind == Token::Kind::kIdent) idents.push_back(&t);
  }
  if (idents.size() == 1) {
    const std::string& m = idents[0]->text;
    if (local_types.count(m) != 0) return "local:" + fn.qualified() + ":" + m;
    if (!fn.class_name.empty()) return fn.class_name + "::" + m;
    return "::" + m;
  }
  if (idents.size() == 2) {
    const std::string& recv = idents[0]->text;
    const std::string& m = idents[1]->text;
    if (recv == "this" && !fn.class_name.empty()) return fn.class_name + "::" + m;
    auto it = local_types.find(recv);
    if (it != local_types.end()) return it->second + "::" + m;
  }
  std::string raw;
  for (const Token& t : arg) raw += t.text;
  return raw;
}

/// Extracts the class name out of a `class`/`struct`/`union` head statement:
/// the last identifier after the keyword and before the base-clause ':' or
/// the body (skips attributes, export macros, `final`).
std::string class_name_from_stmt(const std::vector<Token>& stmt) {
  std::size_t k = 0;
  while (k < stmt.size() && !(is_ident(stmt[k], "class") || is_ident(stmt[k], "struct") ||
                              is_ident(stmt[k], "union"))) {
    ++k;
  }
  std::string name;
  for (std::size_t i = k + 1; i < stmt.size(); ++i) {
    if (is_punct(stmt[i], ":") &&
        !(i > 0 && is_punct(stmt[i - 1], ":")) &&
        !(i + 1 < stmt.size() && is_punct(stmt[i + 1], ":"))) {
      break;  // base clause
    }
    if (is_punct(stmt[i], "<")) break;  // template head / specialization
    if (stmt[i].kind == Token::Kind::kIdent && !is_ident(stmt[i], "final") &&
        !is_ident(stmt[i], "alignas")) {
      name = stmt[i].text;
    }
  }
  return name;
}

/// Parses one class-body statement as a data-member declaration; access
/// specifiers are stripped, anything function-shaped (a '(' before any '=')
/// is skipped, as are usings/friends/nested types.
void record_member(const std::vector<Token>& stmt_in, MemberTypes& members) {
  std::vector<Token> stmt = stmt_in;
  while (stmt.size() >= 2 && stmt[0].kind == Token::Kind::kIdent &&
         (stmt[0].text == "public" || stmt[0].text == "private" ||
          stmt[0].text == "protected") &&
         is_punct(stmt[1], ":")) {
    stmt.erase(stmt.begin(), stmt.begin() + 2);
  }
  if (stmt.size() < 2) return;
  for (const Token& t : stmt) {
    if (t.kind == Token::Kind::kIdent &&
        (t.text == "using" || t.text == "typedef" || t.text == "friend" ||
         t.text == "static_assert" || t.text == "template" || t.text == "operator" ||
         t.text == "enum" || t.text == "namespace")) {
      return;
    }
  }
  std::size_t paren = stmt.size();
  std::size_t assign = stmt.size();
  int depth = 0;
  for (std::size_t i = 0; i < stmt.size(); ++i) {
    if (is_punct(stmt[i], "(")) {
      if (depth == 0 && paren == stmt.size()) paren = i;
      ++depth;
    } else if (is_punct(stmt[i], ")")) {
      --depth;
    } else if (depth == 0 && assign == stmt.size() && is_punct(stmt[i], "=")) {
      assign = i;
    }
  }
  if (paren < assign) return;  // method declaration
  auto decl = parse_decl(stmt, 0, stmt.size());
  if (decl) members[decl->name] = decl->type;
}

/// Parses the RngStreamTag registry out of a file's token stream. Auto
/// increment follows C++ enum semantics; only single-number initializers
/// are evaluated (the registry is expected to use plain literals).
void collect_rng_registry(const std::vector<Token>& toks, const std::string& file,
                          std::vector<RngTagDef>& out) {
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!is_ident(toks[i], "enum")) continue;
    std::size_t j = i + 1;
    if (j < toks.size() && (is_ident(toks[j], "class") || is_ident(toks[j], "struct"))) ++j;
    if (j >= toks.size() || !is_ident(toks[j], "RngStreamTag")) continue;
    ++j;
    while (j < toks.size() && !is_punct(toks[j], "{")) ++j;  // underlying type
    if (j >= toks.size()) return;
    const std::size_t close = match_close(toks, j, "{", "}");
    std::uint64_t next_value = 0;
    for (std::size_t k = j + 1; k < close; ++k) {
      if (toks[k].kind != Token::Kind::kIdent) continue;
      RngTagDef def;
      def.name = toks[k].text;
      def.file = file;
      def.line = toks[k].line;
      def.value = next_value;
      std::size_t m = k + 1;
      if (m < close && is_punct(toks[m], "=")) {
        std::vector<Token> init;
        int paren = 0;
        for (++m; m < close; ++m) {
          if (is_punct(toks[m], "(")) ++paren;
          if (is_punct(toks[m], ")")) --paren;
          if (paren == 0 && is_punct(toks[m], ",")) break;
          init.push_back(toks[m]);
        }
        if (init.size() == 1 && init[0].kind == Token::Kind::kNumber) {
          std::string digits = init[0].text;
          while (!digits.empty() && std::isalpha(static_cast<unsigned char>(digits.back()))) {
            digits.pop_back();  // integer suffixes (u, ull, ...)
          }
          try {
            def.value = std::stoull(digits, nullptr, 0);
          } catch (...) {
            // non-numeric initializer: keep the auto-increment value
          }
        }
      } else {
        while (m < close && !is_punct(toks[m], ",")) ++m;
      }
      next_value = def.value + 1;
      out.push_back(def);
      k = m;  // continue after the ',' (loop ++k steps past it)
    }
    i = close;
  }
}

struct LockScope {
  std::string id;
  int depth = 0;
};

/// Pass 2 over one function body: local-type map first (parameters, then
/// declarations as they appear), then calls / locks / blocking ops /
/// Rng::stream uses in token order.
void scan_body(FunctionDef& fn, const LexedFile& lexed, const BodySpan& span,
               const ClassMembers& classes, std::vector<RngStreamUse>& rng_uses) {
  const auto& toks = lexed.tokens;

  std::map<std::string, std::string> local_types;
  for (const auto& group : split_args(span.params, 0, span.params.size())) {
    // Strip a trailing `= default` before parsing the declarator.
    std::size_t end = group.size();
    for (std::size_t i = 0; i < group.size(); ++i) {
      if (is_punct(group[i], "=")) {
        end = i;
        break;
      }
    }
    auto decl = parse_decl(group, 0, end);
    if (decl) local_types[decl->name] = decl->type;
  }

  auto member_type = [&](const std::string& name) -> std::string {
    auto lt = local_types.find(name);
    if (lt != local_types.end()) return lt->second;
    if (!fn.class_name.empty()) {
      auto ct = classes.find(fn.class_name);
      if (ct != classes.end()) {
        auto mt = ct->second.find(name);
        if (mt != ct->second.end()) return mt->second;
      }
    }
    return "";
  };

  int depth = 1;
  int paren_depth = 0;
  std::vector<LockScope> lock_stack;
  bool stmt_start = true;
  std::set<std::pair<int, std::string>> io_seen;  // dedupe stream mentions per line

  auto held_ids = [&] {
    std::vector<std::string> ids;
    ids.reserve(lock_stack.size());
    for (const LockScope& l : lock_stack) ids.push_back(l.id);
    return ids;
  };

  for (std::size_t i = span.begin; i < span.end; ++i) {
    const Token& t = toks[i];
    if (is_punct(t, "{")) {
      ++depth;
      stmt_start = true;
      continue;
    }
    if (is_punct(t, "}")) {
      --depth;
      while (!lock_stack.empty() && lock_stack.back().depth > depth) lock_stack.pop_back();
      stmt_start = true;
      continue;
    }
    if (is_punct(t, ";")) {
      stmt_start = true;
      continue;
    }
    if (is_punct(t, "(")) ++paren_depth;
    if (is_punct(t, ")")) --paren_depth;
    if (t.kind != Token::Kind::kIdent) {
      stmt_start = false;
      continue;
    }
    const bool at_stmt_start = stmt_start;
    stmt_start = false;

    // Lock-guard declaration: `MutexLock lock(mutex_);` (or brace-init).
    if (is_lock_guard_type(t.text)) {
      std::size_t j = i + 1;
      if (j < span.end && is_punct(toks[j], "<")) j = skip_angles(toks, j);
      if (j + 1 < span.end && toks[j].kind == Token::Kind::kIdent &&
          (is_punct(toks[j + 1], "(") || is_punct(toks[j + 1], "{"))) {
        const bool brace = is_punct(toks[j + 1], "{");
        const std::size_t close = match_close(toks, j + 1, brace ? "{" : "(",
                                              brace ? "}" : ")");
        auto groups = split_args(toks, j + 2, std::min(close, span.end));
        // scoped_lock locks every argument; unique_lock/shared_lock may
        // carry a tag argument -- only the first is the mutex.
        const std::size_t nlocks =
            t.text == "scoped_lock" ? groups.size() : std::min<std::size_t>(1, groups.size());
        for (std::size_t g = 0; g < nlocks; ++g) {
          const std::string id = lock_id(groups[g], fn, local_types);
          LockAcquisition acq;
          acq.lock = id;
          acq.line = t.line;
          acq.held = held_ids();
          fn.locks.push_back(acq);
          fn.blocking.push_back({BlockKind::kLock, t.text + "(" + id + ")", t.line});
          lock_stack.push_back({id, depth});
        }
        continue;
      }
    }

    // Bare iostream / file-stream mentions (not call syntax).
    static const std::set<std::string> kIoIdents = {"cout", "cerr", "clog",
                                                    "ofstream", "ifstream", "fstream"};
    if (kIoIdents.count(t.text) != 0) {
      if (io_seen.insert({t.line, t.text}).second) {
        fn.blocking.push_back({BlockKind::kIo, "std::" + t.text, t.line});
      }
      continue;
    }

    // Local declaration: `Type name ...` at statement start (outside parens).
    if (at_stmt_start && paren_depth == 0) {
      auto decl = parse_decl(toks, i, span.end);
      if (decl && decl->next < span.end &&
          (is_punct(toks[decl->next], ";") || is_punct(toks[decl->next], "=") ||
           is_punct(toks[decl->next], "(") || is_punct(toks[decl->next], "{"))) {
        local_types[decl->name] = decl->type;
        // fall through: the tokens are still scanned (a `Type name(args)`
        // init is not a call because its previous token is an identifier)
      }
    }

    // Call site: `ident (` with a non-declaration context.
    if (i + 1 >= span.end || !is_punct(toks[i + 1], "(")) continue;
    if (is_keyword(t.text) && t.text != "this") continue;
    const Token* prev = i > span.begin ? &toks[i - 1] : nullptr;
    if (prev != nullptr) {
      if (prev->kind == Token::Kind::kIdent && !is_keyword(prev->text)) continue;  // decl
      if (is_punct(*prev, ">") && !(i >= 2 && is_punct(toks[i - 2], "-"))) continue;
      if (is_punct(*prev, "~")) continue;  // destructor call
    }

    CallSite call;
    call.name = t.text;
    call.line = t.line;
    call.held_locks = held_ids();
    if (prev != nullptr && is_punct(*prev, ".") && i >= 2) {
      call.is_method_syntax = true;
      if (toks[i - 2].kind == Token::Kind::kIdent) {
        const std::string ty = member_type(toks[i - 2].text);
        call.receiver_type = ty.empty() ? "?" : ty;
      } else {
        call.receiver_type = "?";
      }
    } else if (prev != nullptr && is_punct(*prev, ">") && i >= 3 &&
               is_punct(toks[i - 2], "-")) {
      call.is_method_syntax = true;
      if (toks[i - 3].kind == Token::Kind::kIdent) {
        const std::string recv = toks[i - 3].text;
        if (recv == "this") {
          call.receiver_type = fn.class_name.empty() ? "?" : fn.class_name;
        } else {
          const std::string ty = member_type(recv);
          call.receiver_type = ty.empty() ? "?" : ty;
        }
      } else {
        call.receiver_type = "?";
      }
    } else if (prev != nullptr && is_punct(*prev, ":") && i >= 3 &&
               is_punct(toks[i - 2], ":") && toks[i - 3].kind == Token::Kind::kIdent) {
      call.class_qual = toks[i - 3].text;
    }

    // Rng::stream(seed, TAG, ...): record the tag argument for R10.
    if (call.class_qual == "Rng" && call.name == "stream") {
      const std::size_t close = match_close(toks, i + 1, "(", ")");
      auto groups = split_args(toks, i + 2, std::min(close, span.end));
      if (groups.size() >= 2) {
        static const std::set<std::string> kTagNoise = {
            "static_cast", "std", "uint64_t", "uint32_t", "uint16_t", "uint8_t",
            "size_t", "unsigned", "long", "int", "RngStreamTag", "const"};
        RngStreamUse use;
        use.file = fn.file;
        use.line = t.line;
        bool has_number = false;
        for (const Token& a : groups[1]) {
          if (a.kind == Token::Kind::kNumber) has_number = true;
          if (a.kind == Token::Kind::kIdent && kTagNoise.count(a.text) == 0) {
            use.tag_name = a.text;
          }
        }
        use.literal = use.tag_name.empty() && has_number;
        rng_uses.push_back(use);
      }
    }

    // Blocking-operation classification by callee name (R11). The graph
    // edge catches the callee's own blocking ops too; classifying here
    // anchors the finding at the call site with a better message.
    static const std::set<std::string> kPoolNames = {"submit", "parallel_for", "wait",
                                                     "wait_for", "wait_until", "sleep_for",
                                                     "sleep_until", "join"};
    static const std::set<std::string> kIoCalls = {"fopen", "fclose", "fread", "fwrite",
                                                   "fprintf", "printf", "fputs", "fgets",
                                                   "fflush", "getline", "system"};
    if (kPoolNames.count(call.name) != 0 &&
        (call.is_method_syntax || call.class_qual == "ThreadPool")) {
      fn.blocking.push_back({BlockKind::kPool, call.name + "()", t.line});
    } else if (kIoCalls.count(call.name) != 0) {
      fn.blocking.push_back({BlockKind::kIo, call.name + "()", t.line});
    } else if (call.is_method_syntax && call.name == "lock") {
      fn.blocking.push_back({BlockKind::kLock, call.receiver_type + ".lock()", t.line});
    } else if (call.is_method_syntax &&
               (call.name == "insert" || call.name == "emplace" ||
                call.name == "emplace_hint")) {
      static const std::set<std::string> kNodeContainers = {"map", "set", "multimap",
                                                            "multiset"};
      if (kNodeContainers.count(call.receiver_type) != 0) {
        fn.blocking.push_back(
            {BlockKind::kAlloc, "std::" + call.receiver_type + "::" + call.name + "()",
             t.line});
      }
    }

    fn.calls.push_back(std::move(call));
  }
}

}  // namespace

std::vector<UnorderedIteration> collect_unordered_iterations(const LexedFile& lexed) {
  const auto& toks = lexed.tokens;
  std::vector<UnorderedIteration> out;

  // Pass 1: names declared with an unordered container type.
  std::set<std::string> unordered_names;
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent || kUnordered.count(toks[i].text) == 0) continue;
    std::size_t j = i + 1;
    if (j < toks.size() && is_punct(toks[j], "<")) {
      int depth = 1;
      for (++j; j < toks.size() && depth > 0; ++j) {
        if (is_punct(toks[j], "<")) ++depth;
        if (is_punct(toks[j], ">")) --depth;
      }
    }
    while (j < toks.size() &&
           (is_punct(toks[j], "&") || is_punct(toks[j], "*") || is_ident(toks[j], "const"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == Token::Kind::kIdent) {
      unordered_names.insert(toks[j].text);
    }
  }
  if (unordered_names.empty()) return out;

  // Pass 2a: range-for over a tracked name.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "for") || !is_punct(toks[i + 1], "(")) continue;
    int depth = 1;
    std::size_t colon = 0;
    std::size_t j = i + 2;
    for (; j < toks.size() && depth > 0; ++j) {
      if (is_punct(toks[j], "(")) ++depth;
      if (is_punct(toks[j], ")")) --depth;
      // A single ':' at paren depth 1 (not part of '::') is the range-for colon.
      if (depth == 1 && colon == 0 && is_punct(toks[j], ":") &&
          !is_punct(toks[j - 1], ":") &&
          (j + 1 >= toks.size() || !is_punct(toks[j + 1], ":"))) {
        colon = j;
      }
    }
    if (colon == 0) continue;
    for (std::size_t k = colon + 1; k < j - 1; ++k) {
      if (toks[k].kind == Token::Kind::kIdent && unordered_names.count(toks[k].text) != 0) {
        out.push_back({toks[k].text, toks[k].line, k, false});
        break;
      }
    }
  }

  // Pass 2b: explicit iterator walks / algorithm calls: name.begin() etc.
  static const std::set<std::string> kBegin = {"begin", "cbegin", "rbegin", "crbegin"};
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind == Token::Kind::kIdent && unordered_names.count(toks[i].text) != 0 &&
        is_punct(toks[i + 1], ".") && toks[i + 2].kind == Token::Kind::kIdent &&
        kBegin.count(toks[i + 2].text) != 0) {
      out.push_back({toks[i].text, toks[i].line, i, true});
    }
  }
  return out;
}

namespace {

/// Pass 1 over one file: the scope machine. Produces function skeletons
/// (name/class/file/line), their body spans, the file's class-member types
/// and its RngStreamTag registry enumerators.
FileFacts scan_file_facts(const std::string& path, const LexedFile& lexed,
                          std::vector<BodySpan>& spans) {
  FileFacts facts;
  {
    const auto& toks = lexed.tokens;
    collect_rng_registry(toks, path, facts.rng_tags);

    enum class ScopeKind { kNamespace, kClass, kFunction, kOther };
    struct Scope {
      ScopeKind kind;
      std::string class_name;     // kClass only
      std::size_t span_index;     // kFunction only; npos otherwise
      std::vector<Token> saved_stmt;
      bool continues_stmt;
    };
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::vector<Scope> stack;
    std::vector<Token> stmt;
    int function_depth = 0;

    auto contains_ident = [](const std::vector<Token>& s,
                             std::initializer_list<const char*> names) {
      for (const Token& t : s) {
        if (t.kind != Token::Kind::kIdent) continue;
        for (const char* name : names) {
          if (t.text == name) return true;
        }
      }
      return false;
    };

    auto enclosing_class = [&]() -> std::string {
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (it->kind == ScopeKind::kClass) return it->class_name;
      }
      return "";
    };

    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (is_punct(t, "{")) {
        ScopeKind kind = ScopeKind::kOther;
        bool continues = false;
        std::size_t span_index = kNone;
        if (function_depth > 0) {
          // Inside a function body every brace is opaque to the machine;
          // scan_body re-walks the span with its own depth tracking.
          kind = ScopeKind::kOther;
        } else {
          int paren_depth = 0;
          std::size_t depth0_assign = stmt.size();
          std::size_t depth0_paren = stmt.size();
          bool has_parens = false;
          for (std::size_t k = 0; k < stmt.size(); ++k) {
            if (is_punct(stmt[k], "(")) {
              if (paren_depth == 0 && depth0_paren == stmt.size()) depth0_paren = k;
              ++paren_depth;
              has_parens = true;
            } else if (is_punct(stmt[k], ")")) {
              --paren_depth;
            } else if (paren_depth == 0 && depth0_assign == stmt.size() &&
                       is_punct(stmt[k], "=")) {
              depth0_assign = k;
            }
          }
          if (contains_ident(stmt, {"namespace"})) {
            kind = ScopeKind::kNamespace;
          } else if (contains_ident(stmt, {"class", "struct", "union", "enum"})) {
            kind = ScopeKind::kClass;
            continues = true;
          } else if (stmt.empty()) {
            kind = ScopeKind::kOther;
          } else if (depth0_assign != stmt.size()) {
            kind = ScopeKind::kOther;  // brace initializer after '='
            continues = true;
          } else if (has_parens || is_punct(stmt.back(), ")")) {
            kind = ScopeKind::kFunction;
            // Extract the declarator around the first top-level '('.
            if (depth0_paren != stmt.size() && depth0_paren > 0 &&
                stmt[depth0_paren - 1].kind == Token::Kind::kIdent &&
                !is_keyword(stmt[depth0_paren - 1].text) &&
                !contains_ident(stmt, {"operator"})) {
              FunctionDef fn;
              fn.name = stmt[depth0_paren - 1].text;
              fn.line = stmt[depth0_paren - 1].line;
              fn.file = path;
              if (depth0_paren >= 4 && is_punct(stmt[depth0_paren - 2], ":") &&
                  is_punct(stmt[depth0_paren - 3], ":") &&
                  stmt[depth0_paren - 4].kind == Token::Kind::kIdent) {
                fn.class_name = stmt[depth0_paren - 4].text;  // out-of-line method
              } else {
                fn.class_name = enclosing_class();
              }
              BodySpan span;
              span.fn_index = facts.functions.size();
              const std::size_t close =
                  [&] {  // matching ')' of the parameter list within stmt
                    int d = 0;
                    for (std::size_t k = depth0_paren; k < stmt.size(); ++k) {
                      if (is_punct(stmt[k], "(")) ++d;
                      if (is_punct(stmt[k], ")") && --d == 0) return k;
                    }
                    return stmt.size();
                  }();
              span.params.assign(stmt.begin() + depth0_paren + 1,
                                 stmt.begin() + std::min(close, stmt.size()));
              span.begin = i + 1;  // body tokens; end patched at the close brace
              facts.functions.push_back(std::move(fn));
              span_index = spans.size();
              spans.push_back(std::move(span));
            }
          } else if (stmt.back().kind == Token::Kind::kIdent ||
                     is_punct(stmt.back(), ">") || is_punct(stmt.back(), "]")) {
            kind = ScopeKind::kOther;  // direct brace init: Type name{...}
            continues = true;
          }
        }
        std::string cls;
        if (kind == ScopeKind::kClass && !contains_ident(stmt, {"enum"})) {
          cls = class_name_from_stmt(stmt);
        }
        if (kind == ScopeKind::kFunction) ++function_depth;
        stack.push_back({kind, cls, span_index,
                         continues ? stmt : std::vector<Token>{}, continues});
        stmt.clear();
      } else if (is_punct(t, "}")) {
        if (!stack.empty()) {
          Scope top = std::move(stack.back());
          stack.pop_back();
          if (top.kind == ScopeKind::kFunction) {
            --function_depth;
            if (top.span_index != kNone) spans[top.span_index].end = i;
          }
          stmt.clear();
          if (top.continues_stmt) {
            stmt = std::move(top.saved_stmt);
            stmt.push_back({Token::Kind::kPunct, "@body", 0});
          }
        }
      } else if (is_punct(t, ";")) {
        if (!stack.empty() && stack.back().kind == ScopeKind::kClass &&
            !stack.back().class_name.empty() && function_depth == 0) {
          record_member(stmt, facts.class_members[stack.back().class_name]);
        }
        stmt.clear();
      } else {
        stmt.push_back(t);
      }
    }
  }
  return facts;
}

/// Pass 2 over one file: scans each body span with the *global* merged
/// class-member map (so out-of-line methods resolve receivers declared in
/// another file's class body) and attributes the file's unordered
/// iterations and floating-point accumulations to the enclosing function.
void finish_file_facts(FileFacts& facts, const LexedFile& lexed,
                       const std::vector<BodySpan>& spans,
                       const ClassMembers& class_members) {
  for (const BodySpan& span : spans) {
    if (span.end <= span.begin) continue;  // unterminated body (lex anomaly)
    FunctionDef& fn = facts.functions[span.fn_index];
    scan_body(fn, lexed, span, class_members, facts.rng_uses);
  }

  // Attribute the file's unordered-container iterations (the shared R2
  // detector) and floating-point loop accumulations (the R14 detector) to
  // the function whose body span contains the token.
  for (const UnorderedIteration& it : collect_unordered_iterations(lexed)) {
    for (const BodySpan& span : spans) {
      if (it.token_index < span.begin || it.token_index >= span.end) continue;
      facts.functions[span.fn_index].unordered.push_back(it);
      break;
    }
  }
  for (const FpAccumulation& acc : collect_fp_accumulations(lexed)) {
    for (const BodySpan& span : spans) {
      if (acc.token_index < span.begin || acc.token_index >= span.end) continue;
      facts.functions[span.fn_index].fp_accums.push_back(acc);
      break;
    }
  }
}

/// Merges finished per-file facts -- in file order, which is the scan
/// set's sorted order, so the graph is deterministic -- and builds the
/// name/qualified indexes.
CallGraph assemble_call_graph(const std::vector<FileFacts>& facts) {
  CallGraph graph;
  for (const FileFacts& file : facts) {
    graph.functions.insert(graph.functions.end(), file.functions.begin(),
                           file.functions.end());
    graph.rng_tags.insert(graph.rng_tags.end(), file.rng_tags.begin(),
                          file.rng_tags.end());
    graph.rng_uses.insert(graph.rng_uses.end(), file.rng_uses.begin(),
                          file.rng_uses.end());
  }
  for (std::size_t i = 0; i < graph.functions.size(); ++i) {
    const FunctionDef& fn = graph.functions[i];
    graph.by_name[fn.name].push_back(i);
    graph.by_qualified[fn.qualified()].push_back(i);
    if (!fn.class_name.empty()) graph.classes.insert(fn.class_name);
  }
  return graph;
}

}  // namespace

CallGraph build_call_graph(
    const std::vector<std::pair<std::string, const LexedFile*>>& files) {
  // Pass 1 per file, then a merged class-member map (last declaration in
  // file order wins, matching the historical single-map behavior), then
  // pass 2 per file against the merged map.
  std::vector<FileFacts> facts;
  std::vector<std::vector<BodySpan>> spans(files.size());
  facts.reserve(files.size());
  for (std::size_t f = 0; f < files.size(); ++f) {
    facts.push_back(scan_file_facts(files[f].first, *files[f].second, spans[f]));
  }
  ClassMembers merged;
  for (const FileFacts& file : facts) {
    for (const auto& [cls, members] : file.class_members) {
      for (const auto& [name, type] : members) merged[cls][name] = type;
    }
  }
  for (std::size_t f = 0; f < files.size(); ++f) {
    finish_file_facts(facts[f], *files[f].second, spans[f], merged);
  }
  return assemble_call_graph(facts);
}

std::vector<std::size_t> CallGraph::resolve(const CallSite& call,
                                            const FunctionDef& caller) const {
  auto lookup = [&](const std::string& key) -> std::vector<std::size_t> {
    auto it = by_qualified.find(key);
    return it == by_qualified.end() ? std::vector<std::size_t>{} : it->second;
  };
  if (!call.class_qual.empty()) {
    auto hits = lookup(call.class_qual + "::" + call.name);
    if (!hits.empty()) return hits;
    // Unknown qualifier: treat as a namespace qualifier over free functions
    // (`detail::helper(...)`) -- but never fall back when the qualifier IS a
    // known class (an undefined static method resolves to nothing).
    if (classes.count(call.class_qual) == 0) return lookup(call.name);
    return {};
  }
  if (call.is_method_syntax) {
    if (call.receiver_type != "?" && !call.receiver_type.empty()) {
      return lookup(call.receiver_type + "::" + call.name);
    }
    // Unresolvable receiver: follow the edge only when every definition of
    // this bare name lives in one class. Ambiguity produces no edge.
    auto it = by_name.find(call.name);
    if (it == by_name.end()) return {};
    const std::string& cls = functions[it->second.front()].class_name;
    if (cls.empty()) return {};
    for (std::size_t idx : it->second) {
      if (functions[idx].class_name != cls) return {};
    }
    return it->second;
  }
  // Unqualified call: the enclosing class's overload set wins, then free
  // functions of that name.
  if (!caller.class_name.empty()) {
    auto hits = lookup(caller.class_name + "::" + call.name);
    if (!hits.empty()) return hits;
  }
  return lookup(call.name);
}

std::vector<std::pair<std::string, std::string>> call_graph_edges(const CallGraph& graph) {
  std::vector<std::pair<std::string, std::string>> edges;
  for (const FunctionDef& fn : graph.functions) {
    for (const CallSite& call : fn.calls) {
      for (std::size_t target : graph.resolve(call, fn)) {
        edges.emplace_back(fn.qualified(), graph.functions[target].qualified());
      }
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return edges;
}

}  // namespace parva::audit
