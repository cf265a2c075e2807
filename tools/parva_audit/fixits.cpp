#include "fixits.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>

#include "internal.hpp"

namespace parva::audit {
namespace {

/// Byte offset of the start of each 1-based line; one trailing entry for
/// the end of the content so line lengths are derivable.
std::vector<std::size_t> line_starts(const std::string& content) {
  std::vector<std::size_t> starts = {0};
  for (std::size_t i = 0; i < content.size(); ++i) {
    if (content[i] == '\n') starts.push_back(i + 1);
  }
  starts.push_back(content.size() + 1);  // sentinel past-the-end
  return starts;
}

/// The raw text of 1-based `line`, without its newline.
std::string line_text(const std::string& content,
                      const std::vector<std::size_t>& starts, int line) {
  if (line < 1 || static_cast<std::size_t>(line) + 1 >= starts.size()) return "";
  const std::size_t b = starts[static_cast<std::size_t>(line) - 1];
  std::size_t e = starts[static_cast<std::size_t>(line)];
  if (e > b && e <= content.size() + 1) --e;  // drop '\n' (or the sentinel)
  if (e > content.size()) e = content.size();
  while (e > b && content[e - 1] == '\r') --e;
  return content.substr(b, e - b);
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// ---------------------------------------------------------------- R4 ----

/// Insert `#pragma once` on the first line that is not a `//` comment --
/// directly after the file's leading comment block, before any blank line
/// or code.
void fix_r4_pragma(const std::string& content, Finding& finding) {
  const std::vector<std::size_t> starts = line_starts(content);
  int line = 1;
  const int last = static_cast<int>(starts.size()) - 1;
  while (line <= last) {
    const std::string text = line_text(content, starts, line);
    std::size_t first = text.find_first_not_of(" \t");
    if (first == std::string::npos || text.compare(first, 2, "//") != 0) break;
    ++line;
  }
  finding.fix_description = "insert `#pragma once` after the leading comment";
  finding.fix_edits.push_back({line, 1, 0, "#pragma once\n"});
}

// ---------------------------------------------------------------- R6 ----

/// Insert `[[nodiscard]] ` before the declaration whose return type sits on
/// the finding's line: find the status-type word, then walk left over
/// declaration specifiers and the type's qualification chain.
void fix_r6_nodiscard(const std::string& content, Finding& finding) {
  static const std::set<std::string> kStatusTypes = {"NvmlReturn", "ErrorCode",
                                                     "Status", "Result"};
  static const std::set<std::string> kSpecifiers = {
      "static", "virtual", "inline", "constexpr", "consteval",
      "extern", "friend", "explicit", "mutable"};
  const std::vector<std::size_t> starts = line_starts(content);
  const std::string text = line_text(content, starts, finding.line);

  // First whole-word occurrence of a status type on the line.
  std::size_t type_pos = std::string::npos;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (!ident_char(text[i]) || (i > 0 && ident_char(text[i - 1]))) continue;
    std::size_t j = i;
    while (j < text.size() && ident_char(text[j])) ++j;
    if (kStatusTypes.count(text.substr(i, j - i)) != 0) {
      type_pos = i;
      break;
    }
  }
  if (type_pos == std::string::npos) return;

  std::size_t col = type_pos;  // 0-based insertion byte
  for (;;) {
    std::size_t e = col;
    while (e > 0 && (text[e - 1] == ' ' || text[e - 1] == '\t')) --e;
    if (e >= 2 && text[e - 1] == ':' && text[e - 2] == ':') {
      // Qualification chain `ns::Type`: hop over `::` and its identifier.
      std::size_t b = e - 2;
      while (b > 0 && ident_char(text[b - 1])) --b;
      if (b == e - 2) return;  // `::Type` at line start or stray colon: bail
      col = b;
      continue;
    }
    if (e == 0) {
      col = 0;
      break;
    }
    if (!ident_char(text[e - 1])) break;  // `;`, `{`, `(`, ... : stop here
    std::size_t b = e;
    while (b > 0 && ident_char(text[b - 1])) --b;
    if (kSpecifiers.count(text.substr(b, e - b)) == 0) break;
    col = b;
  }

  finding.fix_description = "declare the status-returning function [[nodiscard]]";
  finding.fix_edits.push_back(
      {finding.line, static_cast<int>(col) + 1, 0, "[[nodiscard]] "});
}

// ---------------------------------------------------------------- R10 ----

/// Rewrite a literal `Rng::stream(seed, 7, ...)` tag to the RngStreamTag
/// enumerator registered with that value. Single-line calls only: the tag
/// argument and the closing paren must share the finding's line.
void fix_r10_tag(const std::string& content,
                 const std::map<std::uint64_t, std::string>& tags_by_value,
                 Finding& finding) {
  const std::vector<std::size_t> starts = line_starts(content);
  const std::string text = line_text(content, starts, finding.line);

  const std::size_t stream_pos = text.find("stream");
  if (stream_pos == std::string::npos) return;
  std::size_t open = stream_pos + 6;
  while (open < text.size() && (text[open] == ' ' || text[open] == '\t')) ++open;
  if (open >= text.size() || text[open] != '(') return;

  // The second top-level argument's byte range.
  int depth = 0;
  int arg = 0;
  std::size_t arg_begin = open + 1;
  std::size_t tag_begin = std::string::npos;
  std::size_t tag_end = std::string::npos;
  for (std::size_t i = open; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') {
      if (--depth == 0) {
        if (arg == 1) {
          tag_begin = arg_begin;
          tag_end = i;
        }
        break;
      }
    }
    if (depth == 1 && c == ',') {
      if (arg == 1) {
        tag_begin = arg_begin;
        tag_end = i;
        break;
      }
      ++arg;
      arg_begin = i + 1;
    }
  }
  if (tag_begin == std::string::npos) return;  // multi-line call: no fix
  while (tag_begin < tag_end && (text[tag_begin] == ' ' || text[tag_begin] == '\t')) {
    ++tag_begin;
  }
  while (tag_end > tag_begin &&
         (text[tag_end - 1] == ' ' || text[tag_end - 1] == '\t')) {
    --tag_end;
  }
  const std::string literal = text.substr(tag_begin, tag_end - tag_begin);
  if (literal.empty()) return;
  std::size_t digits = 0;
  while (digits < literal.size() &&
         std::isdigit(static_cast<unsigned char>(literal[digits])) != 0) {
    ++digits;
  }
  if (digits == 0) return;
  for (std::size_t i = digits; i < literal.size(); ++i) {
    const char c = literal[i];
    if (c != 'u' && c != 'U' && c != 'l' && c != 'L' && c != '\'') return;
  }
  const std::uint64_t value =
      std::strtoull(literal.substr(0, digits).c_str(), nullptr, 10);
  const auto it = tags_by_value.find(value);
  if (it == tags_by_value.end()) return;  // unregistered value: nothing to name

  finding.fix_description =
      "replace the literal tag with RngStreamTag::" + it->second;
  finding.fix_edits.push_back({finding.line, static_cast<int>(tag_begin) + 1,
                               static_cast<int>(tag_end - tag_begin),
                               "RngStreamTag::" + it->second});
}

}  // namespace

void attach_fixits(const std::vector<std::pair<std::string, std::string>>& files,
                   const std::vector<RngTagDef>& rng_tags,
                   std::vector<Finding>& findings) {
  std::map<std::string, const std::string*> by_path;
  for (const auto& [path, content] : files) by_path[path] = &content;
  std::map<std::uint64_t, std::string> tags_by_value;
  for (const RngTagDef& tag : rng_tags) tags_by_value.emplace(tag.value, tag.name);

  for (Finding& f : findings) {
    const auto file = by_path.find(f.file);
    if (file == by_path.end()) continue;
    const std::string& content = *file->second;
    if (f.rule == "R4" && f.message == "header is missing #pragma once") {
      fix_r4_pragma(content, f);
    } else if (f.rule == "R6" &&
               f.message.find("is not declared [[nodiscard]]") != std::string::npos) {
      fix_r6_nodiscard(content, f);
    } else if (f.rule == "R10" &&
               f.message.compare(0, 22, "literal RNG stream tag") == 0) {
      fix_r10_tag(content, tags_by_value, f);
    }
  }
}

std::size_t apply_fix_edits(const std::string& path,
                            const std::vector<Finding>& findings,
                            std::string& content) {
  struct Planned {
    std::size_t offset = 0;
    std::size_t length = 0;
    const std::string* text = nullptr;
    std::size_t finding_idx = 0;
  };
  const std::vector<std::size_t> starts = line_starts(content);
  std::vector<Planned> plan;
  std::set<std::size_t> applied;
  for (std::size_t fi = 0; fi < findings.size(); ++fi) {
    const Finding& f = findings[fi];
    if (f.file != path || f.fix_edits.empty()) continue;
    bool ok = true;
    std::vector<Planned> local;
    for (const FixEdit& e : f.fix_edits) {
      if (e.line < 1 || static_cast<std::size_t>(e.line) + 1 >= starts.size() ||
          e.column < 1 || e.length < 0) {
        ok = false;
        break;
      }
      const std::size_t line_b = starts[static_cast<std::size_t>(e.line) - 1];
      std::size_t line_e = starts[static_cast<std::size_t>(e.line)];
      if (line_e > 0) --line_e;  // the '\n' (or the sentinel's overshoot)
      if (line_e > content.size()) line_e = content.size();
      const std::size_t offset = line_b + static_cast<std::size_t>(e.column) - 1;
      if (offset > line_e || offset + static_cast<std::size_t>(e.length) > content.size()) {
        ok = false;
        break;
      }
      local.push_back({offset, static_cast<std::size_t>(e.length), &e.text, fi});
    }
    if (!ok) continue;  // stale fix: skip the whole finding
    plan.insert(plan.end(), local.begin(), local.end());
    applied.insert(fi);
  }
  // Highest offset first: applied edits never shift a pending one. Ties
  // (two inserts at one offset) apply in reverse finding order, which keeps
  // the first finding's text first in the file.
  std::stable_sort(plan.begin(), plan.end(), [](const Planned& a, const Planned& b) {
    return a.offset > b.offset;
  });
  for (const Planned& p : plan) {
    content.replace(p.offset, p.length, *p.text);
  }
  return applied.size();
}

}  // namespace parva::audit
