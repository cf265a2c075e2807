// Fix-it engine: machine-applicable replacements for the mechanical rules.
//
//   R4  missing #pragma once        -> insert it after the leading comment
//   R6  missing [[nodiscard]]       -> insert before the declaration
//   R10 literal Rng::stream tag     -> rewrite to the registered enumerator
//
// Fixes ride on Finding.fix_description / Finding.fix_edits: report.cpp
// emits them into SARIF `fixes`, and main.cpp's --fix applies them to the
// working tree. attach_fixits() is deterministic and derived purely from
// (file contents, RngStreamTag registry, findings).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "audit.hpp"
#include "callgraph.hpp"

namespace parva::audit {

/// Attaches fix edits to every finding in `findings` that one of the
/// supported rules produced, leaving the rest untouched. `files` is the
/// audited scan set (path -> content); findings for paths outside it keep
/// no fix. `rng_tags` is the RngStreamTag registry from the call graph
/// (empty when R10 did not run: no R10 findings exist then either).
void attach_fixits(const std::vector<std::pair<std::string, std::string>>& files,
                   const std::vector<RngTagDef>& rng_tags,
                   std::vector<Finding>& findings);

/// Applies every fix whose finding targets `path` to `content`, in reverse
/// document order so earlier edits never shift later offsets. Returns the
/// number of findings whose fixes were applied. Edits that fall outside the
/// content (stale line numbers) are skipped, not clamped.
std::size_t apply_fix_edits(const std::string& path,
                            const std::vector<Finding>& findings,
                            std::string& content);

}  // namespace parva::audit
