// hipcloud_flow token model — the analyzer's one tokenizer, with file
// attribution so tokens survive preprocessing. A translation unit's
// token stream interleaves tokens from the .cpp and from every project
// header it pulls in; each token remembers the physical file and line it
// came from, which is where findings (and their hipcheck:allow pragmas)
// are reported. The per-file lint rules lex each physical file's raw
// text with the same function.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hipflow {

/// Index into the analyzer's file table (paths are interned once so a
/// token costs one int, not one std::string copy of the path).
using FileId = std::uint32_t;

struct Token {
  std::string text;
  FileId file = 0;
  int line = 0;
};

/// Lex one physical file's source into tokens. Comments, string/char
/// literals and raw strings are stripped (their line counts preserved);
/// `::` and `->` fold into single tokens so rule patterns can tell scope
/// resolution from a plain colon. The preprocessor consumes directive
/// lines itself and only hands non-directive text to the lexer; the
/// per-file lint pass lexes whole files, directives included.
std::vector<Token> lex(const std::string& src, FileId file, int first_line);

}  // namespace hipflow
