// hipcloud_flow translation-unit model.
//
// The preprocessor is what the per-file lint rules do without: it
// resolves `#include "..."` against the project include directories,
// inlines each project header once per TU (tracking the include stack, so
// textual include cycles are caught even though `#pragma once` would mask
// them at compile time), records every include edge with its source
// location, and keeps a table of object-like `#define`s which it expands
// (depth-limited) in the token stream. System includes (`<...>`) and
// unresolvable quotes are recorded as edges but not descended into.
//
// Conditional compilation is handled permissively: `#if 0` blocks are
// skipped, every other branch contributes tokens. For analysis purposes
// seeing both sides of an `#ifdef` is strictly more conservative than
// picking one.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "token.hpp"

namespace hipflow {

/// One `#include` directive as seen in a physical file.
struct IncludeEdge {
  FileId from;
  std::string target;    // include text as written ("sim/log.hpp", "vector")
  std::string resolved;  // root-relative path if resolved in-project, else ""
  int line = 0;
  bool angled = false;   // <...> include
};

/// Process-wide interning table of physical files (root-relative paths).
/// Shared by all worker threads; lookups after the parallel phase are
/// lock-free reads.
class FileTable {
 public:
  FileId intern(const std::string& rel_path);
  const std::string& path(FileId id) const { return paths_[id]; }
  std::size_t size() const { return paths_.size(); }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> paths_;
  std::map<std::string, FileId> ids_;
};

/// A fully preprocessed translation unit.
struct TranslationUnit {
  FileId main_file = 0;
  std::vector<Token> tokens;                 // post-include, post-expansion
  std::vector<IncludeEdge> includes;         // every edge seen in this TU
  std::vector<FileId> files;                 // physical files contributing
  // Include cycles found while descending (reported once per TU; the
  // driver dedupes globally). Each entry is (file, line, cycle text).
  struct Cycle {
    FileId file;
    int line;
    std::string text;
  };
  std::vector<Cycle> cycles;
  // src/ headers inlined into this TU that have neither `#pragma once`
  // nor an `#ifndef` guard as their first directive.
  std::vector<FileId> unguarded_headers;
};

/// Preprocessor configuration + driver. One instance is shared across
/// worker threads; per-TU state lives on the stack of preprocess().
class Preprocessor {
 public:
  Preprocessor(std::string root, std::vector<std::string> include_dirs,
               FileTable* files)
      : root_(std::move(root)),
        include_dirs_(std::move(include_dirs)),
        files_(files) {}

  /// Preprocess the TU rooted at `abs_path` (absolute or root-relative).
  TranslationUnit preprocess(const std::string& abs_path) const;

  const std::string& root() const { return root_; }

 private:
  struct TuState;
  void process_file(const std::string& abs, const std::string& rel,
                    TuState& st) const;

  std::string root_;
  std::vector<std::string> include_dirs_;
  FileTable* files_;
};

/// Read a whole file; returns false if unreadable.
bool read_file(const std::string& path, std::string& out);

/// Root-relative form of `abs` (generic slashes); `abs` unchanged if it
/// is not under root.
std::string relativize(const std::string& root, const std::string& abs);

}  // namespace hipflow
