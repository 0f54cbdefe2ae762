// hipcloud_flow analyses — the rule catalogue.
//
// Per-file lint family (lint.cpp). Token patterns over one physical
// file's raw text, run once per file — never over the preprocessed TU
// stream, because each rule is defined per file ("declared in the same
// file") and path-scoped:
//
//   wall-clock      std::chrono::*_clock / time(nullptr) / std::rand /
//                   std::random_device outside src/sim/ (src/sim/shard.*
//                   gets no exemption: it runs on real worker threads) —
//                   real time leaking into simulated time makes runs
//                   irreproducible
//   unordered-iter  range-for over a std::unordered_{map,set} declared in
//                   the same file — hash-table iteration order is
//                   implementation-defined
//   raw-alloc       raw new/delete on the packet path (src/net, src/hip,
//                   src/apps; every path in self-test mode) — the pooled
//                   datapath keeps per-packet heap traffic off the loop
//   self-capture    `x->on_foo([x]{...})`: a shared_ptr capturing itself
//                   by value in a callback it installs on itself — a
//                   reference cycle (leak)
//   eager-log       raw sim::Log::write() outside src/sim/log.* — the
//                   message is built even when the level filter drops it;
//                   HIPCLOUD_LOG evaluates it lazily
//
// Flow-aware per-TU rules over preprocessed translation units
// (analysis.cpp); the interprocedural flow-shard-* and flow-wire-* rules
// are catalogued in ownership.hpp and taint.hpp. Both families share one
// `hipcheck:allow(<rule>): <why>` grammar and one pragma scanner:
//
//   flow-layering        include edge violates the layer DAG
//                        sim < crypto < net < {hip,tls} < apps < cloud < core
//   flow-include-cycle   textual include cycle (masked at compile time by
//                        `#pragma once`, still a layering smell)
//   flow-header-hygiene  src/ header without a guard, .cpp included as a
//                        header, or a project include that is not
//                        layer-qualified ("sim/log.hpp", never "log.hpp")
//   flow-taint           a key/secret-derived value reaches a logging or
//                        JSON/printf sink (intraprocedural, name+type
//                        seeded, assignment-propagated)
//   flow-ct-compare      key or MAC/ICV material compared with memcmp or
//                        ==/!= instead of crypto::ct_equal
//   flow-buffer-lifetime pooled crypto::Buffer used after std::move, or a
//                        headroom pointer (data()/prepend()/append())
//                        captured by a callback that outlives the frame
//                        (EventLoop suspension point)
//   flow-hot-alloc       implicit heap traffic (std::function, string
//                        temporaries, unreserved vector growth) in a
//                        function marked `hipcheck:hot` or reachable from
//                        one within the TU
//   flow-exn             a callback handed to EventLoop::schedule/
//                        schedule_at/post can leak an exception other
//                        than sim::CheckFailure
//   flow-shard-owned     a lambda crossing the shard seam captures
//                        `this`, by-reference state, or a
//                        hipcheck:shard_owned name (intra-TU half of the
//                        shard-ownership family; see ownership.hpp)
//   flow-shard-shared    a write to hipcheck:shard_shared state outside
//                        a hipcheck:seam function
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "tu.hpp"

namespace hipflow {

struct OwnershipMarks;  // callgraph.hpp

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string msg;

  friend bool operator<(const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.rule != b.rule) return a.rule < b.rule;
    return a.msg < b.msg;
  }
  friend bool operator==(const Finding& a, const Finding& b) {
    return a.file == b.file && a.line == b.line && a.rule == b.rule &&
           a.msg == b.msg;
  }
};

struct AnalysisOptions {
  // In tree mode the taint/ct-compare family is scoped to src/ (tests
  // legitimately compare derived keys with EXPECT_EQ) and raw-alloc to
  // the packet path; self-test mode lifts those scopes for every fixture
  // path. The wall-clock and eager-log carve-outs (src/sim/,
  // src/sim/log.*) are part of those rules and stay on.
  bool all_paths = false;
  // Lines (per physical file) carrying a `hipcheck:hot` marker; a
  // function whose name line is within 3 lines below a marker is hot.
  const std::map<std::string, std::vector<int>>* hot_marks = nullptr;
  // Shard-ownership annotations (hipcheck:shard_owned / shard_shared /
  // seam / shard_entry), scanned by the driver alongside the hot marks.
  // Drives the intra-TU flow-shard-owned / flow-shard-shared rules; the
  // interprocedural rules get the same marks through extract_tu_summary.
  const OwnershipMarks* marks = nullptr;
};

/// Run every analysis over one TU. Findings are appended unsorted and
/// undeduplicated; the driver dedupes globally (headers appear in many
/// TUs) and sorts for deterministic output.
void analyze_tu(const TranslationUnit& tu, const FileTable& files,
                const AnalysisOptions& opts, std::vector<Finding>& out);

/// Run the per-file lint family over `tokens`, the `lex` of physical file
/// `rel`'s raw text (`rel` is root-relative: the rules are path-scoped).
/// `all_paths` lifts raw-alloc's packet-path scope, as in self-test mode.
/// The driver calls this once per file and does not dedupe the result:
/// two hits on one line are two findings, each needing its own allow.
void analyze_file(const std::string& rel, const std::vector<Token>& tokens,
                  bool all_paths, std::vector<Finding>& out);

}  // namespace hipflow
