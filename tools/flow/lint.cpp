// hipcloud_flow per-file lint family: token patterns over one physical
// file (see analysis.hpp for the catalogue and DESIGN.md §5e for why
// each rule exists).

#include <set>

#include "analysis.hpp"
#include "callgraph.hpp"

namespace hipflow {

namespace {

void rule_wall_clock(const std::string& path, const std::vector<Token>& t,
                     std::vector<Finding>& out) {
  // The sim:: layer owns virtual time and the seeded DRBG; everything
  // else must get time from the event loop and entropy from sim::Rng.
  // One carve-out inside sim/: the shard seam (src/sim/shard.*) runs on
  // real worker threads, where a wall-clock or entropy read is exactly
  // the cross-thread determinism leak this rule exists to catch — the
  // exemption does not extend to it.
  if (path.starts_with("src/sim/") && !path.starts_with("src/sim/shard.")) {
    return;
  }
  static const std::set<std::string> kClocks = {
      "steady_clock", "system_clock", "high_resolution_clock"};
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (kClocks.count(s) != 0) {
      out.push_back({path, t[i].line, "wall-clock",
                     "std::chrono::" + s +
                         " reads real time; use the event loop's virtual "
                         "now()"});
    } else if (s == "random_device") {
      out.push_back({path, t[i].line, "wall-clock",
                     "std::random_device is non-deterministic; seed "
                     "sim::Rng / HmacDrbg instead"});
    } else if (s == "rand" && tok(t, i - 1) == "::" &&
               tok(t, i - 2) == "std") {
      out.push_back({path, t[i].line, "wall-clock",
                     "std::rand is a hidden global RNG; use the world's "
                     "seeded generator"});
    } else if (s == "time" && tok(t, i + 1) == "(" &&
               (tok(t, i + 2) == "nullptr" || tok(t, i + 2) == "NULL" ||
                tok(t, i + 2) == "0")) {
      out.push_back({path, t[i].line, "wall-clock",
                     "time(nullptr) reads the wall clock; use the event "
                     "loop's virtual now()"});
    }
  }
}

void rule_unordered_iter(const std::string& path, const std::vector<Token>& t,
                         std::vector<Finding>& out) {
  // Pass 1: names declared (in this file) with an unordered container
  // type. Pass 2: range-for statements whose range expression mentions
  // one of those names.
  std::set<std::string> unordered_names;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text != "unordered_map" && t[i].text != "unordered_set") {
      continue;
    }
    std::size_t j = i + 1;
    if (tok(t, j) != "<") continue;
    int depth = 0;
    for (; j < t.size(); ++j) {
      if (t[j].text == "<") ++depth;
      if (t[j].text == ">" && --depth == 0) break;
    }
    ++j;  // past '>'
    // Optional reference/pointer declarators, then the variable name.
    while (j < t.size() && (t[j].text == "&" || t[j].text == "*")) ++j;
    if (is_ident(tok(t, j))) unordered_names.insert(t[j].text);
  }
  if (unordered_names.empty()) return;

  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text != "for" || tok(t, i + 1) != "(") continue;
    // Find the matching ')' and the first top-level ':' inside it.
    int depth = 0;
    std::size_t colon = 0, end = 0;
    for (std::size_t j = i + 1; j < t.size(); ++j) {
      const std::string& s = t[j].text;
      if (s == "(" || s == "[" || s == "{") ++depth;
      if (s == ")" || s == "]" || s == "}") {
        if (--depth == 0) {
          end = j;
          break;
        }
      }
      if (s == ":" && depth == 1 && colon == 0) colon = j;
    }
    if (colon == 0 || end == 0) continue;  // classic for / malformed
    for (std::size_t j = colon + 1; j < end; ++j) {
      if (unordered_names.count(t[j].text) != 0) {
        out.push_back(
            {path, t[j].line, "unordered-iter",
             "range-for over std::unordered_* `" + t[j].text +
                 "`: iteration order is implementation-defined and "
                 "breaks cross-platform determinism"});
        break;
      }
    }
  }
}

void rule_raw_alloc(const std::string& path, const std::vector<Token>& t,
                    bool all_paths, std::vector<Finding>& out) {
  // Packet-path directories only: the pooled buffer arena and
  // make_unique/shared own all allocation there.
  if (!all_paths && !path.starts_with("src/net/") &&
      !path.starts_with("src/hip/") && !path.starts_with("src/apps/")) {
    return;
  }
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::string& s = t[i].text;
    if (s == "new") {
      out.push_back({path, t[i].line, "raw-alloc",
                     "raw `new` on the packet path; use make_unique/"
                     "make_shared or the BufferPool"});
    } else if (s == "delete") {
      // `= delete` declarations and operator delete are not allocation.
      if (tok(t, i - 1) == "=" || tok(t, i - 1) == "operator") continue;
      out.push_back({path, t[i].line, "raw-alloc",
                     "raw `delete` on the packet path; owning types "
                     "should manage lifetime"});
    }
  }
}

void rule_self_capture(const std::string& path, const std::vector<Token>& t,
                       std::vector<Finding>& out) {
  // x->method([x]{...}) or x->method([a, x]{...}): the callback keeps its
  // own owner alive — the shared_ptr cycle that leaked TcpConnections.
  // By-reference capture ([&x]) takes no ownership and is not flagged.
  for (std::size_t i = 0; i + 4 < t.size(); ++i) {
    if (t[i + 1].text != "->" || tok(t, i + 3) != "(" ||
        tok(t, i + 4) != "[") {
      continue;
    }
    const std::string& obj = t[i].text;
    if (!is_ident(obj)) continue;
    for (std::size_t j = i + 5; j < t.size() && t[j].text != "]"; ++j) {
      // Only a plain-copy capture item (`[x]`, `[a, x]`) copies the
      // shared_ptr and closes the cycle. `[&x]` takes no ownership,
      // and in init-captures (`[p = x.get()]`,
      // `[w = std::weak_ptr<T>(x)]`) `x` is not a direct list item.
      const std::string& prev = tok(t, j - 1);
      const std::string& next = tok(t, j + 1);
      if (t[j].text == obj && (prev == "[" || prev == ",") &&
          (next == "," || next == "]")) {
        out.push_back(
            {path, t[j].line, "self-capture",
             "`" + obj + "` captures itself by value in a callback it "
             "installs on itself — shared_ptr reference cycle (leak)"});
        break;
      }
    }
  }
}

void rule_eager_log(const std::string& path, const std::vector<Token>& t,
                    std::vector<Finding>& out) {
  // Log::write builds its std::string argument before the level check.
  // Only the sink itself (and the HIPCLOUD_LOG macro wrapping it) may
  // call it directly.
  if (path.starts_with("src/sim/log.")) return;
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].text == "Log" && t[i + 1].text == "::" &&
        t[i + 2].text == "write") {
      out.push_back({path, t[i].line, "eager-log",
                     "raw sim::Log::write() builds the message eagerly; "
                     "use HIPCLOUD_LOG (lazy format)"});
    }
  }
}

}  // namespace

void analyze_file(const std::string& rel, const std::vector<Token>& tokens,
                  bool all_paths, std::vector<Finding>& out) {
  rule_wall_clock(rel, tokens, out);
  rule_unordered_iter(rel, tokens, out);
  rule_raw_alloc(rel, tokens, all_paths, out);
  rule_self_capture(rel, tokens, out);
  rule_eager_log(rel, tokens, out);
}

}  // namespace hipflow
