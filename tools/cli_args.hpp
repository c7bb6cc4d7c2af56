// hi-opt: the flag table shared by the hi_campaign, hi_pareto and
// hi_crowd CLIs.
//
// Each flag is declared once — name, metavar, help line and a typed
// binding — and one parser and one usage printer run over the table, so
// the usage text cannot drift from what the parser accepts.  Flags that
// several CLIs take are declared once in hi::cli::flags and carry the
// same range everywhere.
//
// Every binding consumes the whole argument or fails: a usage error,
// exit 2.  Integers are range-checked as u64 before they land in an
// `int`, so `--gamma 4294967295` cannot wrap to Γ = -1.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "store/json.hpp"

namespace hi::cli {

/// Parses all of `s` as a T: a double (strtod syntax), or an integer
/// (strtoull syntax, base 10) that fits T.  Fails on an empty string,
/// trailing characters or integer overflow.
template <typename T>
bool parse_number(const char* s, T& out) {
  char* end = nullptr;
  if constexpr (std::is_floating_point_v<T>) {
    out = std::strtod(s, &end);
  } else {
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno == ERANGE ||
        v > static_cast<unsigned long long>(std::numeric_limits<T>::max())) {
      return false;
    }
    out = static_cast<T>(v);
  }
  return end != s && *end == '\0';
}

/// How a flag stores its value.  `set` receives the argument (nullptr
/// for a switch) and returns false to reject it.  The usage text shows
/// `note` after the help: the default if it is legal, or "repeatable".
struct Binding {
  std::function<bool(const char*)> set;
  std::string note;
};

/// One declared flag.  `help` may hold '\n' for continuation lines.
struct Flag {
  std::string name;     ///< "--tsim"
  std::string metavar;  ///< "SEC"; empty exactly for a switch
  std::string help;
  Binding bind;
};

/// A default as the usage text shows it.
template <typename T>
std::string show(T v) {
  return std::is_floating_point_v<T> ? store::detail::fmt_double(v)
                                     : std::to_string(v);
}

/// A number (int, u64 or double) that satisfies `ok`.
template <typename T>
Binding number(T& dst, std::function<bool(T)> ok = [](T) { return true; }) {
  return {[&dst, ok](const char* s) {
            T v{};
            if (!parse_number(s, v) || !ok(v)) return false;
            dst = v;
            return true;
          },
          ok(dst) ? "default " + show(dst) : ""};
}

/// Range predicates for number() and list().  NaN passes none of them.
template <typename T>
std::function<bool(T)> at_least(T lo) {
  return [lo](T v) { return v >= lo; };
}
inline std::function<bool(int)> in_range(int lo, int hi) {
  return [lo, hi](int v) { return v >= lo && v <= hi; };
}
inline bool positive(double v) { return v > 0.0; }

/// A u64 with no default: empty until the flag is given.
inline Binding number(std::optional<std::uint64_t>& dst) {
  return {[&dst](const char* s) {
            std::uint64_t v = 0;
            if (!parse_number(s, v)) return false;
            dst = v;
            return true;
          },
          ""};
}

/// Any string, taken verbatim.
inline Binding text(std::string& dst) {
  return {[&dst](const char* s) { dst = s; return true; }, ""};
}

/// A switch: giving the flag stores `value`.
inline Binding on(bool& dst, bool value = true) {
  return {[&dst, value](const char*) { dst = value; return true; }, ""};
}

/// A flag taking one name out of `names`, stored as its value; the
/// metavar lists the names.
template <typename E>
Flag choice(std::string name, std::string help, E& dst,
            std::vector<std::pair<std::string, E>> names) {
  std::string metavar;
  std::string note;
  for (const auto& [key, value] : names) {
    metavar += (metavar.empty() ? "" : "|") + key;
    if (value == dst) note = "default " + key;
  }
  return {std::move(name), std::move(metavar), std::move(help),
          {[&dst, names = std::move(names)](const char* s) {
             for (const auto& [key, value] : names) {
               if (key == s) {
                 dst = value;
                 return true;
               }
             }
             return false;
           },
           note}};
}

/// A non-empty comma-separated list of numbers that each satisfy `ok`.
template <typename T>
Binding list(std::vector<T>& dst, std::function<bool(T)> ok) {
  std::string note;
  for (const T& v : dst) note += (note.empty() ? "default " : ",") + show(v);
  return {[&dst, ok](const char* s) {
            dst.clear();
            std::stringstream ss(s);
            std::string item;
            while (std::getline(ss, item, ',')) {
              T v{};
              if (!parse_number(item.c_str(), v) || !ok(v)) return false;
              dst.push_back(v);
            }
            return !dst.empty();
          },
          note};
}

/// A repeatable flag: each occurrence appends one string or u64.
template <typename T>
Binding append(std::vector<T>& dst) {
  return {[&dst](const char* s) {
            T v{};
            if constexpr (std::is_same_v<T, std::string>) {
              v = s;
            } else if (!parse_number(s, v)) {
              return false;
            }
            dst.push_back(v);
            return true;
          },
          "repeatable"};
}

/// A CLI's flags in usage order, grouped under section titles, plus its
/// hand-written synopsis lines.
class FlagTable {
 public:
  explicit FlagTable(std::vector<std::string> synopsis)
      : synopsis_(std::move(synopsis)) {}

  FlagTable& section(std::string title) {
    sections_.push_back({std::move(title), {}});
    return *this;
  }

  FlagTable& add(Flag flag) {
    HI_ASSERT_MSG(!sections_.empty(), "open a section before " << flag.name);
    HI_ASSERT_MSG(find(flag.name) == nullptr,
                  "flag " << flag.name << " declared twice");
    sections_.back().second.push_back(std::move(flag));
    return *this;
  }

  /// Applies argv[1..] to the bindings.  False on an unknown flag, a
  /// missing value or a rejected one; the caller then returns usage().
  bool parse(int argc, char** argv) {
    argv0_ = argc > 0 ? argv[0] : "";
    for (int i = 1; i < argc; ++i) {
      const Flag* flag = find(argv[i]);
      if (flag == nullptr) return false;
      if (flag->metavar.empty()) {
        flag->bind.set(nullptr);
      } else if (i + 1 >= argc || !flag->bind.set(argv[++i])) {
        return false;
      }
    }
    return true;
  }

  /// Prints the usage text generated from the table; returns exit code 2.
  int usage() const {
    const std::string indent(20, ' ');  // the help column
    std::string out;
    for (const std::string& line : synopsis_) {
      out += (out.empty() ? "usage: " : "       ") + argv0_ + " " + line + "\n";
    }
    for (const auto& [title, section] : sections_) {
      out += "\n" + title + ":\n";
      for (const Flag& f : section) {
        const std::string head =
            "  " + f.name + (f.metavar.empty() ? "" : " " + f.metavar);
        out += head.size() + 2 > indent.size()
                   ? head + "\n" + indent
                   : head + indent.substr(head.size());
        std::string help = f.help;
        if (!f.bind.note.empty()) help += " (" + f.bind.note + ")";
        for (const char c : help) {
          out += c;
          if (c == '\n') out += indent;
        }
        out += "\n";
      }
    }
    std::cerr << out;
    return 2;
  }

 private:
  [[nodiscard]] const Flag* find(const std::string& name) const {
    for (const auto& section : sections_) {
      for (const Flag& f : section.second) {
        if (f.name == name) return &f;
      }
    }
    return nullptr;
  }

  std::vector<std::string> synopsis_;
  std::vector<std::pair<std::string, std::vector<Flag>>> sections_;
  std::string argv0_;
};

/// Flags several CLIs take: declared here once, with one range each.
namespace flags {

inline Flag tsim(double& seconds) {
  return {"--tsim", "SEC", "simulated seconds per run",
          number<double>(seconds, positive)};
}
inline Flag runs(int& n) {
  return {"--runs", "N", "replications per design point",
          number(n, at_least(1))};
}
inline Flag seed(std::uint64_t& root) {
  return {"--seed", "N", "experiment seed root", number(root)};
}
inline Flag gamma(int& g) {
  return {"--gamma", "N", "Bertsimas-Sim protection budget",
          number(g, at_least(0))};
}
inline Flag realizations(int& k) {
  return {"--realizations", "N",
          "independent channel realizations per design\n"
          "(>1 judges the worst case and reports a PDR CI)",
          number(k, at_least(1))};
}
/// Unchecked here: the model rejects a level outside (0, 1) with a
/// message that names it.
inline Flag confidence(double& level) {
  return {"--confidence", "P", "PDR confidence-interval level", number(level)};
}
inline Flag threads(int& n) {
  return {"--threads", "N", "worker threads, 0 = serial",
          number(n, at_least(0))};
}
inline Flag pdr_min(std::vector<double>& grid) {
  return {"--pdr-min", "LIST", "comma-separated PDRmin values in [0,1]",
          list<double>(grid, [](double v) { return v >= 0.0 && v <= 1.0; })};
}
inline Flag store(std::string& path) {
  return {"--store", "FILE",
          "durable evaluation store (warm start +\n"
          "write-through; a rerun re-simulates nothing)",
          text(path)};
}
inline Flag out(std::string& path) {
  return {"--out", "FILE", "write the JSON report to FILE (default stdout)",
          text(path)};
}
/// --scenario and --gen-seed bind to one value in the single-scenario
/// CLIs and to a repeatable list in hi_campaign.
inline Flag scenario(Binding bind) {
  return {"--scenario", "FILE", "scenario JSON (see --dump-scenario)",
          std::move(bind)};
}
inline Flag gen_seed(Binding bind) {
  return {"--gen-seed", "N", "generated hi::check scenario with this seed",
          std::move(bind)};
}
inline Flag dump_scenario(bool& dump) {
  return {"--dump-scenario", "", "print the scenario as editable JSON and exit",
          on(dump)};
}

}  // namespace flags

/// Writes a finished report to `out_path`, or to stdout when it is
/// empty.  Returns the exit code: 2 when the file cannot be opened.
inline int write_report(const char* tool, const std::string& out_path,
                        const std::string& report) {
  if (out_path.empty()) {
    std::cout << report;
  } else if (std::ofstream out(out_path); out) {
    out << report;
  } else {
    std::cerr << tool << ": cannot write " << out_path << "\n";
    return 2;
  }
  return 0;
}

/// Runs a CLI's body.  A hi::ModelError — user input the flag parsers
/// cannot judge alone, e.g. a confidence level or a Tsim the model
/// rejects — becomes a one-line `<tool>: <message>` on stderr and exit
/// code 2, like any other usage error.  InternalError and HI_ASSERT
/// failures are bugs and still abort.
template <typename Body>
int run_main(const char* tool, Body&& body) {
  try {
    return body();
  } catch (const hi::ModelError& e) {
    std::cerr << tool << ": " << e.what() << "\n";
    return 2;
  }
}

}  // namespace hi::cli
