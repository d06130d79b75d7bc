// Minimal fixed-width table printer shared by the reproduction benches,
// plus the `--json` flag convention: every bench main may accept
// `--json[=PATH]` and mirror its regenerated numbers into a run manifest
// (default: BENCH_<name>.json in the CWD; manifest.h writes it) so perf
// trajectories can be tracked across commits.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace eccm0::bench {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : widths_(headers.size(), 0) {
    add_row(std::move(headers));
  }

  void add_row(std::vector<std::string> cells) {
    if (cells.size() > widths_.size()) widths_.resize(cells.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      widths_[i] = std::max(widths_[i], cells[i].size());
    }
    rows_.push_back(std::move(cells));
  }

  void print() const {
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      std::string line;
      for (std::size_t c = 0; c < rows_[r].size(); ++c) {
        std::string cell = rows_[r][c];
        cell.resize(widths_[c], ' ');
        line += cell;
        line += "  ";
      }
      while (!line.empty() && line.back() == ' ') line.pop_back();
      std::printf("%s\n", line.c_str());
      if (r == 0) {
        std::string rule;
        for (std::size_t c = 0; c < widths_.size(); ++c) {
          rule += std::string(widths_[c], '-') + "  ";
        }
        while (!rule.empty() && rule.back() == ' ') rule.pop_back();
        std::printf("%s\n", rule.c_str());
      }
    }
  }

  /// Row 0 is the header row.
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::size_t> widths_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt_u64(std::uint64_t v) { return std::to_string(v); }

inline std::string fmt_f(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

inline void banner(const char* title) {
  std::printf("\n=== %s ===\n\n", title);
}

/// The `--json` flag convention for bench mains: returns the output path
/// if `--json` (use `default_path`) or `--json=PATH` was passed, empty
/// string when JSON output was not requested.
inline std::string json_flag_path(int argc, char** argv,
                                  const std::string& default_path) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return default_path;
    if (std::strncmp(argv[i], "--json=", 7) == 0) return argv[i] + 7;
  }
  return {};
}

/// One-pass argv parser for the flag conventions every bench main (and
/// the ecctool subcommands) share:
///
///   --json[=PATH]  opt into the JSON mirror (bare form uses the default
///                  path handed to parse())
///   --threads=N    batch-executor worker count (0 = hardware concurrency)
///   --seed=S       campaign seed, 0x.. accepted
///   --iters=N      workload scale (reps / runs / calls / traces)
///   --engine=E     execution engine: perstep|predecode|threaded
///                  (armvm::decode_mode_from_name validates the value)
///   --mem=M        RAM protection model: raw|parity|secded
///                  (armvm::mem_model_from_name validates the value)
///   --curve=C      workload curve: sect233k1|secp192r1|secp224r1|secp256r1
///                  (workloads::curve_from_name validates the value)
///
/// Field values set before parse() act as the defaults; a flag only
/// overwrites its field when actually present. Benches register their
/// extra flags with add_flag()/add_u64() before parsing; anything else
/// that starts with `--` is rejected (parse() reports it on stderr and
/// returns false), and bare tokens are collected as positionals for the
/// caller to validate.
class Args {
 public:
  unsigned threads = 1;
  std::uint64_t seed = 0;
  std::uint64_t iters = 0;
  /// Engine name for `--engine=` (see armvm/dispatch.h). Kept as the
  /// flag spelling so this header stays armvm-free; harnesses convert
  /// with armvm::decode_mode_from_name, which throws on a bad value.
  std::string engine = "predecode";
  /// Memory model name for `--mem=` (see armvm/memmodel.h). Same
  /// convention as `engine`: kept as the flag spelling, converted by
  /// harnesses with armvm::mem_model_from_name (which throws on a bad
  /// value). Harnesses that sweep all models may set "" as the default
  /// to mean "no restriction".
  std::string mem = "raw";
  /// Curve name for `--curve=` (see workloads/spec.h). Kept as the flag
  /// spelling so this header stays workloads-free; harnesses convert
  /// with workloads::curve_from_name, which throws on an unknown name —
  /// bench mains catch that and exit 2.
  std::string curve = "sect233k1";
  bool json = false;          ///< --json[=PATH] was passed
  std::string json_path;      ///< resolved output path (empty until then)
  /// Live-progress mode for `--progress[=off|plain]` (bare form means
  /// "plain"). Kept as the flag spelling so this header stays
  /// telemetry-free; harnesses convert with
  /// telemetry::progress_mode_from_name, which throws on a bad value.
  /// Progress lines go to stderr, so `--json` output stays clean.
  std::string progress = "off";

  /// Register a bench-specific boolean flag, e.g. "--quick".
  void add_flag(const char* name, bool* dst) { flags_.push_back({name, dst}); }
  /// Register a bench-specific "--name=N" integer flag, e.g. "--runs".
  void add_u64(const char* name, std::uint64_t* dst) {
    u64s_.push_back({name, dst});
  }
  /// Register a bench-specific "--name=STR" string flag, e.g. "--ber".
  void add_str(const char* name, std::string* dst) {
    strs_.push_back({name, dst});
  }

  bool parse(int argc, char** argv, const std::string& default_json_path) {
    for (int i = 0; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strcmp(a, "--json") == 0) {
        json = true;
        json_path = default_json_path;
      } else if (std::strncmp(a, "--json=", 7) == 0) {
        json = true;
        json_path = a + 7;
      } else if (std::strncmp(a, "--threads=", 10) == 0) {
        threads = static_cast<unsigned>(std::strtoul(a + 10, nullptr, 10));
      } else if (std::strncmp(a, "--seed=", 7) == 0) {
        seed = std::strtoull(a + 7, nullptr, 0);
      } else if (std::strncmp(a, "--iters=", 8) == 0) {
        iters = std::strtoull(a + 8, nullptr, 10);
      } else if (std::strncmp(a, "--engine=", 9) == 0) {
        engine = a + 9;
      } else if (std::strncmp(a, "--mem=", 6) == 0) {
        mem = a + 6;
      } else if (std::strncmp(a, "--curve=", 8) == 0) {
        curve = a + 8;
      } else if (std::strcmp(a, "--progress") == 0) {
        progress = "plain";
      } else if (std::strncmp(a, "--progress=", 11) == 0) {
        progress = a + 11;
      } else if (a[0] == '-') {
        if (!match_extra(a)) {
          std::fprintf(stderr, "unknown flag '%s'%s\n", a,
                       usage_suffix().c_str());
          return false;
        }
      } else {
        positionals_.push_back(a);
      }
    }
    return true;
  }

  const std::vector<std::string>& positionals() const { return positionals_; }

 private:
  bool match_extra(const char* a) {
    for (const auto& [name, dst] : flags_) {
      if (std::strcmp(a, name) == 0) {
        *dst = true;
        return true;
      }
    }
    for (const auto& [name, dst] : u64s_) {
      const std::size_t n = std::strlen(name);
      if (std::strncmp(a, name, n) == 0 && a[n] == '=') {
        *dst = std::strtoull(a + n + 1, nullptr, 0);
        return true;
      }
    }
    for (const auto& [name, dst] : strs_) {
      const std::size_t n = std::strlen(name);
      if (std::strncmp(a, name, n) == 0 && a[n] == '=') {
        *dst = a + n + 1;
        return true;
      }
    }
    return false;
  }

  /// The rejection message lists the tool's registered flags alongside
  /// the standard set, so `unknown flag` output is self-documenting for
  /// every bench/subcommand without each main owning a usage string.
  std::string usage_suffix() const {
    std::string s =
        " (standard flags: --json[=PATH] --threads=N --seed=S --iters=N"
        " --engine=perstep|predecode|threaded --mem=raw|parity|secded"
        " --curve=NAME --progress[=off|plain]";
    std::string extra;
    for (const auto& [name, dst] : flags_) {
      extra += std::string(" ") + name;
    }
    for (const auto& [name, dst] : u64s_) {
      extra += std::string(" ") + name + "=N";
    }
    for (const auto& [name, dst] : strs_) {
      extra += std::string(" ") + name + "=STR";
    }
    if (!extra.empty()) s += "; tool flags:" + extra;
    s += ")";
    return s;
  }

  std::vector<std::pair<const char*, bool*>> flags_;
  std::vector<std::pair<const char*, std::uint64_t*>> u64s_;
  std::vector<std::pair<const char*, std::string*>> strs_;
  std::vector<std::string> positionals_;
};

}  // namespace eccm0::bench
