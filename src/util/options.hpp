// The one key/value reader behind every parameter surface: `k=v,...`
// specs (generator, update stream, fault plan), solver / maintainer /
// oracle configs, and the command lines of every binary.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace lps {

/// Typed, bounded reads over key/value entries. The reader records every
/// key it is asked for, so check_all_used() can reject what nothing read
/// (a typo, an unknown flag, a stray argument). Every rejection is a
/// std::invalid_argument whose one-line message names the offender.
class Args {
 public:
  /// A `k1=v1,k2=v2` spec: entries and keys are trimmed, a bare entry
  /// `k` reads as `k=true`, and an empty or duplicate key throws.
  /// `context` prefixes every diagnostic ("generator 'er'").
  Args(std::string context, const std::string& spec);
  /// Entries already split into a map (a config).
  Args(std::string context, std::map<std::string, std::string> entries);
  /// A command line: `--k=v`, `--k v`, bare `--flag`, and positional
  /// arguments; a repeated flag throws. A flag followed by a token not
  /// starting with `--` takes that token as its value, except that
  /// get_bool leaves a token that is not a boolean literal positional
  /// (`--check trace.json`). Only get_bool reads a flag given without a
  /// value. Diagnostics name keys as `--k`.
  Args(int argc, char** argv);

  /// Presence test; does not count as a read.
  bool has(const std::string& key) const { return values_.count(key) != 0; }
  std::string get(const std::string& key, const std::string& fallback) const;
  /// true/1/yes/on or false/0/no/off.
  bool get_bool(const std::string& key, bool fallback) const;
  double get_double(const std::string& key, double fallback) const;
  /// A decimal integer in [0, max]: a sign, fraction, or larger value
  /// throws instead of wrapping in the caller's cast.
  std::uint64_t get_count(const std::string& key, std::uint64_t fallback,
                          std::uint64_t max) const;
  /// get_count for a key that must be present.
  std::uint64_t require_count(const std::string& key,
                              std::uint64_t max) const;

  /// The positional arguments in order; asking for them accepts them.
  std::vector<std::string> positional() const;

  /// Throws naming the first key nothing read, or the first positional
  /// argument when positional() was never asked for.
  void check_all_used() const;

  const std::map<std::string, std::string>& entries() const noexcept {
    return values_;
  }

 private:
  /// Marks `key` read; nullptr when absent.
  const std::string* find(const std::string& key) const;
  /// find() for the value readers: a command-line flag given bare has
  /// no value to read.
  const std::string* value_of(const std::string& key) const;
  std::string name(const std::string& key) const;
  [[noreturn]] void fail(const std::string& message) const;

  std::string context_;
  bool command_line_ = false;
  std::map<std::string, std::string> values_;
  /// Command lines: each positional token, with the flag that may take
  /// it as its value ("" = none).
  std::vector<std::pair<std::string, std::string>> tokens_;
  mutable std::set<std::string> used_;
  /// Command-line flags given without a value.
  std::set<std::string> valueless_;
  /// Flags get_bool read bare, leaving their token positional.
  mutable std::set<std::string> bare_flags_;
  mutable bool positional_read_ = false;
};

/// Ends a main's function-try-block: a rejected flag or input becomes
/// one `program: message` line on stderr and exit code 2.
int reject_input(const char* program, const std::invalid_argument& e);

}  // namespace lps
